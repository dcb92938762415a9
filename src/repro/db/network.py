"""The communication network.

Per the paper (Section 4): "The communication network is simply modeled
as a switch that routes messages since we assume a local area network
that has high bandwidth.  However, the CPU overheads of message transfer
... are taken into account at both the sending and the receiving sites."

Consequences implemented here:

- wire latency is zero *by default*;
- the *sender's process* is occupied while the send-side MsgCPU cost is
  paid (at message priority);
- the receive-side MsgCPU cost is paid by an independent delivery
  process at the receiving site, after which the message lands in the
  receiver's inbox;
- messages between agents at the *same site* are free (they correspond
  to the master talking to its local cohort) and are delivered
  immediately.

The wire is a :class:`repro.db.topology.WanTopology` (``cost``) for a
topology that places sites in datacenters, and None -- the paper's free
switch -- otherwise.  A WAN charges per-link latency, classifies traffic
as intra- vs cross-datacenter and may lose a message on the healthy
wire.  The fault injector *stacks on top of* the wire: injected delay
and loss model the unhealthy one, and a site that crashes while a
cross-DC message is in flight still drops it once the link delay has
elapsed (see ``_deliver``).
"""

from __future__ import annotations

import typing

from repro.db.messages import Message, MessageKind
from repro.obs.bus import EventBus
from repro.obs.events import EventKind, MessageDeliver, MessageSend, MsgDrop
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.site import Site
    from repro.db.topology import WanTopology
    from repro.db.transaction import Agent
    from repro.faults.injector import FaultInjector
    from repro.sim.engine import Environment


class Network:
    """Message switch with per-end CPU costs and an optional WAN wire."""

    def __init__(self, env: "Environment", msg_cpu_ms: float,
                 bus: EventBus | None = None,
                 cost_model: "WanTopology | None" = None) -> None:
        self.env = env
        self.msg_cpu_ms = msg_cpu_ms
        #: instrumentation plane; a standalone network gets a private bus.
        self.bus = bus if bus is not None else EventBus()
        #: fault plane; None means perfectly reliable (the default).
        self.faults: "FaultInjector | None" = None
        #: wire plane; None means the paper's free zero-latency switch.
        self.cost: "WanTopology | None" = cost_model
        self.messages_sent = 0
        self.local_messages = 0
        self.messages_dropped = 0
        #: drop counts keyed by :class:`repro.obs.events.MsgDrop` reason
        #: (``loss`` / ``topology_loss`` / ``site_down`` / ``partition``).
        self.drops_by_reason: dict[str, int] = {}
        #: remote messages whose link crossed datacenters (WAN runs only;
        #: otherwise both stay 0).
        self.cross_dc_messages = 0
        self.intra_dc_messages = 0

    def send(self, message: "Message",
             ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine run by the sender: pay the send cost, then route.

        Local messages (sender and receiver on the same site) cost
        nothing and are delivered synchronously.
        """
        sender_site = message.sender.site
        src = sender_site.site_id
        dst = message.receiver.site.site_id
        if src == dst:
            self._hand_over(message, src)
            message.receiver.inbox.put(message)
            return
        delay, cross_dc = self._put_on_link(message, src, dst)
        yield from sender_site.message_cpu(self.msg_cpu_ms)
        faults = self.faults
        if faults is not None and faults.link_severed(src, dst):
            # The link group between the two datacenters is severed:
            # the message dies on the cut after the sender paid its
            # MsgCPU (there is no wire to lose it on).
            self._drop(message, "partition")
            return
        wire = self.cost
        if wire is not None and wire.lose(src, dst):
            # Lost on the (healthy) wire: the sender already paid its
            # MsgCPU; nobody pays the receive cost.
            self._drop(message, "topology_loss")
            return
        if faults is not None:
            # Fault plane stacks on the wire: the plan's loss is drawn
            # after the topology's own wire loss (either drops the
            # message) and its delay adds to the link's.
            plan = faults.plan
            if plan.lose_message():
                self._drop(message, "loss")
                return
            delay += plan.message_delay()
        # Receive side: an independent process so the sender is not
        # blocked while the receiver's CPU works through its queue.
        self.env.process(self._deliver(message, delay, cross_dc),
                         name=f"deliver-{message.kind.value}")

    def _hand_over(self, message: "Message", site_id: int) -> None:
        """Count and trace a same-site message: free and instantaneous,
        so its send and its delivery happen now."""
        self.local_messages += 1
        bus = self.bus
        link = (site_id, site_id)
        if bus.has_subscribers(EventKind.MSG_SEND):
            bus.publish(MessageSend(self.env.now, message, local=True,
                                    link=link))
        if bus.has_subscribers(EventKind.MSG_DELIVER):
            bus.publish(MessageDeliver(self.env.now, message, link=link))

    def _put_on_link(self, message: "Message", src: int, dst: int,
                     ) -> tuple[float, bool]:
        """Put a remote message on link ``src -> dst``: count it, split
        it intra- vs cross-DC and draw its wire delay (WAN runs only),
        and trace its send.  Returns ``(wire delay, cross_dc)``."""
        self.messages_sent += 1
        kind = message.kind
        txn = message.sender.txn
        if kind.is_execution:
            txn.messages_execution += 1
        elif kind is not MessageKind.REPLICA_UPDATE:
            # Post-commit replica propagation is accounted on the
            # system's replication counters, not the transaction's
            # commit-protocol overheads (the paper's Tables 3 and 4).
            txn.messages_commit += 1
        delay = 0.0
        cross_dc = False
        wire = self.cost
        if wire is not None:
            cross_dc = wire.is_cross_dc(src, dst)
            if cross_dc:
                self.cross_dc_messages += 1
                txn.messages_cross_dc += 1
            else:
                self.intra_dc_messages += 1
            delay = wire.wire_delay(src, dst)
        bus = self.bus
        if bus.has_subscribers(EventKind.MSG_SEND):
            bus.publish(MessageSend(self.env.now, message, local=False,
                                    link=(src, dst), delay_ms=delay,
                                    cross_dc=cross_dc))
        return delay, cross_dc

    def _deliver(self, message: "Message", delay: float = 0.0,
                 cross_dc: bool = False,
                 ) -> typing.Generator[Event, typing.Any, None]:
        if delay > 0.0:
            # Wire latency: topology link delay plus injected delay
            # (the paper's healthy switch has neither).
            yield self.env.timeout(delay)
        faults = self.faults
        if faults is not None and not message.receiver.site.up:
            # Receiver's site is down: nobody pays the receive cost.
            # For a cross-DC message this check runs *after* the link
            # delay elapsed, so a mid-flight crash still eats it.
            self._drop(message, "site_down")
            return
        if faults is not None and faults.link_severed(*message.link):
            # The partition started while the message was in flight:
            # it never makes it across the cut.
            self._drop(message, "partition")
            return
        yield from message.receiver.site.message_cpu(self.msg_cpu_ms)
        if faults is not None and not message.receiver.site.up:
            # Site crashed while the receive CPU was being served; the
            # in-flight delivery is part of the lost volatile state.
            self._drop(message, "site_down")
            return
        if self.bus.has_subscribers(EventKind.MSG_DELIVER):
            self.bus.publish(MessageDeliver(self.env.now, message,
                                            link=message.link,
                                            delay_ms=delay,
                                            cross_dc=cross_dc))
        message.receiver.inbox.put(message)

    def _drop(self, message: "Message", reason: str) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] = \
            self.drops_by_reason.get(reason, 0) + 1
        if self.faults is not None and reason != "topology_loss":
            # The injector's counter only attributes drops the fault
            # plane caused (injected loss, crashed receivers, severed
            # links); topology wire loss is the healthy WAN's doing and
            # shows up in ``drops_by_reason`` only.
            self.faults.messages_dropped += 1
        if self.bus.has_subscribers(EventKind.MSG_DROP):
            self.bus.publish(MsgDrop(self.env.now, message, reason))

    def path_open(self, site_a: "Site", site_b: "Site") -> bool:
        """Whether messages can currently flow between the two sites
        (no region fault plan has severed their datacenters' links)."""
        faults = self.faults
        return faults is None or not faults.link_severed(
            site_a.site_id, site_b.site_id)

    def inquiry_round_trip(self, agent: "Agent", remote_site: "Site",
                           ) -> typing.Generator[Event, typing.Any, bool]:
        """One status-inquiry round trip from ``agent`` to ``remote_site``.

        Recovery traffic (STATUS_INQ out, STATUS_ACK back) is modeled as
        a reliable exchange that bypasses inboxes: the caller decides
        what the answer *means* by reading the remote site's WAL, so no
        payload needs routing, but the message costs are real -- two
        commit-class messages, four MsgCPU services, and (on a WAN) one
        full wire round trip, so recovery time scales with the link
        RTT.  Inquiries are retried by the protocol layer
        until they succeed, which is why they are not subject to
        stochastic loss (topology or injected).

        Returns True when the exchange completed.  A severed link group
        is the one thing retrying cannot ride over: a leg that crosses a
        live partition fails (the sender still pays its MsgCPU, and a
        ``partition`` drop is recorded), the round trip returns False,
        and the caller must back off and retry after heal.
        """
        own_site = agent.site
        txn = agent.txn
        if own_site.site_id == remote_site.site_id:
            # Same-site inquiry (master probing its local cohort's WAL):
            # free and instantaneous, but still two traced messages.
            for kind in (MessageKind.STATUS_INQ, MessageKind.STATUS_ACK):
                self._hand_over(Message(kind, agent, agent, txn.txn_id,
                                        txn.incarnation), own_site.site_id)
            return True
        for send_site, recv_site, kind in (
                (own_site, remote_site, MessageKind.STATUS_INQ),
                (remote_site, own_site, MessageKind.STATUS_ACK)):
            message = Message(kind, agent, agent, txn.txn_id,
                              txn.incarnation)
            src = send_site.site_id
            dst = recv_site.site_id
            delay, cross_dc = self._put_on_link(message, src, dst)
            yield from send_site.message_cpu(self.msg_cpu_ms)
            if self.faults is not None \
                    and self.faults.link_severed(src, dst):
                # The inquiry leg cannot cross a severed link group:
                # the exchange fails and the caller backs off.
                self._drop(message, "partition")
                return False
            if delay > 0.0:
                yield self.env.timeout(delay)
            yield from recv_site.message_cpu(self.msg_cpu_ms)
            if self.bus.has_subscribers(EventKind.MSG_DELIVER):
                self.bus.publish(MessageDeliver(
                    self.env.now, message, link=(src, dst),
                    delay_ms=delay, cross_dc=cross_dc))
        return True

    def __repr__(self) -> str:
        return f"<Network msg_cpu={self.msg_cpu_ms}ms sent={self.messages_sent}>"
