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

The wire itself is pluggable: a :class:`repro.db.topology.CostModel`
(``cost_model``) is consulted per remote message for wire delay and
stochastic wire loss.  ``None`` keeps the paper's zero-cost switch on
the historical hot path; :class:`repro.db.topology.LanSwitch` is
byte-identical through the indirection; a
:class:`repro.db.topology.WanTopology` pays per-link latency and
classifies traffic as intra- vs cross-datacenter.  The fault injector
*composes with* (stacks on top of) the cost model: topology delay and
loss model the healthy wire, injected delay and loss the unhealthy one,
and a site that crashes while a cross-DC message is in flight still
drops it once the link delay has elapsed (see ``_deliver``).
"""

from __future__ import annotations

import typing

from repro.db.messages import MessageKind
from repro.obs.bus import EventBus
from repro.obs.events import EventKind, MessageDeliver, MessageSend, MsgDrop
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.messages import Message
    from repro.db.site import Site
    from repro.db.topology import CostModel
    from repro.db.transaction import Agent
    from repro.faults.injector import FaultInjector
    from repro.sim.engine import Environment


class Network:
    """Message switch with per-end CPU costs and a pluggable wire."""

    def __init__(self, env: "Environment", msg_cpu_ms: float,
                 bus: EventBus | None = None,
                 cost_model: "CostModel | None" = None) -> None:
        self.env = env
        self.msg_cpu_ms = msg_cpu_ms
        #: instrumentation plane; a standalone network gets a private bus.
        self.bus = bus if bus is not None else EventBus()
        #: fault plane; None means perfectly reliable (the default).
        self.faults: "FaultInjector | None" = None
        #: wire plane; None means the paper's free zero-latency switch.
        self.cost: "CostModel | None" = cost_model
        self.messages_sent = 0
        self.local_messages = 0
        self.messages_dropped = 0
        #: drop counts keyed by :class:`repro.obs.events.MsgDrop` reason
        #: (``loss`` / ``topology_loss`` / ``site_down`` / ``partition``).
        self.drops_by_reason: dict[str, int] = {}
        #: remote messages whose link crossed datacenters (topology runs
        #: with a site->DC placement only; otherwise both stay 0).
        self.cross_dc_messages = 0
        self.intra_dc_messages = 0

    def send(self, message: "Message",
             ) -> typing.Generator[Event, typing.Any, None]:
        """Coroutine run by the sender: pay the send cost, then route.

        Local messages (sender and receiver on the same site) cost
        nothing and are delivered synchronously.
        """
        sender_site = message.sender.site
        receiver_site = message.receiver.site
        bus = self.bus
        if sender_site.site_id == receiver_site.site_id:
            self.local_messages += 1
            if bus.has_subscribers(EventKind.MSG_SEND):
                bus.publish(MessageSend(
                    self.env.now, message, local=True,
                    link=(sender_site.site_id, sender_site.site_id)))
            if bus.has_subscribers(EventKind.MSG_DELIVER):
                bus.publish(MessageDeliver(
                    self.env.now, message,
                    link=(sender_site.site_id, sender_site.site_id)))
            message.receiver.inbox.put(message)
            return
        self.messages_sent += 1
        cost = self.cost
        src = sender_site.site_id
        dst = receiver_site.site_id
        delay, cross_dc = ((0.0, False) if cost is None
                           else self._wire(message, cost, src, dst))
        if bus.has_subscribers(EventKind.MSG_SEND):
            bus.publish(MessageSend(self.env.now, message, local=False,
                                    link=(src, dst), delay_ms=delay,
                                    cross_dc=cross_dc))
        self._count_for_transaction(message)
        yield from sender_site.message_cpu(self.msg_cpu_ms)
        faults = self.faults
        if faults is not None and faults.link_severed(src, dst):
            # The link group between the two datacenters is severed:
            # the message dies on the cut after the sender paid its
            # MsgCPU (there is no wire to lose it on).
            self._drop(message, "partition")
            return
        if cost is not None and cost.lose(src, dst):
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

    def _wire(self, message: "Message", cost: "CostModel", src: int,
              dst: int) -> tuple[float, bool]:
        """Cost-model half of putting a remote message on link
        ``src -> dst``: classify it intra- vs cross-DC (when the model
        has a site->DC placement) and return ``(wire delay, cross_dc)``.
        Runs without a cost model skip it; their wire is free.
        """
        cross_dc = False
        if cost.placement is not None:
            cross_dc = cost.placement[src] != cost.placement[dst]
            if cross_dc:
                self.cross_dc_messages += 1
                message.sender.txn.messages_cross_dc += 1
            else:
                self.intra_dc_messages += 1
        return cost.wire_delay(src, dst), cross_dc

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
        commit-class messages, four MsgCPU services, and (under a WAN
        cost model) one full wire round trip, so recovery time scales
        with the link RTT.  Inquiries are retried by the protocol layer
        until they succeed, which is why they are not subject to
        stochastic loss (topology or injected).

        Returns True when the exchange completed.  A severed link group
        is the one thing retrying cannot ride over: a leg that crosses a
        live partition fails (the sender still pays its MsgCPU, and a
        ``partition`` drop is recorded), the round trip returns False,
        and the caller must back off and retry after heal.
        """
        from repro.db.messages import Message, MessageKind

        own_site = agent.site
        bus = self.bus
        if own_site.site_id == remote_site.site_id:
            # Same-site inquiry (master probing its local cohort's WAL):
            # free and instantaneous, but still two traced messages.
            self.local_messages += 2
            send_subs = bus.has_subscribers(EventKind.MSG_SEND)
            deliver_subs = bus.has_subscribers(EventKind.MSG_DELIVER)
            if send_subs or deliver_subs:
                link = (own_site.site_id, own_site.site_id)
                for kind in (MessageKind.STATUS_INQ,
                             MessageKind.STATUS_ACK):
                    message = Message(kind, agent, agent, agent.txn.txn_id,
                                      agent.txn.incarnation)
                    if send_subs:
                        bus.publish(MessageSend(self.env.now, message,
                                                local=True, link=link))
                    if deliver_subs:
                        bus.publish(MessageDeliver(self.env.now, message,
                                                   link=link))
            return True
        cost = self.cost
        for kind in (MessageKind.STATUS_INQ, MessageKind.STATUS_ACK):
            message = Message(kind, agent, agent, agent.txn.txn_id,
                              agent.txn.incarnation)
            self.messages_sent += 1
            agent.txn.messages_commit += 1
            send_site, recv_site = ((own_site, remote_site)
                                    if kind is MessageKind.STATUS_INQ
                                    else (remote_site, own_site))
            src = send_site.site_id
            dst = recv_site.site_id
            delay, cross_dc = ((0.0, False) if cost is None
                               else self._wire(message, cost, src, dst))
            if bus.has_subscribers(EventKind.MSG_SEND):
                bus.publish(MessageSend(self.env.now, message, local=False,
                                        link=(src, dst), delay_ms=delay,
                                        cross_dc=cross_dc))
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
            if bus.has_subscribers(EventKind.MSG_DELIVER):
                bus.publish(MessageDeliver(self.env.now, message,
                                           link=(src, dst), delay_ms=delay,
                                           cross_dc=cross_dc))
        return True

    @staticmethod
    def _count_for_transaction(message: "Message") -> None:
        if message.kind is MessageKind.REPLICA_UPDATE:
            # Post-commit replica propagation: accounted on the system's
            # replication counters, not the transaction's commit-protocol
            # overheads (which reproduce the paper's Tables 3 and 4).
            return
        txn = message.sender.txn
        if message.kind.is_execution:
            txn.messages_execution += 1
        else:
            txn.messages_commit += 1

    def __repr__(self) -> str:
        return f"<Network msg_cpu={self.msg_cpu_ms}ms sent={self.messages_sent}>"
