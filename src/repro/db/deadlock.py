"""Global deadlock detection.

The paper's model (Section 4.2): "both global and local deadlock
detection is immediate, that is, a deadlock is detected as soon as a lock
conflict occurs and a cycle is formed.  The youngest transaction in the
cycle is restarted to resolve the deadlock."  Detection overheads are not
charged (they would be identical across commit protocols).

The graph is over *transactions*; lock managers at every site feed it
edges keyed by the lock request that created them, so edges can be
retracted precisely when requests are granted or withdrawn.
"""

from __future__ import annotations

import collections
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.locks import LockRequest
    from repro.db.transaction import Transaction

#: Called with the chosen victim when a cycle is found.
VictimCallback = typing.Callable[["Transaction"], None]


class WaitForGraph:
    """Transaction wait-for graph with immediate cycle detection."""

    def __init__(self, on_victim: VictimCallback) -> None:
        self._on_victim = on_victim
        #: request -> (waiter, blockers) as last registered.
        self._edges: dict["LockRequest",
                          tuple["Transaction", frozenset["Transaction"]]] = {}
        #: adjacency with multiplicity: waiter -> {blocker: count}.
        self._adjacency: dict["Transaction",
                              collections.Counter] = {}
        self.deadlocks_found = 0

    # ------------------------------------------------------------------
    # Edge maintenance (driven by the lock managers)
    # ------------------------------------------------------------------
    def set_edges(self, request: "LockRequest", waiter: "Transaction",
                  blockers: set["Transaction"]) -> None:
        """Replace the wait-for edges contributed by ``request``."""
        self.clear_edges(request)
        # Deterministic ordering: set iteration order depends on object
        # addresses, which would make victim selection (and therefore
        # whole runs) irreproducible.
        ordered = sorted((b for b in blockers if b is not waiter),
                         key=lambda t: (t.txn_id, t.incarnation))
        if not ordered:
            return
        self._edges[request] = (waiter, frozenset(ordered))
        counter = self._adjacency.setdefault(waiter, collections.Counter())
        for blocker in ordered:
            counter[blocker] += 1

    def clear_edges(self, request: "LockRequest") -> None:
        """Retract the edges contributed by ``request`` (if any)."""
        edge = self._edges.pop(request, None)
        if edge is None:
            return
        waiter, blockers = edge
        counter = self._adjacency.get(waiter)
        if counter is None:
            return
        for blocker in blockers:
            counter[blocker] -= 1
            if counter[blocker] <= 0:
                del counter[blocker]
        if not counter:
            del self._adjacency[waiter]

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def check_for_deadlock(self, txn: "Transaction") -> list["Transaction"]:
        """Detect and resolve every cycle through ``txn``.

        Returns the list of victims restarted (usually empty or one).
        Transactions already flagged ``aborting`` are treated as absent:
        their locks are about to be released, so cycles through them are
        already broken.
        """
        victims: list["Transaction"] = []
        while True:
            cycle = self._find_cycle(txn)
            if cycle is None:
                return victims
            self.deadlocks_found += 1
            victim = self._choose_victim(cycle)
            victims.append(victim)
            # The callback must set ``victim.aborting`` (and does, via
            # DistributedSystem.abort_transaction); that is what makes
            # the loop terminate and later DFS passes skip the victim.
            self._on_victim(victim)
            if not victim.aborting:  # pragma: no cover - contract guard
                raise RuntimeError(
                    "on_victim callback failed to mark the victim aborting")
            if victim is txn:
                return victims

    def _find_cycle(self, start: "Transaction",
                    ) -> list["Transaction"] | None:
        """A cycle through ``start``, or None.  Iterative DFS."""
        if start.aborting or start not in self._adjacency:
            return None
        path: list["Transaction"] = [start]
        # Stack of iterators over each path node's blockers.
        stack = [iter(self._neighbours(start))]
        visited: set["Transaction"] = {start}
        while stack:
            try:
                nxt = next(stack[-1])
            except StopIteration:
                stack.pop()
                path.pop()
                continue
            if nxt is start:
                return list(path)
            if nxt in visited or nxt.aborting:
                continue
            visited.add(nxt)
            path.append(nxt)
            stack.append(iter(self._neighbours(nxt)))
        return None

    def _neighbours(self, txn: "Transaction",
                    ) -> typing.Iterator["Transaction"]:
        counter = self._adjacency.get(txn)
        if counter is None:
            return iter(())
        return iter([t for t in counter if not t.aborting])

    @staticmethod
    def _choose_victim(cycle: list["Transaction"]) -> "Transaction":
        """The youngest transaction in the cycle (paper Section 4.2)."""
        victim = cycle[0]
        for txn in cycle[1:]:
            if txn.is_younger_than(victim):
                victim = txn
        return victim

    # ------------------------------------------------------------------
    # Introspection (tests and diagnostics)
    # ------------------------------------------------------------------
    def blockers_of(self, txn: "Transaction") -> set["Transaction"]:
        counter = self._adjacency.get(txn)
        return set(counter) if counter else set()

    @property
    def num_waiting(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:
        return (f"<WaitForGraph waiters={len(self._adjacency)} "
                f"deadlocks={self.deadlocks_found}>")
