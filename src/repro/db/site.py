"""One site of the distributed database.

Physical resources per the paper's Section 4: ``NumCPUs`` processors
sharing a single queue (message processing at higher priority than data
processing), ``NumDataDisks`` data disks with individual queues, and
``NumLogDisks`` log disks.  Under ``infinite_resources`` (Experiment 2)
every resource becomes an infinite server: no queueing, full service
times.
"""

from __future__ import annotations

import typing

from repro.db.locks import LockManager
from repro.db.wal import LogManager
from repro.sim.events import Event
from repro.sim.resources import (
    PRIORITY_DATA,
    PRIORITY_MESSAGE,
    InfiniteServer,
    PriorityResource,
    Request,
    Resource,
    Server,
)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.deadlock import WaitForGraph
    from repro.db.pages import PageDirectory
    from repro.sim.engine import Environment


class Site:
    """A database site: resources + lock manager + log manager."""

    def __init__(self, env: "Environment", site_id: int,
                 directory: "PageDirectory",
                 wait_for_graph: "WaitForGraph",
                 num_cpus: int, num_data_disks: int, num_log_disks: int,
                 page_cpu_ms: float, page_disk_ms: float,
                 infinite_resources: bool = False,
                 lending_enabled: bool = False,
                 group_commit: bool = False,
                 wal_retention: bool = True,
                 on_lender_abort=None, bus=None) -> None:
        self.env = env
        self.site_id = site_id
        self.directory = directory
        self.page_cpu_ms = page_cpu_ms
        self.page_disk_ms = page_disk_ms
        self.infinite_resources = infinite_resources

        if infinite_resources:
            self.cpu: Server = InfiniteServer(env, name=f"cpu@{site_id}")
            self.data_disks: list[Server] = [
                InfiniteServer(env, name=f"disk{d}@{site_id}")
                for d in range(num_data_disks)]
            log_disks: list[Server] = [
                InfiniteServer(env, name=f"log{d}@{site_id}")
                for d in range(num_log_disks)]
        else:
            self.cpu = PriorityResource(env, capacity=num_cpus,
                                        name=f"cpu@{site_id}")
            self.data_disks = [
                Resource(env, capacity=1, name=f"disk{d}@{site_id}")
                for d in range(num_data_disks)]
            log_disks = [
                Resource(env, capacity=1, name=f"log{d}@{site_id}")
                for d in range(num_log_disks)]

        self.log_manager = LogManager(env, site_id, log_disks,
                                      write_time_ms=page_disk_ms,
                                      group_commit=group_commit,
                                      bus=bus,
                                      retain_records=wal_retention)
        self.lock_manager = LockManager(
            env, site_id, wait_for_graph,
            lending_enabled=lending_enabled,
            on_lender_abort=on_lender_abort,
            bus=bus)

        #: operational flag; only the fault injector ever clears it.
        self.up = True

        # Counters.
        self.pages_read = 0
        self.pages_written = 0

    # ------------------------------------------------------------------
    # Service claims
    # ------------------------------------------------------------------
    def data_disk_for(self, page: int) -> Server:
        """The data disk storing ``page`` at this site."""
        return self.data_disks[self.directory.disk_of(page)]

    def read_page(self, page: int) -> typing.Generator[Event, typing.Any, None]:
        """Disk read followed by CPU processing (paper Section 4.1)."""
        self.pages_read += 1
        yield self.data_disk_for(page).claim(self.page_disk_ms)
        yield self.cpu.claim(self.page_cpu_ms, PRIORITY_DATA)

    def write_page(self, page: int) -> Request:
        """Deferred data-page write (asynchronous, disk only): the claim
        on the page's data disk."""
        self.pages_written += 1
        return self.data_disk_for(page).claim(self.page_disk_ms)

    def message_cpu(self, duration: float) -> Request:
        """CPU time for sending or receiving one message: a claim at
        message priority."""
        return self.cpu.claim(duration, PRIORITY_MESSAGE)

    def __repr__(self) -> str:
        return f"<Site {self.site_id}>"
