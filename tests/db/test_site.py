"""Tests for the site resource model."""

import pytest

from repro.db.deadlock import WaitForGraph
from repro.db.pages import PageDirectory
from repro.db.site import Site
from repro.sim import Environment
from repro.sim.resources import InfiniteServer, PriorityResource, Resource


@pytest.fixture
def env():
    return Environment()


def make_site(env, **overrides):
    defaults = dict(num_cpus=1, num_data_disks=2, num_log_disks=1,
                    page_cpu_ms=5.0, page_disk_ms=20.0)
    defaults.update(overrides)
    directory = PageDirectory(db_size=160, num_sites=2, num_data_disks=2)
    wfg = WaitForGraph(on_victim=lambda txn: None)
    return Site(env, 0, directory, wfg, **defaults)


def test_read_page_costs_disk_then_cpu(env):
    site = make_site(env)
    times = []

    def reader(env):
        yield from site.read_page(0)
        times.append(env.now)

    env.process(reader(env))
    env.run()
    assert times == [25.0]  # 20ms disk + 5ms cpu
    assert site.pages_read == 1


def test_write_page_costs_disk_only(env):
    site = make_site(env)
    times = []

    def writer(env):
        yield site.write_page(0)
        times.append(env.now)

    env.process(writer(env))
    env.run()
    assert times == [20.0]
    assert site.pages_written == 1


def test_pages_map_to_distinct_disks(env):
    site = make_site(env)
    # Site 0 of 2 sites holds pages 0, 2, 4, 6...; its 2 disks alternate.
    assert site.data_disk_for(0) is site.data_disks[0]
    assert site.data_disk_for(2) is site.data_disks[1]
    assert site.data_disk_for(4) is site.data_disks[0]


def test_reads_on_different_disks_parallel(env):
    site = make_site(env)
    times = []

    def reader(env, page):
        yield from site.read_page(page)
        times.append(env.now)

    env.process(reader(env, 0))   # disk 0
    env.process(reader(env, 2))   # disk 1
    env.run()
    # Disk reads overlap; the single CPU serializes the 5ms processing.
    assert sorted(times) == [25.0, 30.0]


def test_reads_on_same_disk_serialize(env):
    site = make_site(env)
    times = []

    def reader(env, page):
        yield from site.read_page(page)
        times.append(env.now)

    env.process(reader(env, 0))
    env.process(reader(env, 4))   # same disk 0
    env.run()
    assert sorted(times) == [25.0, 45.0]


def test_message_cpu_preempts_queued_data_work(env):
    site = make_site(env)
    order = []

    def data_job(env, tag):
        yield site.cpu.claim(5.0)
        order.append(tag)

    def message(env):
        yield env.timeout(1.0)
        yield site.message_cpu(5.0)
        order.append("msg")

    env.process(data_job(env, "d1"))
    env.process(data_job(env, "d2"))
    env.process(message(env))
    env.run()
    assert order == ["d1", "msg", "d2"]


def test_infinite_resources_site(env):
    site = make_site(env, infinite_resources=True)
    assert isinstance(site.cpu, InfiniteServer)
    times = []

    def reader(env, page):
        yield from site.read_page(page)
        times.append(env.now)

    for _ in range(5):
        env.process(reader(env, 0))
    env.run()
    assert times == [25.0] * 5  # no queueing anywhere


def test_finite_resources_types(env):
    site = make_site(env)
    assert isinstance(site.cpu, PriorityResource)
    assert all(isinstance(d, Resource) for d in site.data_disks)


def test_multi_cpu_site(env):
    site = make_site(env, num_cpus=2)
    assert site.cpu.capacity == 2
    times = []

    def job(env):
        yield site.cpu.claim(10.0)
        times.append(env.now)

    env.process(job(env))
    env.process(job(env))
    env.run()
    assert times == [10.0, 10.0]


def test_log_manager_attached_with_page_disk_cost(env):
    site = make_site(env, page_disk_ms=30.0)
    assert site.log_manager.write_time_ms == 30.0
