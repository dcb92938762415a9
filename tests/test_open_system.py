"""Open-system workload tests (ISSUE PR 5 tentpole).

Contracts pinned here:

1. **Closed mode is untouched** -- ``WorkloadMode.CLOSED`` (the default)
   produces the exact historical :class:`SimulationResult` (no open
   fields, byte-identical dict shape), and uniform skew takes the
   historical sampling path (the golden fixture in
   ``tests/test_equivalence.py`` pins the trajectories themselves).
2. **Determinism** -- the same seed reproduces the same open-mode
   report and the same arrival/shed/dequeue event stream; arrival
   timing draws come from dedicated per-site substreams.
3. **Queueing behaviour** -- offered = carried + shed + still-queued
   accounting holds; overload sheds; percentiles are ordered.
4. **Skew** -- hot-spot and Zipf sampling concentrate accesses, return
   distinct in-range pages, and parse from the CLI syntax.
"""

import dataclasses

import pytest

import repro
from repro.config import ModelParams, WorkloadMode, open_system
from repro.db.pages import PageDirectory
from repro.db.system import OpenSimulationResult, SimulationResult
from repro.db.workload import AccessSkew, SkewKind, WorkloadGenerator
from repro.obs import EventLog
from repro.obs.events import EventKind, event_to_dict
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.sim.stats import PercentileSample


def open_run(protocol="2PC", rate=1.0, transactions=120, seed=7,
             log_kinds=None, **overrides):
    """One open-mode run; returns (result, event log)."""
    log = EventLog(kinds=log_kinds)
    result = repro.simulate(
        protocol, open_system(arrival_rate_tps=rate, **overrides),
        measured_transactions=transactions, seed=seed,
        on_system=lambda s: log.attach(s.bus))
    return result, log


OPEN_KINDS = (EventKind.TXN_ARRIVE, EventKind.TXN_SHED,
              EventKind.TXN_DEQUEUE, EventKind.TXN_COMMIT)


# ----------------------------------------------------------------------
# Closed mode stays the historical model
# ----------------------------------------------------------------------
class TestClosedModeUnchanged:
    def test_closed_result_type_and_shape(self):
        result = repro.simulate("2PC", measured_transactions=40, mpl=2)
        assert type(result) is SimulationResult
        assert "offered" not in dataclasses.asdict(result)

    def test_no_open_events_in_closed_mode(self):
        log = EventLog(kinds=(EventKind.TXN_ARRIVE, EventKind.TXN_SHED,
                              EventKind.TXN_DEQUEUE))
        repro.simulate("2PC", measured_transactions=40, mpl=2,
                       on_system=lambda s: log.attach(s.bus))
        assert not log.events

    def test_explicit_closed_equals_default(self):
        base = repro.simulate("OPT", measured_transactions=40, mpl=2)
        explicit = repro.simulate("OPT", measured_transactions=40, mpl=2,
                                  workload_mode=WorkloadMode.CLOSED)
        assert dataclasses.asdict(base) == dataclasses.asdict(explicit)

    def test_uniform_skew_object_is_the_closed_path(self):
        # An explicit uniform AccessSkew must not perturb trajectories.
        base = repro.simulate("2PC", measured_transactions=40, mpl=2)
        skewed = repro.simulate("2PC", measured_transactions=40, mpl=2,
                                skew=AccessSkew())
        assert dataclasses.asdict(base) == dataclasses.asdict(skewed)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestOpenDeterminism:
    def test_same_seed_identical_report_and_event_stream(self):
        first, first_log = open_run(log_kinds=OPEN_KINDS)
        second, second_log = open_run(log_kinds=OPEN_KINDS)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert ([event_to_dict(e) for e in first_log.events]
                == [event_to_dict(e) for e in second_log.events])

    def test_different_seed_diverges(self):
        first, _ = open_run(seed=7)
        second, _ = open_run(seed=8)
        assert dataclasses.asdict(first) != dataclasses.asdict(second)

    def test_skewed_open_run_reproducible(self):
        skew = AccessSkew.parse("hotspot:10:90")
        first, _ = open_run(rate=1.5, skew=skew)
        second, _ = open_run(rate=1.5, skew=skew)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_saturation_sweep_reproducible(self):
        from repro.experiments import run_preset

        def run():
            results = run_preset("saturation", protocols=("2PC", "OPT"),
                                 rates=(1.0, 2.0), transactions=60, seed=3)
            return {key: dataclasses.asdict(point.result)
                    for key, point in results.points.items()}

        assert run() == run()


# ----------------------------------------------------------------------
# Queueing behaviour
# ----------------------------------------------------------------------
class TestOpenQueueing:
    def test_result_type_and_basic_fields(self):
        result, _ = open_run()
        assert isinstance(result, OpenSimulationResult)
        assert result.arrival_rate_tps == 1.0
        assert result.offered > 0
        assert result.committed >= 120
        assert result.throughput > 0

    def test_light_load_sheds_nothing(self):
        result, _ = open_run(rate=0.5)
        assert result.shed == 0
        assert result.shed_ratio == 0.0

    def test_overload_sheds_and_reports_queue_waits(self):
        # ~8x the per-site service ceiling with tiny queues: shedding
        # is unavoidable and queue waits are nonzero.
        result, _ = open_run(rate=12.0, transactions=150,
                             admission_queue_limit=8)
        assert result.shed > 0
        assert 0.0 < result.shed_ratio < 1.0
        assert result.queue_wait_mean_ms > 0.0
        assert result.mean_queue_length > 0.0

    def test_offered_accounting_is_consistent(self):
        result, log = open_run(rate=12.0, transactions=150,
                               admission_queue_limit=8,
                               log_kinds=OPEN_KINDS)
        arrives = [e for e in log.events
                   if e.kind is EventKind.TXN_ARRIVE]
        sheds = [e for e in log.events if e.kind is EventKind.TXN_SHED]
        # Events accumulate over warmup too; the report counts the
        # measured period only -- so event counts bound report counts.
        assert len(arrives) >= result.offered
        assert len(sheds) >= result.shed
        assert sum(1 for e in arrives if not e.admitted) == len(sheds)

    def test_percentiles_are_ordered(self):
        result, _ = open_run(rate=1.5, transactions=200)
        assert (0.0 < result.response_p50_ms <= result.response_p95_ms
                <= result.response_p99_ms)
        assert result.response_time_ms > 0.0

    def test_queue_wait_included_in_response(self):
        # Deep overload: mean response must exceed mean queue wait.
        result, _ = open_run(rate=12.0, transactions=150,
                             admission_queue_limit=8)
        assert result.response_time_ms > result.queue_wait_mean_ms

    def test_dequeue_wait_matches_arrival_to_start(self):
        _, log = open_run(log_kinds=(EventKind.TXN_DEQUEUE,))
        assert log.events
        for event in log.events:
            assert event.wait_ms >= 0.0


# ----------------------------------------------------------------------
# The bounded admission queue itself
# ----------------------------------------------------------------------
class TestBoundedAdmissionQueue:
    def make(self, limit=2):
        from repro.admission import BoundedAdmissionQueue
        return Environment(), BoundedAdmissionQueue

    def test_rejects_when_full(self):
        env, cls = self.make()
        queue = cls(env, limit=2)
        assert queue.offer("a") and queue.offer("b")
        assert queue.full
        assert not queue.offer("c")
        assert queue.offered == 3
        assert queue.shed == 1
        assert queue.admitted == 2

    def test_limit_must_be_positive(self):
        env, cls = self.make()
        with pytest.raises(ValueError, match="queue limit"):
            cls(env, limit=0)

    def test_fifo_handoff_to_waiting_getter(self):
        env, cls = self.make()
        queue = cls(env, limit=1)
        got = []

        def consumer():
            item = yield queue.get()
            got.append(item)

        env.process(consumer())
        env.run()
        assert not got  # parked: queue empty
        assert queue.offer("x")  # direct handoff, skips the buffer
        env.run()
        assert got == ["x"]
        assert len(queue) == 0


# ----------------------------------------------------------------------
# Access skew
# ----------------------------------------------------------------------
class TestAccessSkew:
    def test_parse_syntax(self):
        assert AccessSkew.parse("uniform").is_uniform
        hot = AccessSkew.parse("hotspot:10:90")
        assert hot.kind is SkewKind.HOTSPOT
        assert hot.hot_page_frac == pytest.approx(0.10)
        assert hot.hot_access_frac == pytest.approx(0.90)
        zipf = AccessSkew.parse("zipf:0.8")
        assert zipf.kind is SkewKind.ZIPF
        assert zipf.zipf_theta == pytest.approx(0.8)

    @pytest.mark.parametrize("bad", [
        "wat", "hotspot:0:90", "hotspot:100:90", "hotspot:10",
        "zipf:0", "zipf:-1", "zipf", "hotspot:a:b",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            AccessSkew.parse(bad)

    def generator(self, skew):
        params = ModelParams(skew=skew)
        directory = PageDirectory(params.db_size, params.num_sites,
                                  params.num_data_disks)
        return params, WorkloadGenerator(params, directory,
                                         RandomStreams(11))

    def sample_fractions(self, skew, draws=400):
        """Fraction of accesses landing in the hottest 10% of slots."""
        params, generator = self.generator(skew)
        pages_per_site = params.pages_per_site
        hot_cut = round(pages_per_site * 0.10)
        total = hot = 0
        for _ in range(draws):
            spec = generator.generate(0)
            for access in spec.accesses:
                site_pages = generator.directory.pages_at(access.site_id)
                for page in access.pages:
                    slot = site_pages.index(page)
                    total += 1
                    if slot < hot_cut:
                        hot += 1
        return hot / total

    def test_hotspot_concentrates_accesses(self):
        uniform_frac = self.sample_fractions(AccessSkew())
        hot_frac = self.sample_fractions(AccessSkew.parse("hotspot:10:90"))
        assert uniform_frac == pytest.approx(0.10, abs=0.03)
        assert hot_frac == pytest.approx(0.90, abs=0.05)

    def test_zipf_is_skewed_toward_low_slots(self):
        uniform_frac = self.sample_fractions(AccessSkew())
        zipf_frac = self.sample_fractions(AccessSkew.parse("zipf:0.9"))
        assert zipf_frac > 2 * uniform_frac

    def test_accesses_stay_distinct_and_in_range(self):
        for spec_text in ("hotspot:10:90", "zipf:0.8"):
            params, generator = self.generator(AccessSkew.parse(spec_text))
            for _ in range(50):
                spec = generator.generate(0)
                for access in spec.accesses:
                    assert len(set(access.pages)) == len(access.pages)
                    site_pages = set(
                        generator.directory.pages_at(access.site_id))
                    assert site_pages.issuperset(access.pages)

    def test_hotspot_survives_exhausted_hot_set(self):
        # 9 distinct pages may exceed the hot set (600 * 0.01 = 6):
        # draws redirect to the cold region instead of looping forever.
        skew = AccessSkew(kind=SkewKind.HOTSPOT, hot_page_frac=0.01,
                          hot_access_frac=0.99)
        _, generator = self.generator(skew)
        for _ in range(50):
            spec = generator.generate(0)
            for access in spec.accesses:
                assert len(set(access.pages)) == len(access.pages)

    def test_closed_mode_accepts_skew(self):
        result = repro.simulate("2PC", measured_transactions=40, mpl=2,
                                skew=AccessSkew.parse("hotspot:10:90"))
        assert type(result) is SimulationResult
        assert result.committed >= 40


# ----------------------------------------------------------------------
# Percentile accumulator
# ----------------------------------------------------------------------
class TestPercentileSample:
    def test_empty_returns_zero(self):
        assert PercentileSample().percentile(0.5) == 0.0

    def test_single_value(self):
        sample = PercentileSample()
        sample.add(42.0)
        assert sample.percentile(0.0) == 42.0
        assert sample.percentile(1.0) == 42.0

    def test_interpolation(self):
        sample = PercentileSample()
        for value in (10.0, 20.0, 30.0, 40.0):
            sample.add(value)
        assert sample.percentile(0.5) == pytest.approx(25.0)
        assert sample.percentile(0.0) == 10.0
        assert sample.percentile(1.0) == 40.0

    def test_insertion_order_irrelevant(self):
        a, b = PercentileSample(), PercentileSample()
        for value in (5.0, 1.0, 3.0):
            a.add(value)
        for value in (1.0, 3.0, 5.0):
            b.add(value)
        assert a.percentile(0.5) == b.percentile(0.5) == 3.0

    def test_rejects_bad_p(self):
        sample = PercentileSample()
        with pytest.raises(ValueError):
            sample.percentile(1.5)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestOpenCli:
    def run_cli(self, *argv):
        import io

        from repro.cli import main
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_simulate_open(self):
        code, text = self.run_cli(
            "simulate", "2PC", "--open", "--arrival-rate", "1.0",
            "--skew", "hotspot:10:90", "--transactions", "40")
        assert code == 0
        assert "open system:" in text
        assert "shed" in text

    def test_arrival_rate_without_open_is_an_error(self):
        code, text = self.run_cli("simulate", "2PC", "--arrival-rate",
                                  "2.0", "--transactions", "10")
        assert code == 2
        assert "requires --open" in text

    def test_saturation_subcommand(self):
        code, text = self.run_cli(
            "saturation", "--protocols", "2PC,OPT", "--rates", "0.5,1.5",
            "--transactions", "40", "--quiet")
        assert code == 0
        assert "saturation" in text
        assert "2PC" in text and "OPT" in text
