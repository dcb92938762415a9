"""The master-stall blocking analysis (paper Section 2.4, extension X1):
the ``blocking`` preset of :mod:`repro.experiments.grid` over the
``master_stall`` fault-plan directive."""

import pytest

from repro.config import ModelParams
from repro.experiments import run_preset

pytestmark = pytest.mark.faults


def stalled(protocol, outage_ms, **settings):
    """One protocol's readings under one master stall."""
    results = run_preset("blocking", protocols=(protocol,),
                         outages=(outage_ms,), **settings)
    return results.point(protocol=protocol, outage_ms=outage_ms)


@pytest.fixture(scope="module")
def results():
    return run_preset("blocking", protocols=("2PC", "3PC"),
                      outages=(10_000.0,), transactions=200)


def _point(results, protocol):
    return results.point(protocol=protocol, outage_ms=10_000.0)


class TestCrashScenarios:
    def test_blocking_protocol_blocks_for_the_whole_outage(self, results):
        unblock = _point(results, "2PC")["unblock_ms"]
        # Cohorts unblock only when the master resumes: latency ~ stall.
        assert 10_000.0 <= unblock < 12_000.0

    def test_3pc_termination_unblocks_quickly(self, results):
        assert _point(results, "3PC")["unblock_ms"] < 2_000.0, (
            "the termination protocol must release locks long before "
            "the master resumes")

    def test_nonblocking_sustains_throughput_through_outage(self, results):
        assert (_point(results, "3PC")["throughput_during"]
                > 2.0 * _point(results, "2PC")["throughput_during"])

    def test_all_target_cohorts_eventually_release(self, results):
        for point in results.points.values():
            assert point["target_releases"] == 3  # dist_degree


class TestScenarioMechanics:
    def test_pa_and_pc_also_block(self):
        for protocol in ("PA", "PC"):
            point = stalled(protocol, 5_000.0, transactions=150)
            assert point["unblock_ms"] >= 5_000.0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_preset("blocking", protocols=("NOPE",))

    def test_target_never_reached_raises(self):
        with pytest.raises(RuntimeError, match="never reached"):
            run_preset("blocking", protocols=("2PC",),
                       target_txn_id=10_000, transactions=30)

    def test_custom_params(self):
        params = ModelParams(num_sites=4, db_size=2000, dist_degree=2,
                             cohort_size=3)
        point = stalled("2PC", 3_000.0, params=params, mpl=2,
                        target_txn_id=15, transactions=100)
        assert point["target_releases"] == 2
        assert point["unblock_ms"] >= 3_000.0

    def test_report_summary_format(self, results):
        text = results.summary()
        assert "2PC" in text and "blocked" in text
