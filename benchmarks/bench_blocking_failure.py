"""Blocking-analysis benchmark (extension; see DESIGN.md section 6).

Stalls one transaction's master just before its COMMIT force (the
``master_stall`` fault-plan directive, run as the ``blocking`` preset)
and measures the cohorts' lock-holding time and the system's throughput
during the stall, for each blocking protocol and for 3PC with its
termination protocol.  Quantifies the paper's Section 2.4 argument.
"""

import pytest

from repro.experiments import run_preset

OUTAGE_MS = 15_000.0


@pytest.mark.benchmark(group="blocking")
def test_blocking_vs_nonblocking_under_master_crash(benchmark):
    def run_all():
        return run_preset("blocking", outages=(OUTAGE_MS,),
                          transactions=300)

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(results.summary())
    point = {protocol: results.point(protocol=protocol, outage_ms=OUTAGE_MS)
             for protocol in ("2PC", "PA", "PC", "3PC")}

    for protocol in ("2PC", "PA", "PC"):
        assert point[protocol]["unblock_ms"] >= OUTAGE_MS, (
            f"{protocol} is a blocking protocol: cohorts must hold "
            "locks until the master resumes")
    assert point["3PC"]["unblock_ms"] < OUTAGE_MS / 10, (
        "3PC's termination protocol must unblock within the timeout")
    # The stall must visibly hurt blocking protocols' throughput.
    assert (point["3PC"]["throughput_during"]
            > 1.5 * point["2PC"]["throughput_during"])
