"""``scripts/bench_trajectory.py --compare``: perfbench record deltas."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "bench_trajectory.py")


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(path, trajectory, rate=700.0, events=127.11, util=0.42,
                 digests=("d0", "d1", "d2")):
    """A full-run record with the same two runs for every workload."""
    runs = {
        "end_to_end": {"metrics": {"txn_per_ref_s": rate, "setup_s": 0.2,
                                   "peak_rss_mb": 34.0},
                       "digests": list(digests), "correct": True,
                       "attempted": 5, "failed": 0},
        "per_layer": {"metrics": {"kernel.events_per_commit": events,
                                  "kernel.self_us_per_commit": 600.0,
                                  "resources.util_cpu": util},
                      "digests": ["t0", "t1"], "correct": True,
                      "attempted": 2, "failed": 0},
    }
    workloads = {name: runs for name in trajectory.PERFBENCH_WORKLOADS}
    path.write_text(json.dumps({"perfbench": {
        "seed": 1, "seconds": 20, "workloads": workloads}}))
    return str(path)


def test_equal_counts_and_digests_pass(trajectory, tmp_path, capsys):
    before = write_record(tmp_path / "a.json", trajectory)
    # More repetitions ran in the faster record: only the common ones
    # are compared.
    after = write_record(tmp_path / "b.json", trajectory, rate=770.0,
                         digests=("d0", "d1", "d2", "d3"))
    assert trajectory.compare_reports(before, after) == 0
    out = capsys.readouterr().out
    assert "txn_per_ref_s" in out and "+10.0%" in out
    assert "differs" not in out


def test_a_differing_count_fails(trajectory, tmp_path, capsys):
    before = write_record(tmp_path / "a.json", trajectory)
    after = write_record(tmp_path / "b.json", trajectory, events=127.12,
                         util=0.5)
    assert trajectory.compare_reports(before, after) == 1
    out = capsys.readouterr().out
    assert ("differs: closed-rcdc kernel.events_per_commit (count): "
            "127.11 -> 127.12") in out
    # A metric in any other unit may move.
    assert "util_cpu" in out and "differs: closed-rcdc resources" not in out


def test_a_differing_digest_fails(trajectory, tmp_path, capsys):
    before = write_record(tmp_path / "a.json", trajectory)
    after = write_record(tmp_path / "b.json", trajectory,
                         digests=("d0", "x1"))
    assert trajectory.compare_reports(before, after) == 1
    out = capsys.readouterr().out
    assert ("differs: faulted-paxos end_to_end digest of repetition 1: "
            "d1 -> x1") in out


def test_a_record_without_perfbench_is_an_error(trajectory, tmp_path):
    before = write_record(tmp_path / "a.json", trajectory)
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"schema": 2, "kernel_micro": {}}))
    assert trajectory.compare_reports(str(old), before) == 2


def test_every_traced_seed_both_records_hold_is_checked(trajectory,
                                                        tmp_path, capsys):
    before = write_record(tmp_path / "a.json", trajectory)
    record = json.loads(pathlib.Path(before).read_text())["perfbench"]
    traced = record["workloads"]["closed-rcdc"]["per_layer"]
    seeds = {}
    for seed in ("1", "2", "3"):
        seeds[seed] = json.loads(json.dumps(traced))
    seeds["3"]["digests"] = ["t0", "x1"]
    for runs in record["workloads"].values():
        runs["per_layer"] = seeds
    record["traced_seeds"] = [1, 2, 3]
    after = tmp_path / "b.json"
    after.write_text(json.dumps({"perfbench": record}))
    # The one-seed record shares seed 1 with the new one: equal.
    assert trajectory.compare_reports(before, str(after)) == 0
    assert trajectory.compare_reports(str(after), str(after)) == 0
    seeds["3"]["digests"] = ["t0", "t1"]
    seeds["2"]["metrics"]["kernel.events_per_commit"] = 127.5
    changed = tmp_path / "c.json"
    changed.write_text(json.dumps({"perfbench": record}))
    capsys.readouterr()
    assert trajectory.compare_reports(str(after), str(changed)) == 1
    out = capsys.readouterr().out
    assert ("differs: sweep-puredc per_layer seed 3 digest of repetition "
            "1: x1 -> t1") in out
    assert ("differs: open-wan-soak kernel.events_per_commit (count): "
            "127.11 -> 127.5") in out
