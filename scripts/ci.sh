#!/usr/bin/env bash
# CI entry point: tier-1 tests, tier-2 (slow sweep) tests, and the
# benchmark smoke gate so kernel perf regressions fail loudly.
#
#   scripts/ci.sh              # everything
#   CI_SKIP_TIER2=1 scripts/ci.sh   # quick loop: tier-1 + bench smoke only
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: fast test suite =="
python -m pytest -x -q -m "not tier2"

echo "== fault smoke: injection subsystem lane =="
python -m pytest -q -m faults

# One cheap region-outage point end-to-end through the CLI: a DC crash
# on a 2x2-DC grid must finish (no hangs in recovery/termination) and
# exit 0 with both protocols committing every transaction.
echo "== region-outage smoke (correlated-failure plane) =="
python -m repro.cli region-outage --protocols 2PC,3PC \
    --outages dc_crash --durations 1500 --transactions 40 --quiet

# One cheap replication point end-to-end through the CLI: quorum
# commit (PAXOS) racing 2PC over replicated pages must finish with
# every transaction carried at both replication factors.
echo "== replication smoke (quorum commit over replicated pages) =="
python -m repro.cli replication --protocols 2PC,PAXOS --factors 1,2 \
    --mttfs 0 --transactions 30 --quiet

# The fault flags are sugar for fault-plan directives: the same faults
# written both ways must print the same stdout.
echo "== fault flags == fault plan (simulate stdout) =="
fault_dir="$(mktemp -d)"
python -m repro.cli simulate 3PC --mpl 3 --transactions 150 --seed 1 \
    --faults --mttf-ms 25000 --mttr-ms 2000 --msg-loss 0.02 \
    --msg-delay-ms 3 > "$fault_dir/flags"
python -m repro.cli simulate 3PC --mpl 3 --transactions 150 --seed 1 \
    --fault-plan "site_crash:*:mttf=25000:mttr=2000,loss:0.02,delay:3" \
    > "$fault_dir/plan"
diff "$fault_dir/flags" "$fault_dir/plan"
rm -r "$fault_dir"

# Serial equals parallel at the CLI: the same stdout at --jobs 1 and
# --jobs 2, minus the wall-time line.  Tier-2 checks the library at more
# workers; this check runs on every change.
echo "== serial vs parallel CLI stdout (--jobs 1 == --jobs 2) =="
same_stdout_at_jobs_1_and_2() {
    local jobs dir
    dir="$(mktemp -d)"
    for jobs in 1 2; do
        python -m repro.cli "$@" --jobs "$jobs" \
            | grep -v '^(completed in' > "$dir/$jobs"
    done
    diff "$dir/1" "$dir/2"
    rm -r "$dir"
}
same_stdout_at_jobs_1_and_2 run E7 --mpls 1,2 --transactions 20 \
    --replications 2 --quiet
same_stdout_at_jobs_1_and_2 tables --transactions 30

if [ "${CI_SKIP_TIER2:-0}" != "1" ]; then
    echo "== tier-2: slow sweep / parallel determinism tests =="
    python -m pytest -q -m tier2
fi

# A killed-then-resumed soak must reproduce the identical windowed
# JSONL stream (checkpoint/restore byte-identity, incl. torn-tail
# recovery).
echo "== soak-resume check (checkpoint byte-identity) =="
python scripts/soak_resume_check.py

# Perf floors: kernel micros, end-to-end txn rate, idle-bus/fault
# overhead ceilings, the LanSwitch cost-model indirection ceiling
# (uniform topology vs the no-topology hot path), the
# inactive-partition-plane ceiling (far-future region plan vs the
# armed-injector baseline), the inactive-replication ceiling
# (factor 1 vs the historical directory) -- all three smoke-gated at
# 1.10x for shared-runner jitter, ~1.00x on the full bench -- plus the
# WAN-point floor, the flat-RSS soak-memory ceiling, and the
# warm-pool sweep-scaling floor (speedup_vs_serial["4"] >= 1.5 --
# auto-skipped on < 4-core runners).
echo "== benchmark smoke (perf floors) =="
python scripts/bench_trajectory.py --smoke

echo "ci.sh: all stages passed"
