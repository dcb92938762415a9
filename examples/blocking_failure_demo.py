#!/usr/bin/env python3
"""What "blocking" means in milliseconds (beyond the paper's scope).

Usage::

    python examples/blocking_failure_demo.py [--outage-ms 20000]

The paper's Section 2.4 explains *why* blocking protocols are dangerous:
a master that fails between the voting and decision phases strands its
prepared cohorts, whose retained update locks strand everyone queueing
behind them ("cascading blocking").  The paper measures no-failure
performance; this demo injects exactly that failure -- the
``master_stall`` fault-plan directive, run as the ``blocking`` preset --
and measures the damage: the argument for OPT-3PC's "win-win" made
quantitative.
"""

import argparse

from repro.experiments import run_preset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outage-ms", type=float, default=20_000.0,
                        help="how long the stalled master stays silent")
    parser.add_argument("--transactions", type=int, default=400)
    args = parser.parse_args()

    print(f"One transaction's master goes silent mid-commit for "
          f"{args.outage_ms / 1000:.0f}s.\n")
    print(run_preset("blocking", outages=(args.outage_ms,),
                     transactions=args.transactions).summary())

    print(
        "\nReading the results: under the blocking protocols the "
        "prepared cohorts'\nupdate locks stay held for the entire "
        "stall, and throughput drops as\nother transactions pile "
        "up behind them.  3PC's termination protocol lets\nthe "
        "cohorts decide among themselves within the decision "
        "timeout,\nso the stall barely registers.  Combine this with "
        "Figure 4's result --\nOPT-3PC matches or beats 2PC's "
        "throughput -- and the paper's 'win-win'\nrecommendation "
        "follows: non-blocking safety no longer costs performance.")


if __name__ == "__main__":
    main()
