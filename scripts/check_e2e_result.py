#!/usr/bin/env python3
"""Gates one e2ebench result: the JSON object e2ebench/run.py prints as
its last stdout line.

Usage:

    python3 e2ebench/run.py --workload W --seed 1 --seconds 3 --trace T \\
        | tail -n 1 \\
        | python3 scripts/check_e2e_result.py --workload W --trace T

Every result must report that all of its output checks passed. A traced
result is also held to its workload's per-phase ceilings (CEILINGS), so
that a slowdown inside one phase fails CI even when the run's total stays
within its bound.

Exits 0 when the result passes, 1 with a diagnostic otherwise. Uses only
the standard library.
"""

import argparse
import json
import sys

# Traced-run gates: workload -> [(metric, denominator metrics, exclusive
# ceiling)]. With denominators the gate is on the metric's ratio to their
# sum; an empty tuple gates the metric itself.
CEILINGS = {
    # The accountant adds a cached per-(sigma, q) RDP curve each step,
    # O(orders); 0.05 or more of the small LR step means the series is
    # evaluated per step again. Every stage of the step has its own span,
    # so the step's self time is loop glue only; 0.05 or more means work
    # moved outside the stage spans.
    "lr_geodp_supervised": [
        ("dp.accountant.share", (), 0.05),
        ("profile.unattributed_share", (), 0.05),
    ],
    # ToCartesian's own share of GeoDP's Perturb call (the perturb.geodp
    # subtree: ToSpherical, the noise, ToCartesian), so that a faster or
    # slower gradient pass does not move it. All three self times come
    # from the same profiled pass. Over 18 3-s runs it read 0.49-0.83,
    # median 0.82; a busy host only lowers it. A ToCartesian twice as slow
    # reads ~0.90, and while it still computed its underflowing (denormal)
    # tail (14.97 ms) it read ~0.99.
    "mlp_geodp_wide": [
        ("profile.spherical.to_cartesian.self_ms_per_step",
         ("profile.spherical.to_spherical.self_ms_per_step",
          "profile.perturb.geodp.self_ms_per_step",
          "profile.spherical.to_cartesian.self_ms_per_step"), 0.88),
    ],
}


def fail(message):
    print(f"check_e2e_result: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        result = json.loads(sys.stdin.read())
    except ValueError as error:
        fail(f"result is not JSON: {error}")
    if result.get("correct") is not True or result.get("failed") != 0:
        fail(f"output checks did not all pass: {result}")
    print("ok:", result["attempted"], "output checks passed")

    if not args.trace:
        return
    metrics = result.get("metrics", {})
    for name, denominators, ceiling in CEILINGS.get(args.workload, []):
        for metric in (name, *denominators):
            if metric not in metrics:
                fail(f"{args.workload}: metric {metric} missing from the "
                     "result")
        value = metrics[name]["value"]
        if denominators:
            total = sum(metrics[metric]["value"] for metric in denominators)
            denominator = " + ".join(denominators)
            if not total > 0:
                fail(f"{args.workload}: {denominator} is {total}")
            value /= total
            name = f"{name} / ({denominator})"
        if not value < ceiling:
            fail(f"{args.workload}: {name} {value} >= {ceiling}")
        print(f"ok: {name} {value} < {ceiling}")


if __name__ == "__main__":
    main()
