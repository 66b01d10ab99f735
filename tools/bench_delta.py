#!/usr/bin/env python3
"""Compare a bench_microperf JSON report against the committed baseline.

Usage: bench_delta.py [--max-regression PCT] BASELINE_JSON CURRENT_JSON

Prints a per-metric table of baseline vs current events/sec with the relative
delta, and flags determinism-checksum drift (a checksum change means the
simulation executed different work, not just at a different speed — that is a
correctness signal, not a performance one).

Exit status is nonzero for malformed input, checksum drift, or any metric
falling more than --max-regression percent below its baseline (default 20 —
generous because CI shared runners have noisy clocks, but tight enough to
catch a real algorithmic regression, which shows up as 2x, not 5%).
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "metrics" not in doc:
        raise SystemExit(f"{path}: not a bench_microperf report (no 'metrics')")
    return doc


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=20.0,
        metavar="PCT",
        help="fail if any metric drops more than PCT%% below baseline "
        "(default: %(default)s; pass a negative value to disable)",
    )
    args = parser.parse_args(argv[1:])
    base, cur = load(args.baseline), load(args.current)

    regressed = []
    print(f"{'metric':<36} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(set(base["metrics"]) | set(cur["metrics"])):
        b = base["metrics"].get(name)
        c = cur["metrics"].get(name)
        if b is None or c is None:
            print(f"{name:<36} {'-' if b is None else f'{b:12.1f}'}"
                  f" {'-' if c is None else f'{c:12.1f}'}   (new/removed)")
            continue
        delta = (c - b) / b * 100.0 if b else 0.0
        # One decimal, as stored: the ratio metrics sit near 1.
        print(f"{name:<36} {b:12.1f} {c:12.1f} {delta:+7.1f}%")
        if args.max_regression >= 0.0 and delta < -args.max_regression:
            regressed.append(f"{name}: {delta:+.1f}% (limit -{args.max_regression:.0f}%)")

    failed = False
    drift = []
    for name, want in base.get("checksums", {}).items():
        got = cur.get("checksums", {}).get(name)
        if got is not None and got != want:
            drift.append(f"{name}: baseline {want} != current {got}")
    if drift:
        print("\nDETERMINISM CHECKSUM DRIFT (simulated work changed):")
        for line in drift:
            print(f"  {line}")
        failed = True
    else:
        print("\nchecksums match: simulated work is identical to the baseline")

    if regressed:
        print("\nPERFORMANCE REGRESSION beyond the allowed envelope:")
        for line in regressed:
            print(f"  {line}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
