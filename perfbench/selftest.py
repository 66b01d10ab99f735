#!/usr/bin/env python3
"""Planted-slowdown self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [--delay-ms MS]

Runs rack16 traced on one cluster seed, once plainly and once with a fixed
sleep planted in the runner's own wrapper around one layer call (runner.cpp
--plant; no program code changes), and checks that the slowdown shows in
that layer's row and in the end-to-end metric the layer feeds, and nowhere
else:

  plant cluster.ClusterSim -> cluster.build_s and setup_s move
  plant cluster.report     -> stats.report_s and wall_s move (cpu_s does not:
                              the plant sleeps)

A row "moves" when it grows by at least half the planted time per
repetition; every other time row must move by less than that, and every
count must stay exactly equal. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

# Planted span -> (rows that must move, calls of that span per repetition).
PLANTS = {
    "cluster.ClusterSim": ({"cluster.build_s", "setup_s"}, 2),
    "cluster.report": ({"stats.report_s", "wall_s"}, 2),
}


def measure(exe: Path, seed: int, seconds: float, plant: str | None) -> tuple[dict, dict]:
    # One cluster seed (both policies) instead of rack16's pair
    # keeps a repetition short, so the planted time stands out of the noise.
    doc = run.run_workload(exe, "rack16", seconds, True, (seed,), plant)
    chk, _ = run.check(doc, run.load_reference())
    if chk.failed:
        run.fail(f"outputs failed their check under plant {plant}: {chk.failed}")
    e2e = run.end_to_end(doc)
    layers, _ = run.per_layer(doc)
    units = dict(run.END_TO_END + run.PER_LAYER)
    return {**e2e, **layers}, units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="a cluster seed of reference.json")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--delay-ms", type=float, default=1000.0)
    args = parser.parse_args()

    exe = run.build()
    base, units = measure(exe, args.seed, args.seconds, None)
    ok = True
    for span, (expect, calls) in PLANTS.items():
        planted, _ = measure(exe, args.seed, args.seconds, f"{span}:{args.delay_ms:g}")
        threshold = 0.5 * calls * args.delay_ms / 1000.0
        print(f"# plant {args.delay_ms:g} ms in {span} ({calls} calls per repetition): "
              f"rows {sorted(expect)} must grow by >= {threshold:.3f} s, others less")
        others = [(abs(planted[n] - base[n]), n) for n, u in units.items()
                  if u == "s" and n not in expect and n != "trace.overhead_s"]
        print(f"  largest move of another time row: {max(others)[1]} {max(others)[0]:+.3f} s")
        for name, unit in units.items():
            delta = planted[name] - base[name]
            if name in expect:
                good = delta >= threshold
            elif unit == "s" and name != "trace.overhead_s":
                good = abs(delta) < threshold
            elif unit == "count":
                good = delta == 0
            else:
                continue  # ratios and per-op costs follow the rows above
            if not good or name in expect:
                print(f"  {'ok  ' if good else 'FAIL'} {name:28s} {base[name]:12.6g} -> "
                      f"{planted[name]:12.6g} {unit}")
            ok &= good
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
