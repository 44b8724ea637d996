"""Compare two shieldbench result files, metric by metric.

``compare.py A.json B.json`` prints, for every (workload, end-to-end
metric), both medians, how much worse B is than A as a share of A, the
metric's bound, the run-to-run spread, and a verdict:

``ok``          B is within the bound of A
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  the spread between a side's own runs exceeds the bound,
                and the sides' runs overlap — the data cannot tell

Exit status is non-zero on ``worse`` or ``unresolved``.  With ``--same``
(both files measure one commit: the benchmark's own repeatability check)
``better`` is a disagreement too, and the metrics that must repeat
exactly for a seed are required to be identical.

The spread of a side is the distance between the first and third
quartile of its runs over their median (``statistics.quantiles``, n=4);
with fewer than four runs it is (max - min) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src"))

# Per-layer figures that repeat exactly for a seed (on the workloads
# that report them): counts and simulated cycles, never host time.
EXACT = (
    "sim.ops_per_s",
    "sim.stored_bytes_per_user_byte",
    "sim.cycles_per_op",
    "sim.mem_accesses_per_op",
    "sim.epc_faults_per_op",
    "sim.crypto_cycles_per_op",
    "sim.crossing_cycles_per_op",
    "core.store.chain_steps_per_op",
    "core.wal.bytes_per_user_byte",
)


def spread(values) -> float:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(a, b, better: str, bound: float):
    """(share by which B is worse than A, spread, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
    wide = max(spread(a), spread(b))
    if better == "lower":
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    else:
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    if wide > bound and not (b_all_better or b_all_worse):
        return worse_by, wide, "unresolved"
    if worse_by > bound:
        return worse_by, wide, "worse"
    if worse_by < -bound:
        return worse_by, wide, "better"
    return worse_by, wide, "ok"


def main() -> int:
    import metrics

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--same", action="store_true",
                        help="both files measure the same commit")
    args = parser.parse_args()
    with open(args.a) as fh:
        a = json.load(fh)
    with open(args.b) as fh:
        b = json.load(fh)
    disagreements = 0
    print(f"A: {args.a}  commit {a['env']['commit']} seed {a['env']['seed']}")
    print(f"B: {args.b}  commit {b['env']['commit']} seed {b['env']['seed']}")
    print(f"{'workload':12s} {'metric':22s} {'A':>12s} {'B':>12s} "
          f"{'B worse by':>10s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in metrics.SCENARIOS:
        side_a = a["workloads"][workload]
        side_b = b["workloads"][workload]
        for name, _unit, better, bound in metrics.END_TO_END:
            va, vb = side_a["end_to_end"][name], side_b["end_to_end"][name]
            worse_by, wide, word = verdict(va, vb, better, bound)
            if word in ("worse", "unresolved") or (args.same and word == "better"):
                disagreements += 1
                word += "  <--"
            print(f"{workload:12s} {name:22s} {statistics.median(va):12.3f} "
                  f"{statistics.median(vb):12.3f} {worse_by:+10.1%} {bound:6.0%} "
                  f"{wide:7.1%}  {word}")
        if args.same:
            for name in EXACT:
                xa = side_a["per_layer"].get(name)
                xb = side_b["per_layer"].get(name)
                if xa is None or xb is None:
                    continue
                if xa != xb:
                    disagreements += 1
                    print(f"{workload:12s} {name:22s} {xa!r} != {xb!r}  not exact  <--")
                elif xa:
                    print(f"{workload:12s} {name:34s} {xa!r}  exact")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
