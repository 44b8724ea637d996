"""shieldbench: the one benchmark of the served ShieldStore.

Two ways to run it:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of standard
    output is one JSON object: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` — every end-to-end metric with ``--trace 0``, every
    per-layer metric with ``--trace 1``.  The line before it carries the
    sample counts and the ``env`` block.

``run.py --seed 2019 [--trace] [--runs K] [--out FILE]``
    All four workloads, each run in a fresh process; prints every metric
    by name with its unit and writes the result file ``compare.py`` reads.

Exit status is non-zero when any reply was wrong, any acknowledged write
was lost, or the program under test is not there to be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")


def env_block(seed: int) -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": seed,
    }


def pin_to_one_cpu() -> int:
    """Keep this process and everything it starts on one CPU.

    On the 2-vCPU guest a request that crosses vCPUs pays a virtualised
    wake-up (IPI plus idle exit) that doubles the server's CPU time per
    request and flips between two regimes with the host's halt polling;
    on one CPU generator, server and workers take turns, the time is the
    program's own, and the reference loop sees the same core they do.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_one(args) -> int:
    cpu = pin_to_one_cpu()
    import harness
    import metrics
    import traced

    runner = traced.run_traced if args.trace else harness.run_end_to_end
    result = runner(args.workload, args.seed, args.seconds, args.smoke)
    detail = result.pop("detail")
    detail["env"] = {**env_block(args.seed), "cpu": cpu}
    expected = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    measured = result["metrics"]
    result["metrics"] = {
        name: {"value": measured.get(name, 0.0), "unit": metrics.UNITS[name]}
        for name, *_ in expected
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _child_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run produced no result (exit {done.returncode})")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], done.returncode


def run_all(args) -> int:
    import metrics

    status = 0
    results = {"env": env_block(args.seed), "seconds": args.seconds, "workloads": {}}
    for workload in metrics.SCENARIOS:
        runs = []
        for _ in range(args.runs):
            result, detail, code = _child_run(
                workload, args.seed, args.seconds, 0, args.smoke)
            status |= code
            runs.append((result, detail))
        first, detail = runs[0]
        print(f"\n== {workload}  (seed {args.seed}, {len(runs)} run(s), "
              f"{detail['segments']} segments of {detail['n_per_segment']['requests']} "
              f"requests: {detail['n_per_segment']['reads']} reads, "
              f"{detail['n_per_segment']['writes']} writes per segment)")
        entry = {"end_to_end": {}, "per_layer": {}, "details": [d for _r, d in runs]}
        failed = sum(r["failed"] for r, _d in runs)
        attempted = sum(r["attempted"] for r, _d in runs)
        print(f"  {'failed_ratio':44s} {failed / attempted:14.6f} ratio "
              f"(failed {failed} of {attempted})")
        for name, unit, _better, bound in metrics.END_TO_END:
            values = [r["metrics"][name]["value"] for r, _d in runs]
            entry["end_to_end"][name] = values
            print(f"  {name:44s} {statistics.median(values):14.4f} {unit:6s} "
                  f"bound {bound:.2f}  n={detail['n'][name]}")
        print(f"  {'(as timed: ops_per_s, host slowdown)':44s} "
              f"{detail['raw_ops_per_s']:14.4f} 1/s    x{detail['slowdown']:.3f}")
        if detail["recovery"]:
            for key, value in detail["recovery"].items():
                print(f"  {'recovery.' + key:44s} {value:14.4f}")
        if args.trace:
            result, tdetail, code = _child_run(
                workload, args.seed, args.seconds, 1, args.smoke)
            status |= code
            entry["details"].append(tdetail)
            print(f"  -- traced run: {tdetail['spans']} spans in {tdetail['trace_file']}")
            for name, unit, _better in metrics.PER_LAYER:
                value = result["metrics"][name]["value"]
                entry["per_layer"][name] = value
                print(f"  {name:44s} {value:14.4f} {unit}")
        results["workloads"][workload] = entry
    out = args.out or os.path.join(HERE, "out", f"result-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="ascii") as fh:
        json.dump(results, fh, indent=1)
    print(f"\nresult file: {out}\n{'all replies correct' if not status else 'FAILED'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload in this process; "
                        "omit to run all four, each in a fresh process")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a run measures (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes (an eighth of the work)")
    parser.add_argument("--runs", type=int, default=1,
                        help="end-to-end runs per workload when running all")
    parser.add_argument("--out", help="result file when running all")
    parser.add_argument("--manifest", action="store_true",
                        help="print the content of BENCHMARK.json and exit")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"shieldbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import metrics

    if args.manifest:
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if args.seconds is None:
        args.seconds = metrics.RUN_SECONDS
    if args.workload is None:
        return run_all(args)
    if args.workload not in metrics.SCENARIOS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(metrics.SCENARIOS)}")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Python salts str/bytes hashes per process, which moves every
        # attribute and key dict's collisions around: same-seed runs of
        # embedded-b spread twice as wide with the salt as without.  The
        # measured processes (this one, the server child, its workers)
        # all run unsalted.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  {**os.environ, "PYTHONHASHSEED": "0"})
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
