"""Self-test of shieldbench at ``--smoke`` sizes (well under a minute).

``python benchmarks/shieldbench/selftest.py`` or, under pytest, by the
explicit path ``pytest benchmarks/shieldbench/selftest.py``.  Checks
that ``BENCHMARK.json`` and the metric tables agree, that every named
metric is printed by every workload, that the figures documented as
exact repeat for a seed and the inputs change with it, and that the
checker catches a corrupted reply.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(REPO, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
from repro.workloads import RD95_Z  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 77


def bench(workload: str, trace: int, seed: int = SEED) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


cached_bench = functools.lru_cache(maxsize=None)(bench)


def in_pairs(fn, argument_lists) -> list:
    """Two runs at a time: only correctness is checked here, not speed."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda args: fn(*args), argument_lists))


def test_manifest_is_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        assert json.load(fh) == metrics.manifest()
    names = [n for n, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    names += list(metrics.SCENARIOS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for u in metrics.UNITS.values())


def test_every_metric_is_printed_by_every_workload():
    in_pairs(cached_bench, [(w, t) for w in metrics.SCENARIOS for t in (0, 1)])
    for workload in metrics.SCENARIOS:
        for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            printed = cached_bench(workload, trace)["metrics"]
            assert list(printed) == [name for name, *_ in table], workload
            for name, unit, *_ in table:
                assert printed[name]["unit"] == unit
                assert isinstance(printed[name]["value"], (int, float))
            if not trace:
                assert all(v["value"] > 0 for v in printed.values()), workload


def test_exact_metrics_repeat_for_a_seed():
    workloads = ("embedded-b", "durable-set")
    firsts = in_pairs(cached_bench, [(w, 1) for w in workloads])
    agains = in_pairs(bench, [(w, 1) for w in workloads])
    for workload, first, again in zip(workloads, firsts, agains):
        first, again = first["metrics"], again["metrics"]
        for name in compare.EXACT:
            assert first[name]["value"] == again[name]["value"], (workload, name)
    assert cached_bench("embedded-b", 1)["metrics"]["sim.cycles_per_op"]["value"] > 0
    assert cached_bench("durable-set", 1)["metrics"][
        "core.wal.bytes_per_user_byte"]["value"] > 1


def _ops(seed: int) -> list:
    model = gen.Model(gen.Dataset(seed, 512))
    return gen.OpSource(model, RD95_Z, seed, 0, 1).singles(200)


def test_inputs_follow_the_seed():
    assert _ops(1) == _ops(1)
    assert [op[:3] for op in _ops(1)] != [op[:3] for op in _ops(2)]
    assert gen.Dataset(1, 512).specs != gen.Dataset(2, 512).specs


class _Liar:
    """A store whose reads are corrupted in one chosen way."""

    def __init__(self, dataset: gen.Dataset, corrupt):
        self.dataset, self.corrupt, self.values = dataset, corrupt, {}

    def set(self, key, value):
        self.values[key] = value

    def get(self, key):
        index = int(key[1:])
        return self.corrupt(index, self.values.get(key, self.dataset.value(index, 0)))


def test_checker_catches_a_corrupted_reply():
    dataset = gen.Dataset(5, 512)
    corruptions = {
        "honest": (lambda i, v: v, False),
        "flipped byte": (lambda i, v: v[:-1] + bytes([v[-1] ^ 1]), True),
        "another key's value": (lambda i, v: dataset.value((i + 1) % 512, 0), True),
        "a version never sent": (lambda i, v: dataset.value(i, 10_000), True),
        "missing": (lambda i, v: None, True),
    }
    for what, (corrupt, must_fail) in corruptions.items():
        model = gen.Model(dataset)
        ops = gen.OpSource(model, RD95_Z, 5, 0, 1).singles(300)
        tally = harness.Tally()
        harness.drive(_Liar(dataset, corrupt), ops, model, tally)
        reads = sum(1 for op in ops if op[0] == gen.GET)
        assert tally.failed == (reads if must_fail else 0), what
        assert len(tally.reads) == (0 if must_fail else reads), what
    # A rolled-back write: the reply is an older version than the last acked.
    model = gen.Model(dataset)
    model.sent[3] = model.acked[3] = 2
    assert model.read_ok(3, dataset.value(3, 2), floor=2)
    assert not model.read_ok(3, dataset.value(3, 1), floor=2)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok  {name}")
