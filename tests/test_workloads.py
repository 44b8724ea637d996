"""Workload substrate: distributions, mixes, streams, data specs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    APPEND_WORKLOADS,
    LARGE,
    MEDIUM,
    SMALL,
    LatestGenerator,
    OperationStream,
    UniformGenerator,
    WorkloadSpec,
    ZipfianGenerator,
    data_spec,
    make_distribution,
    workload,
    TABLE2_WORKLOADS,
)


class TestDistributions:
    def test_uniform_range_and_determinism(self):
        gen_a = UniformGenerator(1000, seed=1)
        gen_b = UniformGenerator(1000, seed=1)
        draws = [gen_a.next() for _ in range(500)]
        assert all(0 <= d < 1000 for d in draws)
        assert draws == [gen_b.next() for _ in range(500)]

    def test_zipfian_is_skewed(self):
        gen = ZipfianGenerator(10_000, theta=0.99, seed=2, scrambled=False)
        draws = [gen.next() for _ in range(5000)]
        top_decile = sum(1 for d in draws if d < 1000)
        assert top_decile > 0.6 * len(draws)  # heavy head

    def test_zipfian_scrambling_spreads_hot_keys(self):
        plain = ZipfianGenerator(10_000, seed=3, scrambled=False)
        scrambled = ZipfianGenerator(10_000, seed=3, scrambled=True)
        plain_top = max(set(plain.next() for _ in range(500)))
        scrambled_draws = [scrambled.next() for _ in range(500)]
        assert max(scrambled_draws) > plain_top  # spread over key space

    def test_zipfian_lower_theta_is_flatter(self):
        def head_mass(theta):
            gen = ZipfianGenerator(10_000, theta=theta, seed=4, scrambled=False)
            draws = [gen.next() for _ in range(4000)]
            return sum(1 for d in draws if d < 100)

        assert head_mass(0.99) > head_mass(0.5)

    def test_latest_prefers_recent(self):
        gen = LatestGenerator(1000, seed=5)
        draws = [gen.next() for _ in range(2000)]
        assert all(0 <= d < 1000 for d in draws)
        recent = sum(1 for d in draws if d >= 900)
        assert recent > 0.5 * len(draws)

    def test_factory(self):
        for name in ("uniform", "zipfian", "latest"):
            assert make_distribution(name, 10).next() in range(10)
        with pytest.raises(ValueError):
            make_distribution("gaussian", 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)

    @given(n=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=20, deadline=None)
    def test_zipfian_range_property(self, n):
        gen = ZipfianGenerator(n, seed=9)
        assert all(0 <= gen.next() < n for _ in range(20))


class TestWorkloadSpecs:
    def test_table2_catalog(self):
        names = {w.name for w in TABLE2_WORKLOADS}
        assert names == {
            "RD50_U", "RD95_U", "RD100_U", "RD50_Z", "RD95_Z", "RD100_Z",
            "RD95_L", "RMW50_Z",
        }

    def test_lookup(self):
        assert workload("RD95_Z").read_ratio == 0.95
        with pytest.raises(ValueError):
            workload("RD0_X")

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec("BAD", "broken", 0.5, 0.2)

    def test_append_mixes(self):
        assert len(APPEND_WORKLOADS) == 4
        for spec in APPEND_WORKLOADS:
            assert spec.append_ratio > 0


class TestOperationStream:
    def test_deterministic(self):
        a = OperationStream(workload("RD50_Z"), SMALL, 100, seed=1)
        b = OperationStream(workload("RD50_Z"), SMALL, 100, seed=1)
        assert list(a.operations(50)) == list(b.operations(50))

    def test_mix_ratios_roughly_hold(self):
        stream = OperationStream(workload("RD95_U"), SMALL, 1000, seed=2)
        ops = list(stream.operations(2000))
        gets = sum(1 for op in ops if op.op == "get")
        assert 0.9 < gets / len(ops) < 0.99

    def test_rmw_ops_generated(self):
        stream = OperationStream(workload("RMW50_Z"), SMALL, 100, seed=3)
        ops = list(stream.operations(500))
        assert any(op.op == "rmw" for op in ops)
        assert all(op.value is not None for op in ops if op.op == "rmw")

    def test_load_operations_cover_population(self):
        stream = OperationStream(workload("RD50_U"), SMALL, 25, seed=4)
        loads = list(stream.load_operations())
        assert len(loads) == 25
        assert len({op.key for op in loads}) == 25
        assert all(op.op == "set" for op in loads)

    def test_set_values_change_per_version(self):
        stream = OperationStream(workload("RD50_U"), SMALL, 4, seed=5)
        values = {}
        for op in stream.operations(300):
            if op.op == "set":
                assert op.value != values.get(op.key), "versions must differ"
                values[op.key] = op.value


class TestDataSpecs:
    def test_catalog(self):
        assert SMALL.val_size == 16
        assert MEDIUM.val_size == 128
        assert LARGE.val_size == 512
        assert data_spec("medium") is MEDIUM
        with pytest.raises(ValueError):
            data_spec("gigantic")

    def test_key_sizes_fixed(self):
        for i in (0, 7, 123456):
            assert len(SMALL.key_bytes(i)) == 16

    def test_keys_unique(self):
        keys = {SMALL.key_bytes(i) for i in range(1000)}
        assert len(keys) == 1000

    def test_values_sized_and_versioned(self):
        assert len(LARGE.value_bytes(5)) == 512
        assert LARGE.value_bytes(5, 0) != LARGE.value_bytes(5, 1)
