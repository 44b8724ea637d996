"""shieldfault: plan parsing, schedules, determinism, and hook behavior."""

import json

import pytest

from repro.errors import ProtocolError, SnapshotError
from repro.sim import faults
from repro.sim.faults import (
    FAULT_KINDS,
    INJECTION_POINTS,
    FaultPlan,
    FaultPlanError,
    FaultRule,
)

POINT = "tcp.client.send"  # any registered point works for schedule tests


def plan_of(*rules, seed=0):
    return FaultPlan(list(rules), seed=seed)


class TestPlanParsing:
    def test_from_json_roundtrip(self):
        text = json.dumps(
            {
                "seed": 7,
                "rules": [
                    {"point": "tcp.client.send", "kind": "drop", "hits": [0, 2]},
                    {"point": "channel.server.open", "kind": "tamper",
                     "probability": 0.25, "flips": 3},
                ],
            }
        )
        plan = FaultPlan.from_json(text)
        assert plan.seed == 7
        assert len(plan.rules) == 2
        assert plan.rules[1].flips == 3

    def test_rejects_unknown_point(self):
        with pytest.raises(FaultPlanError, match="matches no registered"):
            plan_of(FaultRule(point="tcp.client.sendd", kind="drop"))

    def test_rejects_unknown_kind(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            plan_of(FaultRule(point=POINT, kind="explode"))

    def test_rejects_unknown_error_class(self):
        with pytest.raises(FaultPlanError, match="unknown error class"):
            plan_of(FaultRule(point=POINT, kind="error", error="KeyboardInterrupt"))

    def test_rejects_bad_probability(self):
        with pytest.raises(FaultPlanError, match="outside"):
            plan_of(FaultRule(point=POINT, kind="drop", probability=1.5))

    def test_rejects_unknown_rule_field(self):
        with pytest.raises(FaultPlanError, match="unknown field"):
            FaultPlan.from_dict(
                {"rules": [{"point": POINT, "kind": "drop", "chance": 0.5}]}
            )

    def test_rejects_non_object_plan(self):
        with pytest.raises(FaultPlanError, match="rules"):
            FaultPlan.from_dict([])

    def test_rejects_invalid_json(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_pattern_matches_multiple_points(self):
        plan = plan_of(FaultRule(point="tcp.client.*", kind="drop"))
        assert plan.decide("tcp.client.send") is not None
        assert plan.decide("tcp.client.recv") is not None
        assert plan.decide("tcp.server.send") is None

    def test_every_registered_point_is_a_valid_rule_target(self):
        for point in INJECTION_POINTS:
            plan_of(FaultRule(point=point, kind="delay"))

    def test_every_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            if kind == "partition":
                # Partition rules are the only kind with mandatory
                # extra fields: the named groups being separated.
                plan_of(FaultRule(point=POINT, kind=kind,
                                  groups=[["a"], ["b"]]))
            else:
                plan_of(FaultRule(point=POINT, kind=kind))


class TestSchedules:
    def fires_at(self, plan, n=12):
        return [plan.decide(POINT) is not None for _ in range(n)]

    def test_no_schedule_fields_fires_always(self):
        plan = plan_of(FaultRule(point=POINT, kind="drop"))
        assert self.fires_at(plan, 4) == [True] * 4

    def test_explicit_hits(self):
        plan = plan_of(FaultRule(point=POINT, kind="drop", hits=[0, 3]))
        assert self.fires_at(plan, 5) == [True, False, False, True, False]

    def test_every_nth(self):
        plan = plan_of(FaultRule(point=POINT, kind="drop", every=3))
        assert self.fires_at(plan, 7) == [
            False, False, True, False, False, True, False,
        ]

    def test_after_offsets_the_schedule(self):
        plan = plan_of(FaultRule(point=POINT, kind="drop", hits=[0], after=2))
        assert self.fires_at(plan, 4) == [False, False, True, False]

    def test_limit_caps_total_fires(self):
        plan = plan_of(FaultRule(point=POINT, kind="drop", limit=2))
        assert self.fires_at(plan, 5) == [True, True, False, False, False]

    def test_probability_is_seed_deterministic(self):
        def sequence(seed):
            plan = plan_of(
                FaultRule(point=POINT, kind="drop", probability=0.3), seed=seed
            )
            return self.fires_at(plan, 40)

        assert sequence(11) == sequence(11)
        assert sequence(11) != sequence(12)  # astronomically unlikely to tie
        hits = sum(sequence(11))
        assert 2 <= hits <= 25  # ~12 expected; loose deterministic bounds

    def test_first_matching_rule_wins(self):
        plan = plan_of(
            FaultRule(point=POINT, kind="drop", hits=[0]),
            FaultRule(point=POINT, kind="delay"),
        )
        rule, _state = plan.decide(POINT)
        assert rule.kind == "drop"
        rule, _state = plan.decide(POINT)
        assert rule.kind == "delay"

    def test_counters_and_snapshot(self):
        plan = plan_of(FaultRule(point=POINT, kind="drop", every=2))
        for _ in range(4):
            plan.decide(POINT)
        assert plan.fires() == 2
        assert plan.fires(point=POINT, kind="drop") == 2
        assert plan.fires(kind="tamper") == 0
        snap = plan.snapshot()
        assert snap["hits"][POINT] == 4
        assert snap["fires"][f"{POINT}:drop"] == 2
        assert snap["total_fires"] == 2


class TestCheckHook:
    def test_no_plan_is_a_fast_noop(self):
        faults.uninstall()
        assert faults.check(POINT, b"payload") is None
        assert faults.fires() == 0

    def test_unregistered_point_is_rejected_with_plan_installed(self):
        with faults.injected(plan_of(FaultRule(point=POINT, kind="drop"))):
            with pytest.raises(FaultPlanError, match="unregistered"):
                faults.check("tcp.client.bogus", b"x")

    def test_injected_context_restores_previous_state(self):
        assert faults.active() is None
        with faults.injected(plan_of(FaultRule(point=POINT, kind="drop"))) as p:
            assert faults.active() is p
        assert faults.active() is None

    def test_error_kind_raises_named_class(self):
        plan = plan_of(
            FaultRule(point=POINT, kind="error", error="ProtocolError", hits=[0]),
            FaultRule(point=POINT, kind="error", error="SnapshotError", hits=[0]),
        )
        with faults.injected(plan):
            with pytest.raises(ProtocolError, match="injected"):
                faults.check(POINT, b"x")
            with pytest.raises(SnapshotError, match="injected"):
                faults.check(POINT, b"x")

    def test_tamper_mutates_payload_deterministically(self):
        payload = bytes(range(64))

        def tampered(seed):
            with faults.injected(
                plan_of(FaultRule(point=POINT, kind="tamper", flips=2), seed=seed)
            ):
                return faults.check(POINT, payload).payload

        first = tampered(5)
        assert first != payload
        assert len(first) == len(payload)
        assert tampered(5) == first
        assert tampered(6) != first

    def test_tamper_with_empty_payload_is_a_noop(self):
        with faults.injected(plan_of(FaultRule(point=POINT, kind="tamper"))):
            assert faults.check(POINT, b"") is None
            assert faults.check(POINT, None) is None

    def test_crash_invokes_callback(self):
        called = []
        with faults.injected(plan_of(FaultRule(point=POINT, kind="crash"))):
            hit = faults.check(POINT, b"x", on_crash=lambda: called.append(1))
        assert called == [1]
        assert hit.kind == "crash"

    def test_crash_without_callback_raises(self):
        with faults.injected(plan_of(FaultRule(point=POINT, kind="crash"))):
            with pytest.raises(ConnectionResetError):
                faults.check(POINT, b"x")

    def test_drop_returns_hit_for_site_cooperation(self):
        with faults.injected(plan_of(FaultRule(point=POINT, kind="drop"))):
            hit = faults.check(POINT, b"x")
        assert hit.kind == "drop"

    def test_delay_sleeps_then_proceeds(self):
        import time

        with faults.injected(
            plan_of(FaultRule(point=POINT, kind="delay", delay_s=0.01))
        ):
            start = time.monotonic()
            hit = faults.check(POINT, b"x")
            assert time.monotonic() - start >= 0.009
        assert hit.kind == "delay"

    def test_module_fires_mirrors_plan(self):
        with faults.injected(plan_of(FaultRule(point=POINT, kind="drop"))):
            faults.check(POINT, b"x")
            faults.check(POINT, b"x")
            assert faults.fires() == 2
            assert faults.fires(point=POINT) == 2
            assert faults.fires(kind="drop") == 2
        assert faults.fires() == 0  # uninstalled again


class TestPersistencePoints:
    """The persistence.snapshot / persistence.restore hooks end to end."""

    _SHAPE = dict(num_partitions=2, mode="sequential")

    def _config(self):
        from repro.core import shield_opt

        return shield_opt(num_buckets=64, num_mac_hashes=16)

    def test_tampered_snapshot_blob_is_rejected_on_restore(self):
        from repro.core import PartitionedShieldStore, PartitionSnapshotter
        from repro.errors import SealingError, SnapshotError
        from repro.sim import MonotonicCounterService

        store = PartitionedShieldStore(self._config(), **self._SHAPE)
        store.multi_set([(f"k{i}".encode(), b"v") for i in range(20)])
        snapshotter = PartitionSnapshotter(MonotonicCounterService())
        blob = snapshotter.snapshot_bytes(store)
        rule = FaultRule(
            point="persistence.restore", kind="tamper", flips=4, after=0
        )
        # Whatever byte the tamper hit (magic, sealed header, section),
        # the failure is one of the two refusals, not silence.
        with faults.injected(plan_of(rule, seed=3)):
            with pytest.raises((SnapshotError, SealingError)):
                snapshotter.open(blob, self._config(), **self._SHAPE)
        # And without the fault plan the same blob opens fine.
        clean = snapshotter.open(blob, self._config(), **self._SHAPE)
        assert len(clean) == 20
