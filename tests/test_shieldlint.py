"""shieldlint: per-rule fixtures, suppressions, CLI exit codes, and the
zero-findings gate over the real tree.

Each fixture writes a tiny module at a repo-relative path the trust map
classifies (``core/store.py`` is trusted, ``core/procpool.py`` is a
lock module...) and asserts the pass flags the seeded violation — and
does *not* flag the adjacent compliant code.
"""

import textwrap

import pytest

from repro.analysis import AnalysisError, run_analysis
from repro.cli import main


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _lint(tmp_path, rules=None):
    return run_analysis(root=str(tmp_path), rules=rules)


class TestTrustBoundaryRule:
    def test_plaintext_to_pipe_sink_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def leak(conn, key, value):
                conn.send_bytes(value)
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]
        assert "send_bytes" in report.active[0].message

    def test_encrypted_payload_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def ship(conn, suite, key, value):
                conn.send_bytes(suite.encrypt(b"iv", value))
            """,
        )
        assert _lint(tmp_path).active == []

    def test_plaintext_in_exception_message_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def fail(key):
                raise ValueError(f"no such key {key!r}")
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]
        assert "exception" in report.active[0].message

    def test_declassified_length_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def fail(key):
                raise ValueError(f"bad key of {len(key)} bytes")
            """,
        )
        assert _lint(tmp_path).active == []

    def test_taint_flows_through_assignment_and_fstring(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def leak(mem, value):
                record = b"header" + value
                blob = f"{record}".encode()
                mem.raw_write(0, blob)
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]

    def test_untrusted_module_is_not_checked(self, tmp_path):
        _write(
            tmp_path,
            "workloads/gen.py",
            """
            def emit(conn, key, value):
                conn.send_bytes(value)
            """,
        )
        assert _lint(tmp_path).active == []

    def test_unsealed_write_into_shared_memory_is_flagged(self, tmp_path):
        # The shm data plane's ring buffers are host-visible: a
        # subscript store of plaintext into a SharedMemory buffer is a
        # leak even though no call is involved.
        _write(
            tmp_path,
            "core/shmring.py",
            """
            def stage(shm, channel, blob):
                plain = channel.open(blob)
                shm.buf[0 : len(plain)] = plain
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]
        assert "shared memory" in report.active[0].message

    def test_sealed_write_into_shared_memory_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/shmring.py",
            """
            def stage(shm, channel, blob):
                plain = channel.open(blob)
                sealed = channel.seal(plain)
                shm.buf[0 : len(sealed)] = sealed
            """,
        )
        assert _lint(tmp_path).active == []

    def test_decrypt_result_is_a_source(self, tmp_path):
        _write(
            tmp_path,
            "net/tcp.py",
            """
            def relay(sock, suite, blob):
                plain = suite.decrypt(b"iv", blob)
                sock.sendall(plain)
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]


    def test_decrypt_record_result_is_a_source(self, tmp_path):
        """What SecureChannel.open hands on is plaintext: without
        ``decrypt_record`` among the sources the pass loses it."""
        _write(
            tmp_path,
            "net/tcp.py",
            """
            def relay(sock, suite, blob):
                plain = suite.decrypt_record(b"iv", blob)
                sock.sendall(plain)
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]
        assert "sendall" in report.active[0].message

    def test_encrypt_record_result_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "net/tcp.py",
            """
            def reply(sock, suite, blob):
                plain = suite.decrypt_record(b"iv", blob)
                sock.sendall(suite.encrypt_record(b"iv2", plain))
            """,
        )
        assert _lint(tmp_path).active == []


class TestVerifyBeforeUseRule:
    def test_unverified_return_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            class Store:
                def get(self, key):
                    plain = self.suite.decrypt(b"iv", key)
                    return plain
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["verify-before-use"]

    def test_verified_return_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            class Store:
                def get(self, key):
                    plain = self.suite.decrypt(b"iv", key)
                    self._verify_set(0, [])
                    return plain

                def _verify_set(self, set_id, macs):
                    pass
            """,
        )
        assert _lint(tmp_path).active == []

    def test_verify_on_only_one_branch_is_flagged(self, tmp_path):
        """The "unreachable on some path" case: AND-merge of branches."""
        _write(
            tmp_path,
            "core/store.py",
            """
            class Store:
                def get(self, key, fast):
                    plain = self.suite.decrypt(b"iv", key)
                    if not fast:
                        self._verify_set(0, [])
                    return plain

                def _verify_set(self, set_id, macs):
                    pass
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["verify-before-use"]

    def test_unverified_mutation_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            class Store:
                def set(self, key, value):
                    old = self.suite.decrypt(b"iv", key)
                    self._update_entry(0, old, value)
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["verify-before-use"]
        assert "_update_entry" in report.active[0].message

    def test_unverified_yield_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            class Store:
                def iter_items(self):
                    for blob in self.chunks:
                        yield self.suite.decrypt(b"iv", blob)
            """,
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["verify-before-use"]


class TestLockOrderRule:
    def test_descending_family_order_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/procpool.py",
            """
            class ProcessPartitionPool:
                def bad(self):
                    with self._health_lock:
                        with self.workers[0].lock:
                            pass
            """,
        )
        report = _lint(tmp_path)
        assert any(
            f.rule == "lock-order" and "pinned order" in f.message
            for f in report.active
        )

    def test_ascending_exitstack_loop_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/procpool.py",
            """
            from contextlib import ExitStack

            class ProcessPartitionPool:
                def scatter(self, payloads):
                    targets = sorted(payloads)
                    with ExitStack() as stack:
                        for index in targets:
                            stack.enter_context(self.workers[index].lock)
            """,
        )
        assert _lint(tmp_path).active == []

    def test_unordered_loop_acquisition_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/procpool.py",
            """
            from contextlib import ExitStack

            class ProcessPartitionPool:
                def scatter(self, payloads):
                    with ExitStack() as stack:
                        for index in payloads:
                            stack.enter_context(self.workers[index].lock)
            """,
        )
        report = _lint(tmp_path)
        assert any(
            f.rule == "lock-order" and "ascending" in f.message
            for f in report.active
        )

    def test_nested_worker_locks_are_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/procpool.py",
            """
            class ProcessPartitionPool:
                def bad(self, a, b):
                    with self.workers[a].lock:
                        with self.workers[b].lock:
                            pass
            """,
        )
        report = _lint(tmp_path)
        assert any(
            f.rule == "lock-order" and "second" in f.message
            for f in report.active
        )

    def test_unguarded_shared_state_mutation_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/procpool.py",
            """
            class ProcessPartitionPool:
                def poke(self):
                    self.recoveries += 1
            """,
        )
        report = _lint(tmp_path)
        assert any(
            f.rule == "lock-order" and "recoveries" in f.message
            for f in report.active
        )

    def test_guarded_mutation_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/procpool.py",
            """
            class ProcessPartitionPool:
                def poke(self):
                    with self._health_lock:
                        self.recoveries += 1
            """,
        )
        assert _lint(tmp_path).active == []

    def test_held_set_propagates_into_helpers(self, tmp_path):
        """A helper that mutates under its caller's lock is clean; the
        same helper reached without the lock is flagged."""
        _write(
            tmp_path,
            "core/procpool.py",
            """
            class ProcessPartitionPool:
                def safe(self):
                    with self._health_lock:
                        self._bump()

                def unsafe(self):
                    self._bump()

                def _bump(self):
                    self.recoveries += 1
            """,
        )
        report = _lint(tmp_path)
        assert (
            len([f for f in report.active if "recoveries" in f.message]) == 1
        )


class TestSuppressions:
    VIOLATION = """
    def leak(conn, key, value):
        conn.send_bytes(value)  {comment}
    """

    def test_justified_suppression_silences_finding(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            self.VIOLATION.format(
                comment="# shieldlint: ignore[trust-boundary] -- fixture"
            ),
        )
        report = _lint(tmp_path)
        assert report.active == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].justification == "fixture"

    def test_comment_on_line_above_also_covers(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def leak(conn, key, value):
                # shieldlint: ignore[trust-boundary] -- fixture
                conn.send_bytes(value)
            """,
        )
        assert _lint(tmp_path).active == []

    def test_bare_suppression_is_itself_a_finding(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            self.VIOLATION.format(comment="# shieldlint: ignore[trust-boundary]"),
        )
        report = _lint(tmp_path)
        rules = sorted(f.rule for f in report.active)
        # The original finding stays active AND the bare comment is
        # reported: silencing always costs a written reason.
        assert rules == ["suppression", "trust-boundary"]

    def test_suppression_for_other_rule_does_not_cover(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            self.VIOLATION.format(
                comment="# shieldlint: ignore[lock-order] -- wrong rule"
            ),
        )
        report = _lint(tmp_path)
        assert [f.rule for f in report.active] == ["trust-boundary"]


class TestEngineAndCli:
    def test_rule_selection_runs_only_that_pass(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def leak(conn, key, value):
                conn.send_bytes(value)
            """,
        )
        assert _lint(tmp_path, rules=["lock-order"]).active == []
        assert len(_lint(tmp_path, rules=["trust-boundary"]).active) == 1

    def test_unknown_rule_is_an_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            run_analysis(root=str(tmp_path), rules=["no-such-rule"])

    def test_syntax_error_is_an_analysis_error(self, tmp_path):
        _write(tmp_path, "core/store.py", "def broken(:\n")
        with pytest.raises(AnalysisError):
            run_analysis(root=str(tmp_path))

    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty"
        _write(
            dirty,
            "core/store.py",
            """
            def leak(conn, key, value):
                conn.send_bytes(value)
            """,
        )
        clean = tmp_path / "clean"
        _write(clean, "core/store.py", "X = 1\n")
        assert main(["lint", str(dirty)]) == 1
        assert main(["lint", str(clean)]) == 0
        assert main(["lint", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    def test_cli_json_is_machine_readable(self, tmp_path, capsys):
        import json

        _write(
            tmp_path,
            "core/store.py",
            """
            def leak(conn, key, value):
                conn.send_bytes(value)
            """,
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["counts"] == {"trust-boundary": 1}
        assert payload["findings"][0]["path"] == "core/store.py"


class TestRealTreeGate:
    """The repository's own tree must lint clean — this is the CI gate."""

    def test_zero_active_findings_on_the_real_tree(self):
        report = run_analysis()  # defaults to the installed src/repro
        assert report.files_scanned > 50
        details = "\n".join(f.format() for f in report.active)
        assert report.active == [], f"shieldlint findings:\n{details}"

    def test_every_suppression_in_tree_is_justified(self):
        report = run_analysis()
        for finding in report.suppressed:
            assert finding.justification, finding.format()

    def test_all_six_passes_complete_quickly(self):
        report = run_analysis()
        assert set(report.rules) == {
            "trust-boundary",
            "verify-before-use",
            "lock-order",
            "key-domain",
            "nonce-reuse",
            "ct-compare",
        }
        assert report.duration_s < 10.0
