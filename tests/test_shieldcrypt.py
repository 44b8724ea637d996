"""shieldcrypt static rules: key-domain registry, nonce monotonicity,
constant-time comparisons — per-rule fixtures plus the real-tree gates.

Fixture trees follow the test_shieldlint convention: write a tiny module
at a repo-relative path the rule scopes to, lint the tree, and assert
the seeded violation fires (and the compliant twin does not).
"""

import ast
import fnmatch
import json
import random
import textwrap
from pathlib import Path

from repro.analysis import RULE_DOCS, run_analysis
from repro.analysis import cryptomap
from repro.cli import main


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _lint(tmp_path, rules=None):
    return run_analysis(root=str(tmp_path), rules=rules)


# ---------------------------------------------------------------------------
# key-domain: derive_key label registry
# ---------------------------------------------------------------------------
class TestKeyDomainRule:
    def test_unregistered_label_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def keys(master):
                return derive_key(master, "bogus/enc")
            """,
        )
        report = _lint(tmp_path, rules=["key-domain"])
        assert [f.rule for f in report.active] == ["key-domain"]
        assert "unregistered key domain" in report.active[0].message

    def test_registered_fstring_label_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/wal.py",
            """
            def segment_key(master, partition, counter):
                seg = derive_key(
                    master, f"shieldstore/wal/{partition}/{counter}"
                )
                return derive_key(seg, "wal/enc"), derive_key(seg, "wal/mac")
            """,
        )
        assert _lint(tmp_path, rules=["key-domain"]).active == []

    def test_unresolvable_label_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/wal.py",
            """
            def keys(master, label):
                return derive_key(master, "prefix-" + label)
            """,
        )
        report = _lint(tmp_path, rules=["key-domain"])
        assert len(report.active) == 1
        assert "not statically resolvable" in report.active[0].message

    def test_parent_mismatch_is_flagged(self, tmp_path):
        # wal/enc must chain off the per-segment secret, not the master.
        _write(
            tmp_path,
            "core/wal.py",
            """
            def keys(master):
                return derive_key(master, "wal/enc")
            """,
        )
        report = _lint(tmp_path, rules=["key-domain"])
        assert len(report.active) == 1
        assert "declares parent" in report.active[0].message

    def test_extra_site_beyond_max_sites_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "crypto/keys.py",
            """
            def one(master):
                return derive_key(master, "shieldstore/enc")

            def two(master):
                return derive_key(master, "shieldstore/enc")
            """,
        )
        report = _lint(tmp_path, rules=["key-domain"])
        assert len(report.active) == 1
        assert "distinct derivations need distinct labels" in (
            report.active[0].message
        )

    def test_wrong_module_is_unregistered(self, tmp_path):
        # The label exists but only crypto/keys.py may derive it.
        _write(
            tmp_path,
            "net/tcp.py",
            """
            def keys(master):
                return derive_key(master, "shieldstore/enc")
            """,
        )
        report = _lint(tmp_path, rules=["key-domain"])
        assert len(report.active) == 1
        assert "unregistered key domain" in report.active[0].message


class TestRegistrySelfChecks:
    """registry_findings proves the registry itself is collision-free."""

    def _spec(self, label, **kw):
        kw.setdefault("module", "core/store.py")
        kw.setdefault("lineage", "master")
        return cryptomap.DomainSpec(label, kw.pop("module"),
                                    kw.pop("lineage"), kw.pop("purpose"),
                                    **kw)

    def test_real_registry_is_clean(self):
        assert cryptomap.registry_findings() == []

    def test_unifiable_templates_collide(self):
        bad = (
            self._spec("a/{x}/c", purpose="p1"),
            self._spec("a/b/{y}", purpose="p2"),
        )
        messages = [f.message for f in cryptomap.registry_findings(bad)]
        assert any("can collide" in m for m in messages)

    def test_prefix_labels_are_flagged(self):
        bad = (
            self._spec("a/b", purpose="p1"),
            self._spec("a/b/c", purpose="p2"),
        )
        messages = [f.message for f in cryptomap.registry_findings(bad)]
        assert any("segment-prefix" in m for m in messages)

    def test_duplicate_purpose_in_lineage_is_flagged(self):
        bad = (
            self._spec("a/enc", purpose="same purpose"),
            self._spec("b/enc", purpose="same purpose"),
        )
        messages = [f.message for f in cryptomap.registry_findings(bad)]
        assert any("share a purpose" in m for m in messages)

    def test_persistent_domain_needs_incarnation_binding(self):
        bad = (
            self._spec("a/enc", purpose="p1", persists=True),
        )
        messages = [f.message for f in cryptomap.registry_findings(bad)]
        assert any("persists ciphertext" in m for m in messages)

    def test_persistent_domain_with_epoch_binding_is_clean(self):
        good = (
            self._spec("a/{epoch}/enc", purpose="p1", persists=True,
                       binding=("epoch",)),
        )
        assert cryptomap.registry_findings(good) == []

    def test_mac_domain_is_exempt_from_iv_regime(self):
        good = (
            self._spec("a/mac", purpose="p1", persists=True,
                       iv_regime="none"),
        )
        assert cryptomap.registry_findings(good) == []

    def test_distinct_lineages_do_not_interact(self):
        good = (
            self._spec("enc", purpose="p1", lineage="left"),
            self._spec("enc", purpose="p1", lineage="right"),
        )
        assert cryptomap.registry_findings(good) == []


class TestKeyDomainProperty:
    """1k random template instantiations stay collision-free across
    domains: no two registry specs can ever mint the same label."""

    def test_random_instantiations_unique_across_domains(self):
        rng = random.Random(0x5EED)
        templated = [
            spec for spec in cryptomap.REGISTRY
            if None in cryptomap.parse_template(spec.label)
        ]
        assert templated, "registry lost its templated domains"
        seen = {}
        for trial in range(1000):
            partition = rng.randrange(64)
            incarnation = rng.randrange(1 << 32)
            counter = rng.randrange(1 << 16)
            fillers = [str(partition), str(incarnation), str(counter),
                       f"ns{counter % 7}"]
            for spec in templated:
                template = cryptomap.parse_template(spec.label)
                label = "/".join(
                    seg if seg is not None else fillers[i % len(fillers)]
                    for i, seg in enumerate(template)
                )
                owner = seen.setdefault(label, spec.label)
                assert owner == spec.label, (
                    f"label {label!r} minted by both {owner!r} "
                    f"and {spec.label!r}"
                )

    def test_fixed_labels_never_match_templated_domains(self):
        fixed = [
            spec for spec in cryptomap.REGISTRY
            if None not in cryptomap.parse_template(spec.label)
        ]
        templated = [
            spec for spec in cryptomap.REGISTRY
            if None in cryptomap.parse_template(spec.label)
        ]
        for fspec in fixed:
            ftmpl = cryptomap.parse_template(fspec.label)
            for tspec in templated:
                if fspec.lineage != tspec.lineage:
                    continue
                assert not cryptomap.templates_unify(
                    ftmpl, cryptomap.parse_template(tspec.label)
                ), (fspec.label, tspec.label)


# ---------------------------------------------------------------------------
# nonce-reuse: counter monotonicity
# ---------------------------------------------------------------------------
class TestNonceReuseRule:
    def test_counter_reset_without_rotation_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "net/message.py",
            """
            class Channel:
                def rewind(self):
                    self._send_seq = 0
            """,
        )
        report = _lint(tmp_path, rules=["nonce-reuse"])
        assert [f.rule for f in report.active] == ["nonce-reuse"]
        assert "reset" in report.active[0].message

    def test_counter_reset_with_key_rotation_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "net/message.py",
            """
            class Channel:
                def rekey(self, root):
                    self.suite = make_suite("fast", root, root)
                    self._send_seq = 0
            """,
        )
        assert _lint(tmp_path, rules=["nonce-reuse"]).active == []

    def test_init_reset_is_construction_not_reuse(self, tmp_path):
        _write(
            tmp_path,
            "net/message.py",
            """
            class Channel:
                def __init__(self):
                    self._send_seq = 0
            """,
        )
        assert _lint(tmp_path, rules=["nonce-reuse"]).active == []

    def test_counter_decrement_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/wal.py",
            """
            class Log:
                def undo(self):
                    self._frame_seq -= 1
            """,
        )
        report = _lint(tmp_path, rules=["nonce-reuse"])
        assert len(report.active) == 1
        assert "decrement" in report.active[0].message.lower()

    def test_increment_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/wal.py",
            """
            class Log:
                def bump(self):
                    self._frame_seq += 1
            """,
        )
        assert _lint(tmp_path, rules=["nonce-reuse"]).active == []

    def test_modules_outside_scope_are_ignored(self, tmp_path):
        _write(
            tmp_path,
            "workloads/ycsb.py",
            """
            class Stream:
                def rewind(self):
                    self._op_seq = 0
            """,
        )
        assert _lint(tmp_path, rules=["nonce-reuse"]).active == []


# ---------------------------------------------------------------------------
# ct-compare: constant-time comparisons
# ---------------------------------------------------------------------------
class TestConstTimeRule:
    def test_mac_equality_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            def check(expected_mac, mac):
                if mac != expected_mac:
                    raise ValueError("bad")
            """,
        )
        report = _lint(tmp_path, rules=["ct-compare"])
        assert [f.rule for f in report.active] == ["ct-compare"]
        assert "compare_digest" in report.active[0].message

    def test_compare_digest_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "core/store.py",
            """
            from hmac import compare_digest

            def check(expected_mac, mac):
                if not compare_digest(mac, expected_mac):
                    raise ValueError("bad")
            """,
        )
        assert _lint(tmp_path, rules=["ct-compare"]).active == []

    def test_digest_call_result_is_flagged(self, tmp_path):
        _write(
            tmp_path,
            "net/tcp.py",
            """
            def check(suite, message, tag):
                return suite.mac(message) == tag
            """,
        )
        report = _lint(tmp_path, rules=["ct-compare"])
        assert len(report.active) == 1

    def test_tag_length_check_is_clean(self, tmp_path):
        _write(
            tmp_path,
            "crypto/cmac.py",
            """
            def check(tag):
                if len(tag) != 16:
                    raise ValueError("bad size")
            """,
        )
        assert _lint(tmp_path, rules=["ct-compare"]).active == []

    def test_counting_identifiers_are_exempt(self, tmp_path):
        _write(
            tmp_path,
            "core/persistence.py",
            """
            def check(num_mac_hashes, expected):
                return num_mac_hashes != expected
            """,
        )
        assert _lint(tmp_path, rules=["ct-compare"]).active == []


# ---------------------------------------------------------------------------
# real-tree gates
# ---------------------------------------------------------------------------
class TestShieldcryptRealTree:
    def test_shieldcrypt_rules_clean_on_real_tree(self):
        report = run_analysis(
            rules=["key-domain", "nonce-reuse", "ct-compare"]
        )
        details = "\n".join(f.format() for f in report.active)
        assert report.active == [], f"shieldcrypt findings:\n{details}"

    def test_every_registered_domain_has_a_live_site(self):
        """The registry describes the tree, not a wish list: every spec
        must match at least one derive_key site in src/repro."""
        root = Path(cryptomap.__file__).resolve().parents[1]
        sites = []
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(encoding="utf-8"))
            cryptomap.collect(rel, tree, sites)
        matched = set()
        for site in sites:
            for spec in cryptomap.REGISTRY:
                if site.template == cryptomap.parse_template(
                    spec.label
                ) and fnmatch.fnmatch(site.path, spec.module):
                    matched.add(spec.label)
        unmatched = [
            spec.label for spec in cryptomap.REGISTRY
            if spec.label not in matched
        ]
        assert unmatched == [], f"stale registry entries: {unmatched}"


# ---------------------------------------------------------------------------
# CLI: --stale-suppressions and JSON rule docs
# ---------------------------------------------------------------------------
class TestShieldcryptCLI:
    def test_stale_suppression_exits_one(self, tmp_path, capsys):
        _write(
            tmp_path,
            "core/store.py",
            """
            # shieldlint: ignore[ct-compare] -- was needed once
            def nothing_here():
                return 1
            """,
        )
        assert main(["lint", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--stale-suppressions"]) == 1
        out = capsys.readouterr().out
        assert "stale suppression" in out
        assert "core/store.py:2" in out

    def test_used_suppression_is_not_stale(self, tmp_path, capsys):
        _write(
            tmp_path,
            "core/store.py",
            """
            def check(expected_mac, mac):
                # shieldlint: ignore[ct-compare] -- fixture, not a secret
                return mac == expected_mac
            """,
        )
        assert main(["lint", str(tmp_path), "--stale-suppressions"]) == 0
        assert "stale" not in capsys.readouterr().out

    def test_unselected_rule_suppression_is_not_stale(self, tmp_path, capsys):
        # The named rule did not run, so staleness cannot be proven.
        _write(
            tmp_path,
            "core/store.py",
            """
            # shieldlint: ignore[ct-compare] -- covers the line below
            def nothing_here():
                return 1
            """,
        )
        code = main(["lint", str(tmp_path), "--stale-suppressions",
                     "--rule", "trust-boundary"])
        assert code == 0

    def test_json_carries_rule_docs(self, tmp_path, capsys):
        _write(tmp_path, "core/store.py", "x = 1\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        docs = payload["rule_docs"]
        for rule in ("trust-boundary", "verify-before-use", "lock-order",
                     "key-domain", "nonce-reuse", "ct-compare"):
            assert docs[rule]["doc_url"].startswith("docs/INTERNALS.md#")
            assert docs[rule]["remediation"]
        assert payload["stale_suppressions"] == []

    def test_rule_docs_registry_covers_all_rules(self):
        report = run_analysis(rules=["ct-compare"])
        assert set(RULE_DOCS) >= set(report.rules)
