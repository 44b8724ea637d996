"""shieldlint driver: file collection, pass dispatch, reporting.

:func:`run_analysis` walks every ``*.py`` file under the analyzed root
(normally ``src/repro``), parses it once, and hands the tree to the
six passes — ``trust-boundary``, ``verify-before-use``, ``lock-order``,
``key-domain``, ``nonce-reuse`` and ``ct-compare`` — according to the
module's declared role in :mod:`repro.analysis.trustmap` (the
shieldcrypt rules pick their own module scope).  Suppression comments
are applied last so reports can still show what was silenced and why.

Exit-code convention (used by ``python -m repro lint``):

* ``0`` — no non-suppressed findings;
* ``1`` — at least one non-suppressed finding;
* ``2`` — the analyzer itself failed (:class:`AnalysisError`: bad
  root, unparseable source).
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import (
    consttime,
    cryptomap,
    lockorder,
    noncereuse,
    taint,
    verifyuse,
)
from repro.analysis.findings import (
    Finding,
    Suppression,
    apply_suppressions,
    parse_suppressions,
)

ALL_RULES: Tuple[str, ...] = (
    taint.RULE,
    verifyuse.RULE,
    lockorder.RULE,
    cryptomap.RULE,
    noncereuse.RULE,
    consttime.RULE,
)

#: Per-rule documentation pointer and one-line remediation, surfaced in
#: ``repro lint --format json`` so CI annotations can link the fix.
RULE_DOCS: Dict[str, Dict[str, str]] = {
    taint.RULE: {"doc_url": taint.DOC_URL, "remediation": taint.REMEDIATION},
    verifyuse.RULE: {
        "doc_url": verifyuse.DOC_URL,
        "remediation": verifyuse.REMEDIATION,
    },
    lockorder.RULE: {
        "doc_url": lockorder.DOC_URL,
        "remediation": lockorder.REMEDIATION,
    },
    cryptomap.RULE: {
        "doc_url": cryptomap.DOC_URL,
        "remediation": cryptomap.REMEDIATION,
    },
    noncereuse.RULE: {
        "doc_url": noncereuse.DOC_URL,
        "remediation": noncereuse.REMEDIATION,
    },
    consttime.RULE: {
        "doc_url": consttime.DOC_URL,
        "remediation": consttime.REMEDIATION,
    },
}

_SKIP_PARTS = frozenset({"__pycache__"})


class AnalysisError(Exception):
    """The analyzer could not complete (distinct from "found issues")."""


@dataclass
class Report:
    """The outcome of one analyzer run."""

    root: str
    rules: Tuple[str, ...]
    files_scanned: int
    findings: List[Finding]
    duration_s: float = 0.0
    unused_suppressions: List[Tuple[str, int]] = field(default_factory=list)
    #: Unused suppressions whose every named rule actually ran this
    #: pass — the comment silences nothing and should be deleted.
    stale_suppressions: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    def counts(self) -> Dict[str, int]:
        by_rule: Dict[str, int] = {}
        for finding in self.active:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return by_rule

    def exit_code(self) -> int:
        return 1 if self.active else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "rules": list(self.rules),
            "rule_docs": {
                rule: dict(RULE_DOCS[rule])
                for rule in self.rules
                if rule in RULE_DOCS
            },
            "files_scanned": self.files_scanned,
            "duration_s": round(self.duration_s, 3),
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.findings],
            "stale_suppressions": [
                {"path": path, "line": line}
                for path, line in self.stale_suppressions
            ],
            "exit_code": self.exit_code(),
        }

    def format_text(self) -> str:
        lines: List[str] = []
        for finding in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule)
        ):
            lines.append(finding.format())
            if finding.suppressed and finding.justification:
                lines.append(f"    reason: {finding.justification}")
        active = self.active
        summary = (
            f"shieldlint: {self.files_scanned} files, "
            f"{len(active)} finding(s)"
            + (f", {len(self.suppressed)} suppressed" if self.suppressed else "")
            + f" [{self.duration_s:.2f}s]"
        )
        if active:
            by_rule = ", ".join(
                f"{rule}={count}" for rule, count in sorted(self.counts().items())
            )
            summary += f" ({by_rule})"
        lines.append(summary)
        return "\n".join(lines)


def _collect_files(root: Path) -> List[Path]:
    files = [
        path
        for path in sorted(root.rglob("*.py"))
        if not (_SKIP_PARTS & set(path.parts))
    ]
    return files


def run_analysis(
    root: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> Report:
    """Run the selected passes over every module beneath ``root``."""
    if root is None:
        root_path = Path(__file__).resolve().parents[1]  # src/repro
    else:
        root_path = Path(root).resolve()
    if not root_path.is_dir():
        raise AnalysisError(f"analysis root is not a directory: {root_path}")

    selected: Tuple[str, ...]
    if rules:
        unknown = sorted(set(rules) - set(ALL_RULES))
        if unknown:
            raise AnalysisError(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"known: {', '.join(ALL_RULES)}"
            )
        selected = tuple(r for r in ALL_RULES if r in set(rules))
    else:
        selected = ALL_RULES

    started = time.monotonic()
    findings: List[Finding] = []
    suppressions: Dict[str, List[Suppression]] = {}
    edges: Set[Tuple[str, str]] = set()
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]] = {}
    derive_sites: List[cryptomap.DeriveSite] = []
    files = _collect_files(root_path)

    for file_path in files:
        rel = file_path.relative_to(root_path).as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except (OSError, SyntaxError, ValueError) as exc:
            raise AnalysisError(f"cannot analyze {rel}: {exc}") from exc
        supps = parse_suppressions(source)
        if supps:
            suppressions[rel] = supps
        if taint.RULE in selected:
            findings.extend(taint.run(rel, tree))
        if verifyuse.RULE in selected:
            findings.extend(verifyuse.run(rel, tree))
        if lockorder.RULE in selected:
            findings.extend(lockorder.run_module(rel, tree, edges, edge_sites))
        if cryptomap.RULE in selected:
            findings.extend(cryptomap.collect(rel, tree, derive_sites))
        if noncereuse.RULE in selected:
            findings.extend(noncereuse.run(rel, tree))
        if consttime.RULE in selected:
            findings.extend(consttime.run(rel, tree))

    if lockorder.RULE in selected:
        findings.extend(lockorder.cycle_findings(edges, edge_sites))
    if cryptomap.RULE in selected:
        findings.extend(cryptomap.finalize(derive_sites))

    # Loop bodies are walked twice (may-analysis): identical findings
    # from the second pass collapse here.
    seen: Set[Tuple[str, str, int, str]] = set()
    unique: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    findings = apply_suppressions(unique, suppressions)
    unused = [
        (path, supp.line)
        for path, supps in sorted(suppressions.items())
        for supp in supps
        if supp.justification and not supp.used
    ]
    # A suppression is *stale* (safe to delete) only when every rule it
    # names actually ran this pass and still produced nothing to cover.
    stale = [
        (path, supp.line)
        for path, supps in sorted(suppressions.items())
        for supp in supps
        if supp.justification
        and not supp.used
        and set(supp.rules) <= set(selected)
    ]
    return Report(
        root=str(root_path),
        rules=selected,
        files_scanned=len(files),
        findings=findings,
        duration_s=time.monotonic() - started,
        unused_suppressions=unused,
        stale_suppressions=stale,
    )
