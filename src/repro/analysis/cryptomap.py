"""Key-domain registry pass (rule ``key-domain``).

Every ``derive_key(master, label, ...)`` call in the tree carves out a
*key domain*: the derived key is only as independent as its label is
unique within the lineage of its master secret.  Two call sites whose
labels can collide (equal strings, or templates whose placeholders can
be chosen to produce equal strings) silently share a key; a label that
is a ``/``-segment prefix of another invites extension confusion when
labels are built by concatenation.

This pass makes the discipline checkable:

* :data:`REGISTRY` declares every key domain the tree is *supposed* to
  have: label template, defining module, lineage (which master secret
  the domain hangs off), purpose, binding components, whether the
  ciphertext persists across process incarnations, and how (key, IV)
  uniqueness is achieved.
* The static pass collects every ``derive_key`` call site, resolves its
  label expression (constants and f-strings — each ``{...}`` hole
  becomes a placeholder segment), and matches it against the registry.
  Unresolvable labels, unregistered domains, sites exceeding a domain's
  declared ``max_sites``, and chained derivations whose parent domain
  does not match the registry are findings.
* The registry itself is checked: within one lineage, templates must be
  pairwise non-unifiable (no two label sets can collide for any
  placeholder values), prefix-free per ``/``-segment, and
  purpose-unique; a domain that persists ciphertext must either bind an
  incarnation component or use an IV regime that is unique across
  incarnations.

``key_domain_table()`` renders the registry as the markdown table
embedded in ``docs/INTERNALS.md``.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding

RULE = "key-domain"
DOC_URL = "docs/INTERNALS.md#key-schedule--nonce-discipline"
REMEDIATION = (
    "register the derive_key label in repro.analysis.cryptomap.REGISTRY "
    "with a collision-free, prefix-free template for its lineage"
)

# Anchor for findings about the registry itself (no source line).
REGISTRY_PATH = "analysis/cryptomap.py"

# IV regimes that stay unique across process incarnations, satisfying
# the persistence check without an incarnation binding component.
PERSISTENT_IV_REGIMES = frozenset({"entropy-counter", "frame-epoch-seq"})

# Binding components that tie a domain to one incarnation/epoch.
INCARNATION_COMPONENTS = frozenset(
    {"counter", "incarnation", "epoch", "nonce", "version"}
)


@dataclass(frozen=True)
class DomainSpec:
    """One declared key domain."""

    label: str                      # template, e.g. "shieldstore/wal/{partition}/{counter}"
    module: str                     # glob of the deriving module
    lineage: str                    # which master secret the domain hangs off
    purpose: str
    binding: Tuple[str, ...] = ()   # placeholder components bound into the label
    parent: Optional[str] = None    # label of the parent domain when chained
    persists: bool = False          # ciphertext outlives the process
    iv_regime: str = "n/a"          # how (key, IV) pairs stay unique;
                                    # "none" = key never feeds CTR (MAC)
    max_sites: int = 1              # distinct call sites allowed


REGISTRY: Tuple[DomainSpec, ...] = (
    # -- the enclave master secret (global lineage) ----------------------
    DomainSpec(
        "shieldstore/enc", "crypto/keys.py", "master",
        "entry encryption key (every store entry, §4.2)",
        persists=True, iv_regime="entropy-counter",
    ),
    DomainSpec(
        "shieldstore/mac", "crypto/keys.py", "master",
        "entry CMAC key (per-entry MACs and bucket-set hashes)",
    ),
    DomainSpec(
        "shieldstore/index", "crypto/keys.py", "master",
        "keyed bucket-index hash key (§4.3)",
    ),
    DomainSpec(
        "shieldstore/hint", "crypto/keys.py", "master",
        "key-hint hash key (1-byte disambiguation, §4.3)",
    ),
    DomainSpec(
        "shieldstore/platform-seal", "core/persistence.py", "master",
        "platform sealing secret for snapshot metadata (§4.4)",
        persists=True, iv_regime="entropy-counter",
    ),
    DomainSpec(
        "shieldstore/wal/{partition}/{counter}", "core/wal.py", "master",
        "per-segment WAL key, one per (partition, snapshot counter)",
        binding=("partition", "counter"),
        persists=True, iv_regime="frame-epoch-seq",
    ),
    DomainSpec(
        "shieldstore/procpool/{index}/{nonce}", "core/procpool.py", "master",
        "per-incarnation worker-pipe session secret",
        binding=("index", "nonce"),
    ),
    DomainSpec(
        "shieldstore/repl-digest", "ext/replication.py", "master",
        "anti-entropy per-set logical digest key (replication groups)",
        iv_regime="none",
    ),
    # -- chained: WAL segment key ---------------------------------------
    DomainSpec(
        "wal/enc", "core/wal.py", "wal-segment",
        "WAL frame encryption key",
        parent="shieldstore/wal/{partition}/{counter}",
        persists=True, iv_regime="frame-epoch-seq",
    ),
    DomainSpec(
        "wal/mac", "core/wal.py", "wal-segment",
        "WAL frame MAC key",
        parent="shieldstore/wal/{partition}/{counter}",
        persists=True, iv_regime="none",
    ),
    # -- chained: worker pipe session -----------------------------------
    DomainSpec(
        "pipe/enc", "core/procpool.py", "pipe-session",
        "worker-pipe record encryption key",
        parent="shieldstore/procpool/{index}/{nonce}",
        iv_regime="channel-seq",
    ),
    DomainSpec(
        "pipe/mac", "core/procpool.py", "pipe-session",
        "worker-pipe record MAC key",
        parent="shieldstore/procpool/{index}/{nonce}",
    ),
    # -- per-session DH roots -------------------------------------------
    DomainSpec(
        "session/enc", "sim/attestation.py", "attested-session",
        "attested-channel encryption key (per-DH root)",
        iv_regime="channel-seq",
    ),
    DomainSpec(
        "session/mac", "sim/attestation.py", "attested-session",
        "attested-channel MAC key (per-DH root)",
    ),
    # -- sealing (platform secret + measurement root) --------------------
    DomainSpec(
        "seal/enc", "sim/sealing.py", "sealing",
        "sealed-blob encryption key",
        persists=True, iv_regime="entropy-counter",
    ),
    DomainSpec(
        "seal/mac", "sim/sealing.py", "sealing",
        "sealed-blob MAC key",
        persists=True, iv_regime="none",
    ),
    # -- experiment fixtures (fixed demo roots, two endpoints each) ------
    DomainSpec(
        "fig18/chan/enc", "experiments/fig18.py", "fig18-demo",
        "fig18 demo channel encryption key",
        iv_regime="channel-seq", max_sites=2,
    ),
    DomainSpec(
        "fig18/chan/mac", "experiments/fig18.py", "fig18-demo",
        "fig18 demo channel MAC key", max_sites=2,
    ),
    DomainSpec(
        "fig19/enc", "experiments/fig19.py", "fig19-demo",
        "fig19 demo channel encryption key",
        iv_regime="channel-seq", max_sites=2,
    ),
    DomainSpec(
        "fig19/mac", "experiments/fig19.py", "fig19-demo",
        "fig19 demo channel MAC key", max_sites=2,
    ),
)


# -- label templates ---------------------------------------------------------
# A template is a tuple of segments; each segment is either a literal
# string or the wildcard None (a placeholder hole).
Segment = Optional[str]
Template = Tuple[Segment, ...]


def parse_template(label: str) -> Template:
    """Parse a human-written spec template ("a/{x}/b" -> ("a", None, "b"))."""
    segments: List[Segment] = []
    for part in label.split("/"):
        if "{" in part:
            segments.append(None)
        else:
            segments.append(part)
    return tuple(segments)


def template_str(template: Template) -> str:
    return "/".join("{}" if seg is None else seg for seg in template)


def resolve_label(node: ast.expr) -> Optional[Template]:
    """Resolve a label expression to a template, or None if opaque.

    Constants resolve exactly; f-strings resolve with each formatted
    hole as a placeholder.  A segment mixing literal text and a hole is
    a placeholder segment (its literal part cannot prevent collisions
    for all values).  Any other expression is unresolvable.
    """
    marker = "\x00"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
    elif isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append(marker)
            else:
                return None
        text = "".join(parts)
    else:
        return None
    return tuple(
        None if marker in part else part for part in text.split("/")
    )


def _compatible(a: Template, b: Template, length: int) -> bool:
    """Can the first ``length`` segments of both templates coincide?"""
    for seg_a, seg_b in zip(a[:length], b[:length]):
        if seg_a is not None and seg_b is not None and seg_a != seg_b:
            return False
    return True


def templates_unify(a: Template, b: Template) -> bool:
    """True when some placeholder assignment makes the labels equal."""
    return len(a) == len(b) and _compatible(a, b, len(a))


def template_is_prefix(a: Template, b: Template) -> bool:
    """True when ``a`` can be a proper ``/``-segment prefix of ``b``."""
    return len(a) < len(b) and _compatible(a, b, len(a))


def _spec_template(spec: DomainSpec) -> Template:
    return parse_template(spec.label)


# -- site collection ---------------------------------------------------------
@dataclass
class DeriveSite:
    """One ``derive_key`` call discovered in the tree."""

    path: str
    line: int
    template: Optional[Template]       # None: unresolvable label
    label_text: str                    # for messages
    master_text: str                   # unparsed master argument
    parent_template: Optional[Template] = None  # when chained


class _SiteCollector(ast.NodeVisitor):
    """Collect derive_key sites of one module, tracking chains.

    A chained derivation is ``derive_key(x, ...)`` where ``x`` is a
    local name previously assigned from another ``derive_key`` call in
    the same function body — the only intraprocedural chaining idiom the
    tree uses (WAL segment keys, worker pipe secrets).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.sites: List[DeriveSite] = []
        # name -> template of the derive_key call assigned to it,
        # within the innermost function scope.
        self._derived_names: Dict[str, Optional[Template]] = {}

    def _enter_scope(self, node: ast.AST) -> None:
        saved = self._derived_names
        self._derived_names = {}
        self.generic_visit(node)
        self._derived_names = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        call = node.value
        if (
            isinstance(call, ast.Call)
            and _is_derive_call(call)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and len(call.args) >= 2
        ):
            self._derived_names[node.targets[0].id] = resolve_label(
                call.args[1]
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_derive_call(node) and len(node.args) >= 2:
            master, label = node.args[0], node.args[1]
            try:
                master_text = ast.unparse(master)
            except Exception:  # pragma: no cover - unparse is total
                master_text = "<master>"
            try:
                label_text = ast.unparse(label)
            except Exception:  # pragma: no cover - unparse is total
                label_text = "<label>"
            parent: Optional[Template] = None
            if isinstance(master, ast.Name):
                parent = self._derived_names.get(master.id)
            self.sites.append(
                DeriveSite(
                    path=self.path,
                    line=node.lineno,
                    template=resolve_label(label),
                    label_text=label_text,
                    master_text=master_text,
                    parent_template=parent,
                )
            )
        self.generic_visit(node)


def _is_derive_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "derive_key"
    if isinstance(func, ast.Attribute):
        return func.attr == "derive_key"
    return False


def collect(path: str, tree: ast.AST, sites: List[DeriveSite]) -> List[Finding]:
    """Collect one module's derive_key sites; report unresolvable labels."""
    collector = _SiteCollector(path)
    collector.visit(tree)
    findings: List[Finding] = []
    for site in collector.sites:
        if site.template is None:
            findings.append(
                Finding(
                    RULE,
                    site.path,
                    site.line,
                    f"derive_key label {site.label_text} is not statically "
                    "resolvable; use a string constant or f-string so the "
                    "key-domain registry can prove it collision-free",
                )
            )
        else:
            sites.append(site)
    return findings


# -- registry checks ---------------------------------------------------------
def registry_findings(
    registry: Sequence[DomainSpec] = REGISTRY,
) -> List[Finding]:
    """Validate the registry itself: collision-free, prefix-free,
    purpose-unique per lineage; persistence needs incarnation binding."""
    findings: List[Finding] = []
    by_lineage: Dict[str, List[DomainSpec]] = {}
    for spec in registry:
        by_lineage.setdefault(spec.lineage, []).append(spec)
    for lineage, specs in sorted(by_lineage.items()):
        for i, spec_a in enumerate(specs):
            for spec_b in specs[i + 1 :]:
                t_a, t_b = _spec_template(spec_a), _spec_template(spec_b)
                if templates_unify(t_a, t_b):
                    findings.append(
                        Finding(
                            RULE,
                            REGISTRY_PATH,
                            0,
                            f"domains {spec_a.label!r} and {spec_b.label!r} "
                            f"of lineage {lineage!r} can collide: some "
                            "placeholder assignment makes the labels equal",
                        )
                    )
                for first, second in ((spec_a, spec_b), (spec_b, spec_a)):
                    if template_is_prefix(
                        _spec_template(first), _spec_template(second)
                    ):
                        findings.append(
                            Finding(
                                RULE,
                                REGISTRY_PATH,
                                0,
                                f"domain {first.label!r} is a segment-prefix "
                                f"of {second.label!r} in lineage {lineage!r}",
                            )
                        )
                if spec_a.purpose == spec_b.purpose:
                    findings.append(
                        Finding(
                            RULE,
                            REGISTRY_PATH,
                            0,
                            f"domains {spec_a.label!r} and {spec_b.label!r} "
                            f"of lineage {lineage!r} share a purpose; "
                            "distinct domains need distinct purposes",
                        )
                    )
    for spec in registry:
        if spec.iv_regime == "none":
            continue  # MAC-only key: no keystream, nothing to reuse
        if spec.persists and spec.iv_regime not in PERSISTENT_IV_REGIMES:
            if not any(
                component in INCARNATION_COMPONENTS
                for component in spec.binding
            ):
                findings.append(
                    Finding(
                        RULE,
                        REGISTRY_PATH,
                        0,
                        f"domain {spec.label!r} persists ciphertext across "
                        "incarnations but binds no incarnation/counter "
                        "component and has no incarnation-unique IV regime",
                    )
                )
    return findings


def finalize(
    sites: Sequence[DeriveSite],
    registry: Sequence[DomainSpec] = REGISTRY,
) -> List[Finding]:
    """Cross-file phase: match collected sites against the registry."""
    findings = registry_findings(registry)
    sites_per_spec: Dict[int, List[DeriveSite]] = {
        i: [] for i in range(len(registry))
    }
    for site in sites:
        assert site.template is not None  # unresolvable filtered in collect()
        matched = None
        for i, spec in enumerate(registry):
            if site.template == _spec_template(spec) and fnmatch.fnmatch(
                site.path, spec.module
            ):
                matched = i
                break
        if matched is None:
            findings.append(
                Finding(
                    RULE,
                    site.path,
                    site.line,
                    f"unregistered key domain {site.label_text}: no "
                    "registry entry matches this label template in this "
                    "module; add a DomainSpec to cryptomap.REGISTRY",
                )
            )
            continue
        spec = registry[matched]
        sites_per_spec[matched].append(site)
        expected_parent = (
            parse_template(spec.parent) if spec.parent is not None else None
        )
        if expected_parent != site.parent_template:
            declared = spec.parent if spec.parent is not None else "<root>"
            actual = (
                template_str(site.parent_template)
                if site.parent_template is not None
                else "<root>"
            )
            findings.append(
                Finding(
                    RULE,
                    site.path,
                    site.line,
                    f"domain {spec.label!r} declares parent {declared!r} "
                    f"but this site derives from {actual!r}",
                )
            )
    for i, spec in enumerate(registry):
        matched_sites = sites_per_spec[i]
        if len(matched_sites) > spec.max_sites:
            extra = matched_sites[spec.max_sites]
            findings.append(
                Finding(
                    RULE,
                    extra.path,
                    extra.line,
                    f"domain {spec.label!r} derived at "
                    f"{len(matched_sites)} sites but the registry allows "
                    f"{spec.max_sites}; distinct derivations need distinct "
                    "labels",
                )
            )
    return findings


# -- documentation table -----------------------------------------------------
def key_domain_table(registry: Sequence[DomainSpec] = REGISTRY) -> str:
    """The registry as a markdown table (embedded in INTERNALS.md)."""
    lines = [
        "| label | module | lineage | binding | persists | IV regime | purpose |",
        "|---|---|---|---|---|---|---|",
    ]
    for spec in registry:
        binding = ", ".join(spec.binding) if spec.binding else "—"
        lines.append(
            "| `%s` | `%s` | %s | %s | %s | %s | %s |"
            % (
                spec.label,
                spec.module,
                spec.lineage,
                binding,
                "yes" if spec.persists else "no",
                spec.iv_regime,
                spec.purpose,
            )
        )
    return "\n".join(lines)
