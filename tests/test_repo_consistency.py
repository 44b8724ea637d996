"""Meta-tests: the repository's own promises stay true."""

import pathlib
import re

from repro.experiments import ALL_EXPERIMENTS

_ROOT = pathlib.Path(__file__).parent.parent


def _run_in_fresh_interpreter(script: str) -> None:
    """Run ``script`` where nothing of ``repro`` is imported yet."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=60)


def _implementers(base: str):
    """Names of the classes under ``src/repro`` that list ``base``."""
    return sorted(
        name
        for path in (_ROOT / "src" / "repro").rglob("*.py")
        for name in re.findall(
            rf"^class (\w+)\([^)]*\b{base}\b", path.read_text(), re.M
        )
    )


class TestDeliverables:
    def test_every_figure_experiment_has_a_bench(self):
        bench_names = {p.name for p in (_ROOT / "benchmarks").glob("bench_*.py")}
        for name in ALL_EXPERIMENTS:
            assert any(
                b.startswith(f"bench_{name}") for b in bench_names
            ), f"no benchmark regenerates {name}"

    def test_documents_exist(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "SECURITY.md"):
            path = _ROOT / doc
            assert path.exists(), doc
            assert len(path.read_text()) > 500, f"{doc} looks stubbed"

    def test_examples_in_readme_exist(self):
        readme = (_ROOT / "README.md").read_text()
        for match in re.finditer(r"`(\w+\.py)`", readme):
            name = match.group(1)
            if (_ROOT / "examples" / name).exists() or name == "setup.py":
                continue
            raise AssertionError(f"README references missing example {name}")

    def test_design_lists_every_experiment(self):
        design = (_ROOT / "DESIGN.md").read_text()
        for table in ("Table 1", "Fig. 2", "Fig. 10", "Fig. 19"):
            assert table in design

    def test_experiments_md_covers_every_figure(self):
        text = (_ROOT / "EXPERIMENTS.md").read_text()
        for figure in (2, 3, 6, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19):
            assert f"Figure {figure}" in text, f"Figure {figure} unrecorded"
        assert "Table 1" in text


class TestCodeHygiene:
    def test_no_builtin_hash_in_library(self):
        """Python's hash() is process-salted; the library must not use it
        for anything that affects simulated behaviour."""
        offenders = []
        for path in (_ROOT / "src").rglob("*.py"):
            text = path.read_text()
            for lineno, line in enumerate(text.splitlines(), 1):
                stripped = line.split("#")[0]
                if re.search(r"(?<![.\w])hash\(", stripped):
                    offenders.append(f"{path.name}:{lineno}")
        assert not offenders, offenders

    def test_no_wall_clock_in_simulation(self):
        """Simulated time must come from cycle clocks, not time.time()."""
        # Real I/O surfaces only: procpool.py's stage timers and its
        # handshake deadline time real worker round trips, and
        # shmring.py bounds real shared-memory waits, so both are
        # wall-clock by nature; the shieldlint
        # engine reports real analysis duration, not simulated time;
        # store.py's stage timers attribute reporting-only wall time to
        # walk/crypto/verify (StoreStats fields declared to vary with
        # the clock — excluded from engine-equivalence comparisons,
        # never fed back into any simulated clock); wal.py paces real fsync group commits
        # against the disk, not any simulated clock; faults.py heals
        # network partitions after real seconds by design (chaos plans
        # cut real TCP links for a scheduled wall-clock duration — the
        # heal clock never touches simulated time).
        allowed = {
            "tcp.py", "cli.py", "procpool.py", "engine.py", "shmring.py",
            "store.py", "wal.py", "faults.py",
        }
        offenders = []
        for path in (_ROOT / "src").rglob("*.py"):
            if path.name in allowed:
                continue
            text = path.read_text()
            if re.search(
                r"\btime\.(time|monotonic|perf_counter)\(|\bperf_counter\(",
                text,
            ):
                offenders.append(path.name)
        assert not offenders, offenders

    def test_public_modules_have_docstrings(self):
        undocumented = []
        for path in (_ROOT / "src").rglob("*.py"):
            text = path.read_text().lstrip()
            if path.name == "__main__.py":
                continue
            if not text.startswith(('"""', "'''")):
                undocumented.append(str(path))
        assert not undocumented, undocumented

    def test_serving_imports_leave_the_linter_out(self):
        """``crypto/suite.py`` needs only the runtime sanitizer hook; the
        lint engine and its rule modules must not ride into every server
        and pool worker with it."""
        _run_in_fresh_interpreter(
            "import sys, repro.core, repro.net.tcp\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
            "assert loaded == ['repro.analysis', 'repro.analysis.sanitizer'], loaded\n"
            "from repro.analysis import run_analysis, Finding, key_domain_table\n"
            "assert 'repro.analysis.engine' in sys.modules\n"
        )


class TestOneReaderOfTheMachineSize:
    """CPU counts come from the CPUs the process may run on; nothing may
    quietly go back to the machine's size."""

    @staticmethod
    def _files():
        for top in ("src", "benchmarks"):
            for path in (_ROOT / top).rglob("*.py"):
                if "shieldbench" not in path.parts:  # the harness pins itself
                    yield path

    def test_cpu_count_is_read_only_by_usable_cpus(self):
        readers = [
            str(path.relative_to(_ROOT))
            for path in self._files()
            if "os.cpu_count(" in path.read_text()
        ]
        assert readers == ["src/repro/util.py"]
        assert (_ROOT / "src/repro/util.py").read_text().count("os.cpu_count(") == 1


class TestOneCipherModePerKey:
    """A key is used in one cipher mode for its whole life: the record
    mode is the channel's alone, so no stored, logged or sealed format
    can drift onto a cipher nothing pins."""

    @staticmethod
    def _callers(*needles):
        src = _ROOT / "src" / "repro"
        return sorted(
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if any(needle in path.read_text() for needle in needles)
        )

    def test_record_mode_is_called_only_by_the_channel(self):
        assert self._callers("encrypt_record(", "decrypt_record(") == [
            "crypto/suite.py", "net/message.py",
        ]

    def test_the_xof_is_reached_only_through_the_suite(self):
        assert self._callers("xof_transform(") == [
            "crypto/fast.py", "crypto/suite.py",
        ]

    def test_the_channel_has_one_cipher_call_each_way(self):
        import inspect

        from repro.net.message import SecureChannel

        source = inspect.getsource(SecureChannel)
        assert source.count(".encrypt_record(") == 1
        assert source.count(".decrypt_record(") == 1
        assert ".encrypt(" not in source and ".decrypt(" not in source


class TestOneCopyOfEachMechanism:
    """Grep-able structure the partition-engine collapse relies on."""

    @staticmethod
    def _client_verbs():
        """``{method name: wire op}`` from the StoreVerbs mixin's bodies."""
        import inspect

        from repro.net.message import StoreVerbs

        verbs = {}
        for name, member in vars(StoreVerbs).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            ops = re.findall(r'self\._call\(\s*"(\w+)"', inspect.getsource(member))
            assert len(ops) == 1, f"{name} must make exactly one wire call"
            verbs[name] = ops[0]
        return verbs

    def test_served_verbs_and_client_methods_are_one_to_one(self):
        from repro.net.server import STORE_VERBS

        verbs = self._client_verbs()
        assert len(verbs) == 9
        # vice versa: no op claimed twice, none unserved, none unclaimed
        assert sorted(verbs.values()) == sorted(STORE_VERBS)

    def test_clients_define_no_verb_bodies_of_their_own(self):
        from repro.core.procpool import _PartitionProxy
        from repro.net.message import StoreVerbs
        from repro.net.tcp import TCPShieldClient

        assert _implementers("StoreVerbs") == ["TCPShieldClient", "_PartitionProxy"]
        for client in (TCPShieldClient, _PartitionProxy):
            assert issubclass(client, StoreVerbs)
            assert "_call" in vars(client)
            for name in self._client_verbs():
                assert name not in vars(client), (client.__name__, name)

    def test_mutating_set_covers_exactly_the_mutating_store_verbs(self):
        from repro.net.message import MUTATING_OPS
        from repro.net.server import STORE_VERBS

        reads = {"get", "mget"}
        assert set(STORE_VERBS) - reads == MUTATING_OPS - {"replicate"}
        source = (_ROOT / "src" / "repro").rglob("*.py")
        definitions = [
            path.name for path in source
            if re.search(r"^_?MUTATING\w*OPS\s*=", path.read_text(), re.M)
        ]
        assert definitions == ["message.py"]

    def test_router_does_not_speak_the_wire_codec(self):
        text = (_ROOT / "src" / "repro" / "core" / "partition.py").read_text()
        assert "repro.net" not in text
        assert "_pool is not None" not in text
        assert "ThreadPoolExecutor" not in text

    @staticmethod
    def _sites(pattern, skip=()):
        """File name per match of ``pattern`` in ``src/repro`` code
        (comments dropped, docstrings not)."""
        hits = []
        for path in (_ROOT / "src" / "repro").rglob("*.py"):
            if path.name in skip:
                continue
            code = "\n".join(
                line.split("#")[0] for line in path.read_text().splitlines()
            )
            hits += [path.name] * len(re.findall(pattern, code))
        return sorted(hits)

    def test_lifecycle_call_sites(self):
        """build (which is recovery) -> checkpoint is written once, in
        the host's constructor, and nothing restores into a live store."""
        sites = self._sites
        for call in (r"WriteAheadLog\.recover\(", r"(?<!def )\bread_section\("):
            assert sites(call) == ["host.py"], call
        assert sites(r"(?<!def )\bwrite_section\(") == ["host.py"]
        assert sites(r"\.rotate\(", skip=("wal.py",)) == ["host.py"]
        # The host is built by the two engines and by nothing else.
        assert sites(r"(?<!class )\bPartitionHost\(") == ["partition.py", "procpool.py"]
        gone = r"OP_RESTORE|restore_all|def (stage|adopt)\b|_rekey|SSSNAP1|class Snapshotter"
        assert sites(gone + "|flush_logs") == []  # a log commits itself: no host tick
        # ...so on the write path only ``sync`` reaches the disk.
        wal, callers, inside = _ROOT / "src" / "repro" / "core" / "wal.py", [], None
        for name, call in re.findall(r"^\s*def (\w+)|(os\.fsync\()", wal.read_text(), re.M):
            inside = name or inside
            if call:
                callers.append(inside)
        assert callers == ["fsync_directory", "sync", "recover"]

    def test_the_cli_serves_one_store_shape(self):
        """Every store a ``repro`` command serves or recovers is built by
        :class:`~repro.node.Node`, the one program caller of
        ``open_store``, whatever the worker count."""
        cli = (_ROOT / "src" / "repro" / "cli.py").read_text()
        assert self._sites(r"(?<!def )\bopen_store\(") == ["node.py"]
        for other_way in ("PartitionHost", ".open(", "load_latest", "read_blob",
                          "PartitionedShieldStore", "Snapshotter"):
            assert other_way not in cli, other_way

    def test_fault_hits_are_unwrapped_in_one_place(self):
        """Sites that carry bytes call ``faults.cross``; only it looks
        inside a ``Hit`` for the payload to go on with."""
        copies = sorted(
            path.name
            for path in (_ROOT / "src" / "repro").rglob("*.py")
            if "hit.payload" in path.read_text()
        )
        assert copies == ["faults.py"]

    def test_untrusted_formats_read_only_through_the_reader(self):
        """The serialized formats unpack no bytes of their own: their one
        ``unpack(`` is ``Reader.unpack(LAYOUT)``, and every length or
        count limit is one entry of ``repro/reader.py``'s table."""
        src = _ROOT / "src" / "repro"
        formats = ("net/message.py", "net/tcp.py", "core/wal.py",
                   "core/persistence.py", "ext/replication.py", "core/procpool.py")
        for name in formats:
            code = "\n".join(
                line.split("#")[0] for line in (src / name).read_text().splitlines()
            )
            assert "unpack_from(" not in code, name
            for args in re.findall(r"\bunpack\(([^)]*)\)", code):
                assert re.fullmatch(r"_?[A-Z][A-Z0-9_]*", args), (name, args)
            assert not re.search(r"\b1 << \d\d\b|\* 1024 \* 1024\b", code), name
        table = ("DH_PUBLIC", "QUOTE_FRAME", "SESSION_FRAME", "BATCH_COUNT", "WAL_BODY")
        for limit in table:
            assert self._sites(rf"(?m)^{limit} = ") == ["reader.py"], limit
        gone = r"_Reader\b|_check_count|_MAX_BATCH|_MAX_BODY|_MAX_FRAME|_DH_PUBLIC|_QUOTE_FRAME"
        assert self._sites(gone) == []


class TestOneVersionedDataPath:
    """One set of LWW verbs with two implementers — a node's own copy
    and the client's quorum path — and one comparison between them."""

    _EXT = _ROOT / "src" / "repro" / "ext"

    @classmethod
    def _code(cls):
        """``{file name: source minus comments}`` for every ext module."""
        return {
            path.name: "\n".join(
                line.split("#")[0] for line in path.read_text().splitlines()
            )
            for path in cls._EXT.glob("*.py")
        }

    def _hits(self, pattern):
        return sorted(
            name for name, code in self._code().items()
            for _ in re.findall(pattern, code)
        )

    def test_quorum_arithmetic_and_read_repair_exist_once(self):
        assert self._hits(r"// 2 \+ 1") == ["replication.py"]
        assert self._hits(r"read_repairs \+= 1") == ["replication.py"]

    def test_lww_comparison_exists_once(self):
        """Versions are ordered in ``newer`` and nowhere else."""
        ordered = r"[<>]=?\s*(?:record_version\(|\w*version\b)"
        assert self._hits(ordered) == ["replication.py"]
        import inspect

        from repro.ext.replication import newer

        assert re.search(ordered, inspect.getsource(newer))

    def test_replicas_one_is_not_a_special_case(self):
        assert self._hits(r"replicas\s*==\s*1") == []

    def test_records_are_minted_only_by_the_shared_verbs(self):
        import ast

        for name, code in self._code().items():
            calls = [
                m.start() for m in re.finditer(r"(?<!def )\bpack_record\(", code)
            ]
            if name != "replication.py":
                assert not calls, name
                continue
            verbs = next(
                node for node in ast.parse(code).body
                if isinstance(node, ast.ClassDef) and node.name == "VersionedVerbs"
            )
            lines = [code.count("\n", 0, pos) + 1 for pos in calls]
            assert lines and all(
                verbs.lineno <= line <= verbs.end_lineno for line in lines
            ), lines

    def test_public_faces_define_hooks_not_verbs(self):
        from repro.ext.replication import (
            ReplicaClient,
            ReplicatedStore,
            VersionedVerbs,
        )

        verbs = {
            "get", "set", "delete", "append", "increment", "compare_and_swap",
            "contains", "multi_get", "multi_set", "multi_delete",
        }
        assert verbs <= set(vars(VersionedVerbs))
        assert _implementers("VersionedVerbs") == ["ReplicaClient", "ReplicatedStore"]
        for cls in (ReplicatedStore, ReplicaClient):
            assert issubclass(cls, VersionedVerbs)
            assert not verbs & set(vars(cls)), cls.__name__
            assert {"_read", "_commit"} <= set(vars(cls)), cls.__name__


class TestOneMacRepresentation:
    """A bucket's MACs are one contiguous blob from untrusted node to set
    hash to MAC cache and back; no list form survives beside it."""

    _CORE = _ROOT / "src" / "repro" / "core"
    _FILES = ("store.py", "macbucket.py", "mactree.py", "maccache.py",
              "persistence.py", "entry.py")

    @classmethod
    def _hits(cls, pattern):
        hits = []
        for name in cls._FILES:
            code = "\n".join(
                line.split("#")[0] for line in (cls._CORE / name).read_text().splitlines()
            )
            hits += [name] * len(re.findall(pattern, code))
        return sorted(hits)

    def test_set_hash_message_is_joined_as_gathered(self):
        assert self._hits(r"sorted\(by_bucket") == []
        assert self._hits(r"_flatten") == []

    def test_macs_are_sliced_by_index_in_one_place(self):
        by_index = r"slice\([^)\n]*MAC_SIZE|\[[^\]\n]*MAC_SIZE[^\]\n]*:"
        assert self._hits(by_index) == ["entry.py"]

    def test_overflow_links_are_range_checked(self):
        assert self._hits(r"ENCLAVE_BASE <=").count("macbucket.py") == 1

    def test_store_has_no_suffixed_twin_functions(self):
        import ast

        tree = ast.parse((self._CORE / "store.py").read_text())
        names = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        }
        for name in names:
            for suffix in ("_fast", "_slow", "_blob"):
                if name.endswith(suffix):
                    assert name[: -len(suffix)] not in names, name


class TestEveryModuleHasACaller:
    """ROADMAP aim 2: a module under ``src/repro`` stays only if a
    ``repro`` command or a benchmark script reaches it.  Reaching means
    importing it by module path, or importing a name a package
    ``__init__`` re-exports *from* it — an ``__init__`` listing a module
    is not a caller of it.  Tests and examples are not callers either,
    and there is no list of exceptions to join."""

    @staticmethod
    def _files():
        src = _ROOT / "src"
        return {
            ".".join(path.relative_to(src).with_suffix("").parts)
            .removesuffix(".__init__"): path
            for path in (src / "repro").rglob("*.py")
        }

    @classmethod
    def _reached(cls):
        import ast

        files = cls._files()

        def defined_in(module, name):
            """The module ``from module import name`` really loads code from."""
            if f"{module}.{name}" in files:
                return f"{module}.{name}"
            path = files.get(module)
            if path is not None and path.name == "__init__.py":
                for node in ast.parse(path.read_text()).body:
                    if isinstance(node, ast.ImportFrom):
                        for alias in node.names:
                            if (alias.asname or alias.name) == name:
                                return defined_in(node.module, alias.name)
            return module  # a plain module, or the package's own code

        def uses(path):
            found = set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    found.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    found.update(
                        defined_in(node.module, alias.name) for alias in node.names
                    )
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.add(node.value)  # lazy tables name modules as strings
            return found & set(files)

        reached, frontier = set(), [files["repro.__main__"]]
        frontier += sorted((_ROOT / "benchmarks").rglob("*.py"))
        while frontier:
            for module in uses(frontier.pop()) - reached:
                reached.add(module)
                frontier.append(files[module])
        return reached

    def test_every_module_is_reached(self):
        modules = {
            name for name, path in self._files().items()
            if path.name not in ("__init__.py", "__main__.py")
        }
        assert modules - self._reached() == set(), (
            "no `repro` command and no benchmark reaches these: "
            "give each a caller or delete it"
        )

    def test_one_extension_does_not_load_its_siblings(self):
        """``repro serve --peer`` needs one class of ``repro.ext``; the
        package ``__init__`` must not hand it the rest."""
        _run_in_fresh_interpreter(
            "import sys\n"
            "from repro.ext.replication import ReplicatedStore\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.ext.'))\n"
            "assert loaded == ['repro.ext.replication'], loaded\n"
        )

    def test_deleted_designs_are_named_nowhere(self):
        gone = re.compile(
            "OperationLog|RecoveringStore|ShieldLSM|BloomFilter|ClientSideClient"
            "|PassiveStore|ClientKeyDirectory|RoteCounterService|CounterReplica"
            "|DynamicShieldStore|ExpiringStore|SealedFrame|SealedLog"
            "|ShieldCluster|ShardNode|HashRing|RangeShieldStore|SkipList"
            "|ScanStream|SimClient|SessionManager|record_trace|replay_trace"
        )
        paths = [_ROOT / name for name in ("README.md", "DESIGN.md", "SECURITY.md")]
        for top in ("src", "tests", "benchmarks", "examples", "docs"):
            paths += [p for p in (_ROOT / top).rglob("*") if p.suffix in (".py", ".md")]
        this_file = pathlib.Path(__file__).resolve()
        named = [
            str(path.relative_to(_ROOT))
            for path in paths
            if path.resolve() != this_file and gone.search(path.read_text())
        ]
        assert named == []
