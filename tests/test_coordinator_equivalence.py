"""One versioned data path: both implementers agree with a plain dict.

The same op script runs through a TCP replication group's
:class:`~repro.ext.replication.ReplicaClient` (quorum collect / fan-out
over attested links) and through a bare
:class:`~repro.ext.replication.ReplicatedStore`, the node-side
implementer of the same verbs.  Results, ``len()`` and ``contains``
must match a dict model after every step — with every replica up, and
with one replica killed.
"""

import pytest

from repro.core import shield_opt
from repro.errors import KeyNotFoundError, StoreError
from repro.core.store import ShieldStore
from repro.ext.replication import (
    CONSISTENCY_ONE,
    ReplicatedStore,
    ReplicationGroup,
)

SCRIPT = [
    ("set", b"a", b"1"),
    ("get", b"a"),
    ("get", b"missing"),
    ("append", b"a", b"2"),
    ("append", b"fresh", b"x"),  # append creates
    ("increment", b"a", 5),
    ("increment", b"counter", 7),  # increment creates
    ("increment", b"fresh", 1),  # not an integer
    ("compare_and_swap", b"a", b"17", b"swapped"),
    ("compare_and_swap", b"a", b"17", b"nope"),  # cas miss
    ("compare_and_swap", b"ghost", b"", b"x"),  # cas of a missing key
    ("delete", b"a"),
    ("delete", b"a"),  # delete of a deleted key
    ("get", b"a"),
    ("set", b"a", b"back"),  # delete-then-reinsert
    ("append", b"a", b"!"),
    ("multi_set", [(b"m1", b"v1"), (b"m2", b"v2"), (b"counter", b"x")]),
    ("multi_get", [b"m1", b"ghost", b"a"]),
    ("multi_delete", [b"m1", b"ghost"]),
    ("increment", b"m1", 3),  # over a tombstone: starts from zero
    ("delete", b"fresh"),
    ("get", b"m1"),
]


class DictModel:
    """The reference: the nine verbs over a plain dict."""

    def __init__(self):
        self.data = {}

    def __len__(self):
        return len(self.data)

    def contains(self, key):
        return key in self.data

    def get(self, key):
        if key not in self.data:
            raise KeyNotFoundError("model miss")
        return self.data[key]

    def set(self, key, value):
        self.data[key] = value

    def delete(self, key):
        self.get(key)
        del self.data[key]

    def append(self, key, suffix):
        self.data[key] = self.data.get(key, b"") + suffix
        return self.data[key]

    def increment(self, key, delta):
        try:
            new = int(self.data.get(key, b"0").decode("ascii")) + delta
        except ValueError:
            raise StoreError("model: not an integer") from None
        self.data[key] = str(new).encode()
        return new

    def compare_and_swap(self, key, expected, new_value):
        if self.get(key) != expected:
            return False
        self.data[key] = new_value
        return True

    def multi_get(self, keys):
        return {key: self.data.get(key) for key in keys}

    def multi_set(self, items):
        self.data.update(items)

    def multi_delete(self, keys):
        return {key: self.data.pop(key, None) is not None for key in keys}


def outcome(target, verb, args):
    """``("ok", result)`` or ``("raised", exception class)``."""
    try:
        return "ok", getattr(target, verb)(*args)
    except StoreError as exc:
        return "raised", type(exc)


def _config():
    return shield_opt(num_buckets=64, num_mac_hashes=32)


class _GroupLeg:
    """A 3-node TCP replication group driven through its client."""

    def __init__(self):
        self.group = ReplicationGroup(num_nodes=3, config=_config())
        # No per-call retries: a killed replica must cost one refused
        # connect, not a backoff ladder, on every one of the script's ops.
        self.system = self.group.client("equivalence", max_retries=0)

    def size(self):
        # The client writes through to every live replica before it
        # returns, so any survivor's live-key count is the group's.
        return len(self.group.live_nodes()[0].store)

    def failures(self):
        return self.system.stats.quorum_failures

    def replica_ids(self, key):
        return list(self.group.nodes)

    def kill(self, node_id):
        self.group.kill(node_id)

    def close(self):
        self.system.close()
        self.group.close()


class _StoreLeg:
    """One node's own copy: the verbs as a served store runs them."""

    def __init__(self):
        self.system = ReplicatedStore(ShieldStore(_config()), "node-0")

    def size(self):
        return len(self.system)

    def failures(self):
        return 0  # no replica set to miss

    def close(self):
        self.system.close()


LEGS = {
    "replicated-store": _StoreLeg,
    "group-client": _GroupLeg,
}
REPLICATED = ["group-client"]


@pytest.fixture
def leg(request):
    built = LEGS[request.param]()
    yield built
    built.close()


def _keys_of(first_arg):
    """The key(s) a step touched: one key, a key list or an item list."""
    if isinstance(first_arg, bytes):
        return [first_arg]
    return [e[0] if isinstance(e, tuple) else e for e in first_arg]


def run_script(leg):
    model = DictModel()
    for step, (verb, *args) in enumerate(SCRIPT):
        where = f"step {step}: {verb}{tuple(args)!r}"
        assert outcome(leg.system, verb, args) == outcome(model, verb, args), where
        assert leg.size() == len(model), where
        for key in _keys_of(args[0]):
            assert leg.system.contains(key) == model.contains(key), where


class TestOneDataPath:
    @pytest.mark.parametrize("leg", list(LEGS), indirect=True)
    def test_script_matches_the_dict_model(self, leg):
        run_script(leg)
        assert leg.failures() == 0

    @pytest.mark.parametrize("leg", REPLICATED, indirect=True)
    def test_quorum_still_serves_with_one_replica_killed(self, leg):
        leg.kill("node-1")
        run_script(leg)
        assert leg.failures() == 0

    @pytest.mark.parametrize("leg", REPLICATED, indirect=True)
    def test_below_quorum_one_writes_and_quorum_refuses(self, leg):
        key = b"contested"
        leg.system.set(key, b"before")
        for node_id in leg.replica_ids(key)[:2]:  # 2 of 3 replicas down
            leg.kill(node_id)
        with pytest.raises(StoreError):
            leg.system.set(key, b"refused")
        assert leg.failures() == 1
        with pytest.raises(StoreError):
            leg.system.get(key)
        assert leg.failures() == 2
        leg.system.set(key, b"one", consistency=CONSISTENCY_ONE)
        assert leg.system.get(key, consistency=CONSISTENCY_ONE) == b"one"
        assert leg.system.append(key, b"!", consistency=CONSISTENCY_ONE) == b"one!"
        assert leg.failures() == 2
