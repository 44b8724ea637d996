"""Simulated networked front-end (paper §6.4, Figure 18).

The networked evaluation adds two costs on top of the standalone store:

* **socket I/O** — kernel entries for ``recv``/``send`` plus per-byte
  line costs, with a lightly serialized kernel network-stack section
  that keeps 4-thread scaling below ideal (Table 1: memcached scales
  313->877 Kop/s, ~2.8x on 4 cores);
* **enclave crossings** — an enclave server must leave the enclave for
  every socket call.  The OCALL front-end pays two ~8,000-cycle
  crossings per request; the HotCalls front-end replaces them with two
  ~620-cycle shared-memory exchanges (Weisse et al.).  The process
  partition engine behind the event-loop TCP server in
  :mod:`repro.net.tcp` moves its frames through sealed shared-memory
  rings (:mod:`repro.core.shmring`), but its waits are doorbell naps,
  not a modeled HotCall.

Plus, when the session is secure, request/response en/decryption under
the attested session key (§3.2).

The server is driven synchronously by the experiment harness — the
paper's 256 concurrent clients keep the server saturated, so simulated
throughput is server-side cost per request.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import KeyNotFoundError, ProtocolError, WorkerError
from repro.net.message import (
    STATUS_ERROR,
    STATUS_MISS,
    STATUS_OK,
    Request,
    Response,
    SecureChannel,
    decode_cas_value,
    decode_multi_items,
    decode_multi_keys,
    decode_request,
    decode_response,
    encode_multi_values,
    encode_request,
    encode_response,
)
from repro.sim.clock import PagingSerializer

FRONTEND_DIRECT = "direct"      # insecure server: no enclave at all
FRONTEND_OCALL = "ocall"        # enclave server, socket I/O via OCALLs
FRONTEND_HOTCALLS = "hotcalls"  # enclave server, switchless HotCalls

# Serialized kernel network-stack section per request (softirq, socket
# locks); calibrated against Table 1's 4-thread memcached scaling.
NET_SERIAL_US = 0.25


def _get(store, request: Request) -> bytes:
    return store.get(request.key)


def _set(store, request: Request) -> bytes:
    store.set(request.key, request.value)
    return b""


def _append(store, request: Request) -> bytes:
    return store.append(request.key, request.value)


def _delete(store, request: Request) -> bytes:
    store.delete(request.key)
    return b""


def _increment(store, request: Request) -> bytes:
    return b"%d" % store.increment(request.key, int(request.value or b"1"))


def _cas(store, request: Request) -> bytes:
    expected, new_value = decode_cas_value(request.value)
    swapped = store.compare_and_swap(request.key, expected, new_value)
    return b"1" if swapped else b"0"


# Pipelined MGET/MSET/MDELETE: every store that serves requests has the
# batched pipeline (``multi_get`` and friends).
def _mget(store, request: Request) -> bytes:
    keys = decode_multi_keys(request.value)
    found = store.multi_get(keys)
    return encode_multi_values([found[bytes(key)] for key in keys])


def _mset(store, request: Request) -> bytes:
    store.multi_set(decode_multi_items(request.value))
    return b""


def _mdelete(store, request: Request) -> bytes:
    keys = decode_multi_keys(request.value)
    deleted = store.multi_delete(keys)
    return encode_multi_values([b"1" if deleted[bytes(key)] else None for key in keys])


#: wire op -> ``handler(store, request)`` returning the reply's value
#: field: the one place a wire verb meets the store API on the serving
#: side (:class:`~repro.net.message.StoreVerbs` is the client-side
#: inverse).  WAL replay re-applies logged frames through the mutating
#: entries of this same table (:func:`repro.core.wal.apply_request`).
STORE_VERBS = {
    "get": _get,
    "set": _set,
    "append": _append,
    "delete": _delete,
    "increment": _increment,
    "cas": _cas,
    "mget": _mget,
    "mset": _mset,
    "mdelete": _mdelete,
}


def execute_request(store, request: Request) -> Response:
    """Serve one decoded request (single-key or batch) against ``store``.

    The op table shared by every front-end: the cost-modeled
    :class:`NetworkedServer`, the real TCP server, and the multiprocess
    partition workers (:mod:`repro.core.procpool`).  Missing keys come
    back as ``STATUS_MISS``; integrity/crypto failures propagate to the
    caller, because what to do with a tampered store is a front-end
    policy decision (drop the session, crash the worker, ...).
    """
    try:
        handler = STORE_VERBS.get(request.op)
        if handler is not None:
            return Response(STATUS_OK, handler(store, request))
        # Replication verbs (repro.ext.replication).  Only replication-
        # capable stores answer them; anything else falls through to
        # STATUS_ERROR, so a stray OP_REPLICATE at a plain server is a
        # visible error rather than a silent write.
        if request.op == "vget":
            if not hasattr(store, "get_versioned"):
                return Response(STATUS_ERROR)
            return Response(STATUS_OK, store.get_versioned(request.key))
        if request.op == "replicate":
            if not hasattr(store, "apply_remote"):
                return Response(STATUS_ERROR)
            applied, node_clock = store.apply_remote(request.key, request.value)
            return Response(STATUS_OK, b"%d:%d" % (int(applied), node_clock))
        if request.op == "sync":
            if not hasattr(store, "serve_sync"):
                return Response(STATUS_ERROR)
            return Response(STATUS_OK, store.serve_sync(request.key, request.value))
    except KeyNotFoundError:
        return Response(STATUS_MISS)
    except WorkerError:
        # A partition worker died mid-request.  The pool recovers in
        # place (respawn + snapshot restore), so the fault is transient:
        # report an error for *this* request instead of letting the
        # exception tear down the whole connection/session.
        return Response(STATUS_ERROR)
    return Response(STATUS_ERROR)


class NetworkedServer:
    """Request front-end wrapping any store implementation."""

    def __init__(
        self,
        store,
        frontend: str = FRONTEND_OCALL,
        server_channel: Optional[SecureChannel] = None,
        client_channel: Optional[SecureChannel] = None,
    ):
        if frontend not in (FRONTEND_DIRECT, FRONTEND_OCALL, FRONTEND_HOTCALLS):
            raise ProtocolError(f"unknown front-end {frontend!r}")
        self.store = store
        self.machine = store.machine
        self.frontend = frontend
        self.server_channel = server_channel
        self.client_channel = client_channel
        self._net_lock = PagingSerializer()
        self.machine.register_serializer(self._net_lock)
        self.requests_served = 0

    # -- internals ---------------------------------------------------------
    def _serving_thread(self, key: bytes) -> int:
        from repro.experiments.common import serving_thread

        return serving_thread(self.store, key)

    def _charge_network(self, clock, nbytes: int) -> None:
        cost = self.machine.cost
        # recv + send kernel entries and line costs; a slice of the
        # kernel stack work is serialized across all server threads.
        total = 2 * cost.syscall_cycles + cost.us_to_cycles(
            nbytes * cost.net_per_byte_us
        )
        serialized = cost.us_to_cycles(NET_SERIAL_US)
        clock.charge(max(0.0, total - serialized))
        self._net_lock.service(clock, serialized)

    def _charge_crossings(self, clock) -> None:
        cost = self.machine.cost
        if self.frontend == FRONTEND_OCALL:
            clock.charge(2 * cost.ocall_cycles)
            self.machine.counters.ocalls += 2
        elif self.frontend == FRONTEND_HOTCALLS:
            clock.charge(2 * cost.hotcall_cycles)
            self.machine.counters.hotcalls += 2

    def _execute(self, request: Request) -> Response:
        return execute_request(self.store, request)

    # -- entry point ---------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Serve one request, charging all front-end costs."""
        thread = self._serving_thread(request.key)
        clock = self.machine.clock.threads[thread]
        cost = self.machine.cost

        raw = encode_request(request)
        secured = self.server_channel is not None
        if secured:
            wire = self.client_channel.seal(raw)
        else:
            wire = raw

        self._charge_network(clock, len(wire))
        self._charge_crossings(clock)
        if self.frontend != FRONTEND_DIRECT:
            # Request bytes are copied from the untrusted socket buffer
            # into enclave memory (and the response back out) — the
            # "copying data back and forth from an enclave" cost of §6.4.
            clock.charge(cost.mem_cycles(len(wire), write=True, in_epc=True))

        if secured:
            # Decrypt + verify the request inside the enclave.
            clock.charge(cost.aes_cycles(len(raw)) + cost.cmac_cycles(len(wire)))
            raw = self.server_channel.open(wire)
        response = self._execute(decode_request(raw))
        out = encode_response(response)
        if self.frontend != FRONTEND_DIRECT:
            clock.charge(cost.mem_cycles(len(out), write=True, in_epc=True))
        if secured:
            clock.charge(cost.aes_cycles(len(out)) + cost.cmac_cycles(len(out)))
            sealed_out = self.server_channel.seal(out)
            response_raw = self.client_channel.open(sealed_out)
            response = decode_response(response_raw)
        self.requests_served += 1
        return response


def make_secure_channels(suite_client, suite_server):
    """Build the paired channels after an attested handshake.

    Returns (client_channel, server_channel) sharing session keys.
    """
    return SecureChannel(suite_client, "client"), SecureChannel(suite_server, "server")
