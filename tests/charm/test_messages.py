"""Unit tests for Payload and Message plumbing."""

import numpy as np
import pytest

from repro import ABE, Chare, Runtime
from repro.charm import CharmError, CustomMap, Payload
from repro.charm.message import (
    Message,
    payload_bytes,
    unwrap_args,
    wrap_args,
)


def test_payload_needs_backing():
    with pytest.raises(CharmError):
        Payload()


def test_payload_nbytes_consistency_check():
    with pytest.raises(CharmError):
        Payload(data=np.zeros(4), nbytes=999)
    p = Payload(data=np.zeros(4), nbytes=32)
    assert p.nbytes == 32


def test_virtual_payload():
    p = Payload.virtual(512)
    assert p.is_virtual
    assert p.nbytes == 512
    assert not p.pack  # virtual helper is pre-packed by convention


def test_marshalled_snapshots_packed_data():
    arr = np.arange(4.0)
    p = Payload(data=arr, pack=True)
    m = p.marshalled()
    arr[0] = 99.0
    assert m.data[0] == 0.0
    assert not m.pack  # already marshalled


def test_marshalled_noop_for_unpacked():
    arr = np.arange(4.0)
    p = Payload(data=arr, pack=False)
    assert p.marshalled() is p


def test_wrap_unwrap_roundtrip():
    arr = np.arange(3.0)
    explicit = Payload(data=np.ones(2), pack=False)
    args = wrap_args((arr, explicit, 5, "x"))
    assert isinstance(args[0], Payload) and args[0].auto
    assert args[1] is explicit
    out = unwrap_args(tuple(a.marshalled() if isinstance(a, Payload) else a
                            for a in args))
    assert isinstance(out[0], np.ndarray)
    assert np.array_equal(out[0], arr)
    assert out[1] is explicit
    assert out[2:] == (5, "x")


def test_payload_bytes_sums_payloads_only():
    args = (Payload.virtual(100), Payload.virtual(28), 7, "meta")
    assert payload_bytes(args) == 128


def test_message_ids_unique():
    a = Message(1, (0,), "m", (), 0, None, 0.0)
    b = Message(1, (0,), "m", (), 0, None, 0.0)
    assert a.id != b.id


def test_message_fields():
    m = Message(3, (1, 2), "go", ("a",), 64, 5, 1.5e-6, is_internal=True)
    assert m.array_id == 3
    assert m.index == (1, 2)
    assert m.method == "go"
    assert m.nbytes == 64
    assert m.src_pe == 5
    assert m.is_internal


# ---------------------------------------------------------------------------
# The send -> deliver path
# ---------------------------------------------------------------------------


class Relay(Chare):
    """Records what its entry methods receive; forwards on request."""

    def __init__(self):
        self.got = []

    def take(self, *args):
        self.got.append(args)

    def forward(self, dst, args):
        self.rt.send(self._array, dst, "take", args)

    def forward_then_write(self, dst, data):
        self.proxy[dst].take(data)
        data[:] = -1.0  # a write after the send

    def ping(self, hops):
        if hops:
            n = self._array.dims[0]
            self.proxy[(self.thisIndex[0] + 1) % n].ping(hops - 1)


def _relay_runtime(n=2):
    # one element per node, so sends cross the network
    rt = Runtime(ABE, n_pes=n * ABE.cores_per_node)
    arr = rt.create_array(
        Relay, dims=(n,),
        mapping=CustomMap(lambda idx, dims, n_pes: idx[0] * ABE.cores_per_node),
    )
    return rt, arr


def _capture(rt):
    seen = []
    deliver = rt._deliver

    def capture(pe, msg):
        seen.append(msg)
        deliver(pe, msg)

    rt._deliver = capture
    return seen


def test_args_without_arrays_reach_handler_unchanged():
    rt, arr = _relay_runtime()
    seen = _capture(rt)
    marker = object()
    args = (5, "x", (1, 2), marker, None)
    rt.send(arr, 0, "forward", (1, args))
    rt.run()
    (got,) = arr.element(1).got
    assert got == args
    assert all(a is b for a, b in zip(got, args))
    take = [m for m in seen if m.method == "take"]
    assert len(take) == 1
    # no payload and no ndarray: the wire form is the sender's tuple
    assert take[0].args is args
    assert not take[0].unwrap
    assert take[0].nbytes == 0


def test_ndarray_argument_is_snapshotted_at_send():
    rt, arr = _relay_runtime()
    seen = _capture(rt)
    data = np.arange(6.0)
    rt.send(arr, 0, "forward_then_write", (1, data))
    rt.run()
    (got,) = arr.element(1).got
    assert isinstance(got[0], np.ndarray)
    assert np.array_equal(got[0], np.arange(6.0))  # write was invisible
    assert np.all(data == -1.0)
    take = [m for m in seen if m.method == "take"]
    assert take[0].unwrap and take[0].nbytes == data.nbytes
    assert rt.trace.counter("charm.pack_copies") == 1


def test_explicit_payload_is_delivered_as_payload():
    rt, arr = _relay_runtime()
    payload = Payload.virtual(256)
    rt.send(arr, 0, "forward", (1, (payload, 3)))
    rt.run()
    (got,) = arr.element(1).got
    assert got[0] is payload and got[1] == 3
    # the forward hop nests the payload in a tuple: only "take" counts it
    assert rt.trace.counter("charm.msg_bytes") == 256
    assert rt.trace.counter("charm.pack_copies") == 0


def _ping_counters(rt, arr, hops=6):
    arr.proxy[0].ping(hops)
    rt.run()
    return dict(rt.trace.counters)


def test_counter_key_set_survives_reset_and_restore():
    fresh_rt, fresh_arr = _relay_runtime(3)
    reference = _ping_counters(fresh_rt, fresh_arr)
    assert {"charm.msgs_sent", "pe.messages_executed", "net.transfers",
            "net.bytes", "ib.charm.eager"} <= set(reference)

    rt, arr = _relay_runtime(3)
    bound = rt.trace.counters
    first = _ping_counters(rt, arr)
    assert first == reference
    snap = rt.trace.tw_checkpoint()

    rt.trace.reset()
    assert dict(rt.trace.counters) == {}
    # the hot paths count into the same dict object after a reset
    assert _ping_counters(rt, arr) == reference
    assert rt.trace.counters is bound

    _ping_counters(rt, arr)
    rt.trace.tw_restore(snap)
    assert dict(rt.trace.counters) == first
    assert rt.trace.counters is bound
    # ... and after a restore: a further run adds exactly one run's worth
    again = _ping_counters(rt, arr)
    assert set(again) == set(reference)
    assert all(again[k] == first[k] + reference[k] for k in reference)
