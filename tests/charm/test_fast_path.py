"""Property tests for the per-message fast path.

The runtime resolves an element's canonical index and home PE once,
when its array is created, and the fabric reads a precomputed PE→node
table; the poll sweep skips its host-side scan while nothing has
landed.  None of that may change what the slow paths computed: the
same canonical indices, the same errors, the same wire bytes, the same
detections.
"""

import itertools
import pickle
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ABE, Buffer, Chare, Runtime
from repro import ckdirect as ckd
from repro.charm import BlockMap, CustomMap, RoundRobinMap
from repro.charm.array import normalize
from repro.charm.callback import CkCallback
from repro.charm.errors import MappingError
from repro.charm.mapping import linear_index
from repro.network.topology import FatTree, TopologyError, Torus3D

from tests.ckdirect.channel_helpers import CROSS, Endpoint


class Sink(Chare):
    """Records nothing; exists to be addressed."""

    def ping(self, *args):
        pass


@lru_cache(maxsize=None)
def _array(dims):
    rt = Runtime(ABE, n_pes=4)
    return rt.create_array(Sink, dims=dims)


dims_st = st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                   max_size=3).map(tuple)


def _forms(idx):
    """Spellings of one index the general path accepts."""
    out = [idx, list(idx), tuple(np.int64(i) for i in idx),
           tuple(float(i) for i in idx), np.array(idx)]
    if all(i in (0, 1) for i in idx):
        out.append(tuple(bool(i) for i in idx))
    if len(idx) == 1:
        out += [idx[0], np.int64(idx[0]), float(idx[0])]
        if idx[0] in (0, 1):
            out.append(bool(idx[0]))
    return out


def _reference(index, dims):
    """The general path: normalize, then the bounds check."""
    idx = normalize(index)
    linear_index(idx, dims)
    return idx


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # compare error types, not messages
        return ("raise", type(exc))


@given(dims_st, st.data())
@settings(max_examples=80, deadline=None)
def test_normalize_index_matches_general_path(dims, data):
    arr = _array(dims)
    arity = data.draw(st.sampled_from([len(dims), len(dims), len(dims) + 1,
                                       max(len(dims) - 1, 1)]))
    idx = tuple(data.draw(st.integers(min_value=-2, max_value=5))
                for _ in range(arity))
    for form in _forms(idx):
        fast = _outcome(lambda: arr.normalize_index(form))
        assert fast == _outcome(lambda: _reference(form, arr.dims)), form
        if fast[0] == "ok":
            assert all(type(i) is int for i in fast[1])
            assert arr.pe_of(form) == arr.mapping.pe_for(fast[1], arr.dims, 4)


@given(dims_st, st.data())
@settings(max_examples=60, deadline=None)
def test_out_of_range_and_wrong_arity_raise(dims, data):
    arr = _array(dims)
    axis = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
    bad = data.draw(st.sampled_from([-1, dims[axis], dims[axis] + 3]))
    idx = [0] * len(dims)
    idx[axis] = bad
    for form in (tuple(idx), list(idx), tuple(np.int64(i) for i in idx)):
        with pytest.raises(MappingError):
            arr.normalize_index(form)
        with pytest.raises(MappingError):
            arr.pe_of(form)
    with pytest.raises(MappingError):
        arr.normalize_index((0,) * (len(dims) + 1))


@given(dims_st, st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_pe_table_matches_pe_for(dims, n_pes):
    indices = list(itertools.product(*(range(d) for d in dims)))
    custom = CustomMap(lambda idx, d, n: sum(idx) % n)
    for mapping in (BlockMap(), RoundRobinMap(), custom):
        table = mapping.pe_table(dims, n_pes)
        assert table == [mapping.pe_for(i, dims, n_pes) for i in indices]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_message_indices_are_plain_ints(data):
    dims = (3, 2)
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Sink, dims=dims)
    seen = []
    deliver = rt._deliver

    def capture(pe, msg):
        seen.append(msg)
        deliver(pe, msg)

    rt._deliver = capture
    sent = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        idx = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)))
        form = data.draw(st.sampled_from(_forms(idx)))
        how = data.draw(st.sampled_from(["proxy", "send", "callback"]))
        if how == "proxy":
            arr.proxy[form].ping()
        elif how == "send":
            rt.send(arr, form, "ping")
        else:
            CkCallback.send(arr, form, "ping").invoke(rt)
        sent.append(idx)
    rt.run()
    got = sorted(m.index for m in seen if m.array_id == arr.id)
    assert got == sorted(sent)
    for msg in seen:
        assert all(type(i) is int for i in msg.index)
        # the bytes a sharded run ships for the index are unchanged
        assert pickle.dumps(msg.index) == pickle.dumps(tuple(int(i) for i in msg.index))


class Receiver(Endpoint):
    """Endpoint that holds extra armed handles nobody writes to, so
    its poll sweeps run (and clear the dirty flag) while the watched
    handle is outside the polling queue."""

    def arm_idle(self, n):
        for _ in range(n):
            ckd.create_handle(self, Buffer(array=np.zeros(4)), -1.0,
                              self.on_data)

    def poke(self):
        pass

    def rearm(self, handle):
        ckd.ready_poll_q(handle)
        self.sweeps_at_rearm = self.rt.trace.counter("pe.poll_sweeps")


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_landed_before_ready_poll_q_detected_next_sweep(idle, pokes):
    rt = Runtime(ABE, n_pes=2 * ABE.cores_per_node)
    arr = rt.create_array(Receiver, dims=(2,), mapping=CROSS)
    recv, send = arr.element(0), arr.element(1)
    handle = recv.make_handle()
    ckd.assoc_local(send, handle, send.send_buf)
    arr.proxy[0].arm_idle(idle)
    arr.proxy[1].do_put(handle)
    rt.run()
    assert len(recv.fired) == 1
    arr.proxy[0].do_ready_mark(handle)
    rt.run()
    # the second put lands while the handle is marked but not polled
    arr.proxy[1].do_put(handle)
    rt.run()
    assert handle.arrived and handle.hid not in recv._pe.pollq
    for _ in range(pokes):  # unrelated scheduler iterations in between
        arr.proxy[0].poke()
        rt.run()
    arr.proxy[0].rearm(handle)
    rt.run()
    assert len(recv.fired) == 2
    # detected by the first sweep after ready_poll_q, which is the last
    assert rt.trace.counter("pe.poll_sweeps") == recv.sweeps_at_rearm + 1
    assert handle.hid not in recv._pe.pollq


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_node_of_rejects_out_of_range_ranks(nodes, cores, beyond):
    for topo in (FatTree(nodes, cores), Torus3D((nodes, 1, 1), cores)):
        n = topo.n_pes
        assert [topo.node_of(pe) for pe in range(n)] == [pe // cores for pe in range(n)]
        for bad in (-1, -beyond, n, n + beyond):
            with pytest.raises(TopologyError):
                topo.node_of(bad)
            with pytest.raises(TopologyError):
                topo.same_node(0, bad)


@given(dims_st, st.data())
@settings(max_examples=60, deadline=None)
def test_non_integral_components_raise_mapping_error(dims, data):
    """A fractional or non-numeric component is never truncated onto a
    neighbouring element: every path raises MappingError."""
    arr = _array(dims)
    idx = [0] * len(dims)
    axis = data.draw(st.integers(min_value=0, max_value=len(dims) - 1))
    idx[axis] = data.draw(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).filter(
            lambda f: not float(f).is_integer()),
        st.text(min_size=1, max_size=3),
        st.none(),
    ))
    for form in (tuple(idx), list(idx)):
        with pytest.raises(MappingError):
            arr.normalize_index(form)
        with pytest.raises(MappingError):
            arr.pe_of(form)
        with pytest.raises(MappingError):
            arr.proxy[form]
        with pytest.raises(MappingError):
            normalize(form)


def test_fractional_and_string_indices_do_not_deliver():
    rt = Runtime(ABE, n_pes=4)
    arr = rt.create_array(Sink, dims=(3, 2))
    for bad in [(1.5, 1), "ab", 1.5, "1", b"\x01", None, (np.float64(0.25), 0)]:
        with pytest.raises(MappingError):
            arr.proxy[bad].ping()
        with pytest.raises(MappingError):
            rt.send(arr, bad, "ping")
    # integral floats and numpy ints still resolve to the plain-int index
    assert arr.normalize_index((1.0, 1)) == (1, 1)
    assert arr.normalize_index((np.int32(2), np.float32(0.0))) == (2, 0)
    assert arr.proxy[(np.int64(1), 1.0)].index == (1, 1)
    assert rt.sim.pending == 0  # nothing was sent by the bad indices
