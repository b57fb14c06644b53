"""Tests for the simulated collective backend and traffic accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.comm import CollectiveBackend, ReduceOp, SimulatedBackend, TrafficMeter


class TestAllgather:
    def test_concatenates_in_rank_order(self):
        backend = SimulatedBackend(3)
        buffers = [np.array([1, 2]), np.array([3]), np.array([4, 5, 6])]
        out = backend.allgather(buffers)
        assert len(out) == 3
        for received in out:
            np.testing.assert_array_equal(received, [1, 2, 3, 4, 5, 6])

    def test_returned_buffers_are_independent_copies(self):
        backend = SimulatedBackend(2)
        out = backend.allgather([np.array([1.0]), np.array([2.0])])
        out[0][0] = 99.0
        assert out[1][0] == 1.0

    def test_variable_length_buffers_supported(self):
        backend = SimulatedBackend(2)
        out = backend.allgather([np.arange(5), np.arange(2)])
        assert out[0].size == 7

    def test_wrong_buffer_count_raises(self):
        backend = SimulatedBackend(3)
        with pytest.raises(ValueError):
            backend.allgather([np.zeros(1)])

    def test_traffic_recorded(self):
        backend = SimulatedBackend(2)
        backend.allgather([np.arange(3), np.arange(4)], tag="indices")
        record = backend.meter.records[-1]
        assert record.op == "allgather"
        assert record.sent_per_rank == [3, 4]
        assert record.received_per_rank == [7, 7]
        assert record.tag == "indices"


class TestAllreduce:
    def test_sum(self):
        backend = SimulatedBackend(3)
        buffers = [np.full(4, float(i)) for i in range(3)]
        out = backend.allreduce(buffers, ReduceOp.SUM)
        for received in out:
            np.testing.assert_array_equal(received, np.full(4, 3.0))

    def test_mean_max_min(self):
        backend = SimulatedBackend(2)
        buffers = [np.array([1.0, 5.0]), np.array([3.0, 1.0])]
        np.testing.assert_array_equal(backend.allreduce(buffers, ReduceOp.MEAN)[0], [2.0, 3.0])
        np.testing.assert_array_equal(backend.allreduce(buffers, ReduceOp.MAX)[0], [3.0, 5.0])
        np.testing.assert_array_equal(backend.allreduce(buffers, ReduceOp.MIN)[0], [1.0, 1.0])

    def test_shape_mismatch_raises(self):
        backend = SimulatedBackend(2)
        with pytest.raises(ValueError):
            backend.allreduce([np.zeros(2), np.zeros(3)])

    def test_equals_numpy_sum(self):
        rng = np.random.default_rng(0)
        backend = SimulatedBackend(4)
        buffers = [rng.standard_normal(16) for _ in range(4)]
        out = backend.allreduce(buffers)
        np.testing.assert_allclose(out[0], np.sum(buffers, axis=0))


class TestBroadcast:
    def test_all_ranks_receive_roots_value(self):
        backend = SimulatedBackend(3)
        out = backend.broadcast({"layers": [1, 2, 3]}, root=1)
        assert all(o == {"layers": [1, 2, 3]} for o in out)

    def test_received_values_are_deep_copies(self):
        backend = SimulatedBackend(2)
        out = backend.broadcast([np.array([1.0])], root=0)
        out[0][0][0] = 42.0
        assert out[1][0][0] == 1.0

    def test_invalid_root(self):
        backend = SimulatedBackend(2)
        with pytest.raises(ValueError):
            backend.broadcast(1, root=5)

    def test_traffic_counts_only_root_as_sender(self):
        backend = SimulatedBackend(4)
        backend.broadcast(np.arange(10), root=2)
        record = backend.meter.records[-1]
        assert record.sent_per_rank == [0, 0, 10, 0]
        assert record.received_per_rank == [10] * 4


class TestGatherAndScalars:
    def test_gather_returns_all_buffers(self):
        backend = SimulatedBackend(2)
        out = backend.gather([np.array([1]), np.array([2])], root=0)
        np.testing.assert_array_equal(out[0], [1])
        np.testing.assert_array_equal(out[1], [2])

    def test_gather_invalid_root(self):
        backend = SimulatedBackend(2)
        with pytest.raises(ValueError):
            backend.gather([np.zeros(1), np.zeros(1)], root=9)

    def test_reduce_scalar_mean_and_sum(self):
        backend = SimulatedBackend(4)
        values = [1.0, 2.0, 3.0, 4.0]
        assert backend.reduce_scalar(values, ReduceOp.MEAN) == pytest.approx(2.5)
        assert backend.reduce_scalar(values, ReduceOp.SUM) == pytest.approx(10.0)
        assert backend.reduce_scalar(values, ReduceOp.MAX) == pytest.approx(4.0)
        assert backend.reduce_scalar(values, ReduceOp.MIN) == pytest.approx(1.0)

    def test_barrier_is_noop(self):
        assert SimulatedBackend(2).barrier() is None


class TestTrafficMeter:
    def test_totals_and_filters(self):
        meter = TrafficMeter()
        meter.record("allgather", [2, 3], [5, 5], tag="indices")
        meter.record("allreduce", [5, 5], [5, 5], tag="values")
        assert meter.total_sent() == 15
        assert meter.total_sent(op="allgather") == 5
        assert meter.total_sent(tag="values") == 10
        assert meter.call_count() == 2
        assert meter.call_count(op="allgather") == 1

    def test_by_tag(self):
        meter = TrafficMeter()
        meter.record("allgather", [1], [1], tag="a")
        meter.record("allgather", [2], [2], tag="a")
        meter.record("broadcast", [3], [3], tag="b")
        assert meter.by_tag() == {"a": 3, "b": 3}

    def test_reset(self):
        meter = TrafficMeter()
        meter.record("allgather", [1], [1])
        meter.reset()
        assert meter.call_count() == 0

    def test_record_properties(self):
        meter = TrafficMeter()
        record = meter.record("allgather", [4, 6], [10, 10])
        assert record.total_sent == 10
        assert record.total_received == 20
        assert record.max_sent == 6


class TestBackendValidation:
    def test_nonpositive_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SimulatedBackend(0)
        with pytest.raises(ValueError):
            CollectiveBackend(-1)

    def test_base_backend_is_abstract(self):
        backend = CollectiveBackend(2)
        with pytest.raises(NotImplementedError):
            backend.allgather([np.zeros(1), np.zeros(1)])
        with pytest.raises(NotImplementedError):
            backend.barrier()


# The trainer's hot path calls the row-matrix collectives; they claim to
# equal the list-based ones (and the interface's default delegation to
# them) bit for bit, and to meter exactly the same entry.
_row_matrices = st.tuples(st.integers(1, 6), st.integers(0, 12)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.floats(-1e6, 1e6, allow_nan=False, width=64)
    )
)


def _last_record(backend):
    record = backend.meter.records[-1]
    return (record.op, record.sent_per_rank, record.received_per_rank, record.tag)


def _bits(array):
    array = np.asarray(array)
    return array.dtype, array.shape, array.tobytes()


class TestRowCollectivesAgreeWithListCollectives:
    @settings(max_examples=80, deadline=None)
    @given(matrix=_row_matrices, op=st.sampled_from(list(ReduceOp)))
    def test_allreduce_rows(self, matrix, op):
        n = matrix.shape[0]
        fast, listed, default = (SimulatedBackend(n) for _ in range(3))
        out = fast.allreduce_rows(matrix, op, tag="values")
        expected = listed.allreduce(list(matrix), op, tag="values")[0]
        delegated = CollectiveBackend.allreduce_rows(default, matrix, op, tag="values")
        assert _bits(out) == _bits(expected) == _bits(delegated)
        assert _last_record(fast) == _last_record(listed) == _last_record(default)

    @settings(max_examples=80, deadline=None)
    @given(matrix=_row_matrices)
    def test_allgather_rows(self, matrix):
        n = matrix.shape[0]
        fast, listed, default = (SimulatedBackend(n) for _ in range(3))
        out = fast.allgather_rows(matrix, tag="indices")
        expected = listed.allgather(list(matrix), tag="indices")[0].reshape(matrix.shape)
        delegated = CollectiveBackend.allgather_rows(default, matrix, tag="indices")
        assert _bits(out) == _bits(expected) == _bits(delegated)
        assert _last_record(fast) == _last_record(listed) == _last_record(default)
