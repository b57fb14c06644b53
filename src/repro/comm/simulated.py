"""In-process simulated collective backend.

All simulated workers live in one Python process and execute in lock step,
so collectives reduce to NumPy operations over the list of per-worker
buffers.  Every call is recorded in the attached
:class:`~repro.comm.traffic.TrafficMeter` so experiments can measure
communication volume (gradient build-up, actual density, Figure 7's
communication share) independent of transport.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.comm.backend import CollectiveBackend, ReduceOp
from repro.comm.traffic import TrafficMeter

__all__ = ["SimulatedBackend"]


def _payload_size(value) -> int:
    """Number of scalar elements in a buffer-like payload."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.size)
    if isinstance(value, (list, tuple)):
        return int(sum(_payload_size(v) for v in value))
    if isinstance(value, dict):
        return int(sum(_payload_size(v) for v in value.values()))
    if isinstance(value, (int, float, np.integer, np.floating)):
        return 1
    # Fallback: treat opaque objects as a single element.
    return 1


class SimulatedBackend(CollectiveBackend):
    """Lock-step, single-process implementation of the collective interface."""

    def __init__(self, n_workers: int, meter: Optional[TrafficMeter] = None) -> None:
        super().__init__(n_workers)
        self.meter = meter if meter is not None else TrafficMeter()

    # ------------------------------------------------------------------ #
    def allgather(self, buffers: Sequence[np.ndarray], tag: str = "") -> List[np.ndarray]:
        self._check_ranks(buffers)
        arrays = [np.asarray(b) for b in buffers]
        gathered = np.concatenate([a.reshape(-1) for a in arrays]) if arrays else np.empty(0)
        sent = [int(a.size) for a in arrays]
        received = [int(gathered.size)] * self.n_workers
        self.meter.record("allgather", sent, received, tag=tag)
        return [gathered.copy() for _ in range(self.n_workers)]

    def allreduce(
        self,
        buffers: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        tag: str = "",
    ) -> List[np.ndarray]:
        self._check_ranks(buffers)
        arrays = [np.asarray(b) for b in buffers]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"allreduce requires equal shapes, got {sorted(map(str, shapes))}")
        reduced = self._reduce(arrays, op)
        sent = [int(a.size) for a in arrays]
        received = [int(reduced.size)] * self.n_workers
        self.meter.record("allreduce", sent, received, tag=tag)
        return [reduced.copy() for _ in range(self.n_workers)]

    # ------------------------------------------------------------------ #
    # Row-matrix fast paths for the trainer's per-iteration hot loop.  The
    # lock-step simulation means every rank "receives" the same memory, so
    # these record exactly the meter entry of their list-based equivalent
    # (same op, same sent/received sizes -- the cost model prices them
    # identically) but skip materialising one copy of the payload per rank.
    # Callers must treat the returned arrays as read-only shared views.
    def allgather_rows(self, matrix: np.ndarray, tag: str = "") -> np.ndarray:
        """Metered allgather of a ``(n_workers, m)`` row-per-rank matrix.

        Equivalent to ``allgather(list(matrix))[0].reshape(n_workers, m)``
        without the concatenation and the per-rank copies.
        """
        rows = np.asarray(matrix)
        if rows.ndim != 2:
            raise ValueError(f"expected a (n_workers, m) matrix, got shape {rows.shape}")
        self._check_ranks(rows)
        m = int(rows.shape[1])
        self.meter.record(
            "allgather", [m] * self.n_workers, [m * self.n_workers] * self.n_workers, tag=tag
        )
        return rows

    def allreduce_rows(
        self, matrix: np.ndarray, op: ReduceOp = ReduceOp.SUM, tag: str = ""
    ) -> np.ndarray:
        """Metered allreduce over the rows of a ``(n_workers, m)`` matrix.

        Equivalent to ``allreduce(list(matrix))[0]`` without the per-rank
        result copies; the reduction itself matches ``_reduce`` on the
        stacked rows bit for bit (same ``ndarray.sum``-family kernels).
        """
        rows = np.asarray(matrix)
        if rows.ndim != 2:
            raise ValueError(f"expected a (n_workers, m) matrix, got shape {rows.shape}")
        self._check_ranks(rows)
        # ``_reduce`` would np.stack the rows back into exactly this matrix;
        # reduce it directly (same kernels, same result, no copy).
        if op is ReduceOp.SUM:
            reduced = rows.sum(axis=0)
        elif op is ReduceOp.MEAN:
            reduced = rows.mean(axis=0)
        elif op is ReduceOp.MAX:
            reduced = rows.max(axis=0)
        elif op is ReduceOp.MIN:
            reduced = rows.min(axis=0)
        else:
            raise ValueError(f"unsupported reduce op {op!r}")
        m = int(rows.shape[1])
        self.meter.record("allreduce", [m] * self.n_workers, [int(reduced.size)] * self.n_workers, tag=tag)
        return reduced

    def broadcast(self, value, root: int, tag: str = ""):
        if not 0 <= root < self.n_workers:
            raise ValueError(f"root {root} out of range for {self.n_workers} workers")
        size = _payload_size(value)
        sent = [0] * self.n_workers
        sent[root] = size
        received = [size] * self.n_workers
        self.meter.record("broadcast", sent, received, tag=tag)
        return [copy.deepcopy(value) for _ in range(self.n_workers)]

    def gather(self, buffers: Sequence[np.ndarray], root: int, tag: str = "") -> List[np.ndarray]:
        self._check_ranks(buffers)
        if not 0 <= root < self.n_workers:
            raise ValueError(f"root {root} out of range for {self.n_workers} workers")
        arrays = [np.asarray(b).copy() for b in buffers]
        sent = [int(a.size) for a in arrays]
        received = [0] * self.n_workers
        received[root] = int(sum(sent))
        self.meter.record("gather", sent, received, tag=tag)
        return arrays

    # ------------------------------------------------------------------ #
    # Point-to-point parameter-server traffic.  The server is not a rank:
    # a push contributes only the sender's payload, a pull only the
    # receiver's, so the meter prices server links independently of the
    # collectives.
    def push(self, rank: int, payload: int, tag: str = "") -> None:
        """Record one worker pushing ``payload`` elements to the server."""
        if not 0 <= rank < self.n_workers:
            raise ValueError(f"rank {rank} out of range for {self.n_workers} workers")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        sent = [0] * self.n_workers
        sent[rank] = int(payload)
        self.meter.record("push", sent, [0] * self.n_workers, tag=tag, src=rank)

    def pull(self, rank: int, payload: int, tag: str = "") -> None:
        """Record one worker pulling ``payload`` elements from the server."""
        if not 0 <= rank < self.n_workers:
            raise ValueError(f"rank {rank} out of range for {self.n_workers} workers")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        received = [0] * self.n_workers
        received[rank] = int(payload)
        self.meter.record("pull", [0] * self.n_workers, received, tag=tag, dst=rank)

    def send(self, src: int, dst: int, payload: int, tag: str = "") -> None:
        """Record one worker-to-worker point-to-point message.

        Gossip schedules exchange sparse deltas directly between neighbour
        ranks; neither endpoint is a server, so both sides of the link are
        attributed (``payload`` sent by ``src``, received by ``dst``) and
        the cost model can route the message over the topology path.
        """
        for rank in (src, dst):
            if not 0 <= rank < self.n_workers:
                raise ValueError(f"rank {rank} out of range for {self.n_workers} workers")
        if src == dst:
            raise ValueError("send requires distinct src and dst ranks")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        sent = [0] * self.n_workers
        sent[src] = int(payload)
        received = [0] * self.n_workers
        received[dst] = int(payload)
        self.meter.record("send", sent, received, tag=tag, src=src, dst=dst)

    def reduce_scalar(self, values: Sequence[float], op: ReduceOp = ReduceOp.MEAN, tag: str = "") -> float:
        self._check_ranks(values)
        arr = np.asarray([float(v) for v in values], dtype=np.float64)
        self.meter.record("reduce_scalar", [1] * self.n_workers, [1] * self.n_workers, tag=tag)
        if op is ReduceOp.MEAN:
            return float(arr.mean())
        if op is ReduceOp.SUM:
            return float(arr.sum())
        if op is ReduceOp.MAX:
            return float(arr.max())
        if op is ReduceOp.MIN:
            return float(arr.min())
        raise ValueError(f"unsupported reduce op {op!r}")

    def barrier(self) -> None:
        """All simulated workers are already in lock step; nothing to do."""
        return None
