"""Abstract collective-communication backend.

The interface mirrors the subset of ``torch.distributed`` / MPI collectives
that Algorithm 1 of the paper uses:

- ``allgather``   -- collect each worker's (variable-length) index array,
- ``allreduce``   -- sum each worker's dense gradient contribution,
- ``broadcast``   -- share the delegated worker's bin-packing result,
- ``gather`` / ``barrier`` -- utilities for evaluation and lock-step control.

Backends operate on *lists of per-worker buffers* because the simulated
workers all live in one process; a real MPI backend would implement the same
interface with each rank passing only its own buffer.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

import numpy as np

__all__ = ["ReduceOp", "CollectiveBackend"]


class ReduceOp(enum.Enum):
    """Reduction operators supported by :meth:`CollectiveBackend.allreduce`."""

    SUM = "sum"
    MEAN = "mean"
    MAX = "max"
    MIN = "min"


class CollectiveBackend:
    """Interface for collective operations over ``n_workers`` ranks."""

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = int(n_workers)

    # -- collectives ---------------------------------------------------- #
    def allgather(self, buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every rank receives the concatenation of all ranks' buffers."""
        raise NotImplementedError

    def allreduce(self, buffers: Sequence[np.ndarray], op: ReduceOp = ReduceOp.SUM) -> List[np.ndarray]:
        """Every rank receives the elementwise reduction of all buffers."""
        raise NotImplementedError

    def broadcast(self, value, root: int):
        """Every rank receives ``value`` as held by ``root``."""
        raise NotImplementedError

    def gather(self, buffers: Sequence[np.ndarray], root: int) -> List[np.ndarray]:
        """Rank ``root`` receives the list of all buffers (others get [])."""
        raise NotImplementedError

    def reduce_scalar(self, values: Sequence[float], op: ReduceOp = ReduceOp.MEAN) -> float:
        """Reduce one scalar per rank to a single value (e.g. mean loss)."""
        raise NotImplementedError

    # -- row-matrix conveniences ----------------------------------------- #
    # The trainer's hot path passes its per-worker contributions as one
    # (n_workers, m) matrix, row r belonging to rank r.  These defaults
    # delegate to the list-based collectives, so any backend implementing
    # the interface above works unchanged; SimulatedBackend overrides them
    # to skip per-rank result copies.
    def allgather_rows(self, matrix: np.ndarray, tag: str = "") -> np.ndarray:
        """Allgather a row-per-rank matrix; returns the full (n, m) matrix."""
        rows = np.asarray(matrix)
        gathered = self.allgather(list(rows), tag=tag)
        return gathered[0].reshape(rows.shape)

    def allreduce_rows(
        self, matrix: np.ndarray, op: ReduceOp = ReduceOp.SUM, tag: str = ""
    ) -> np.ndarray:
        """Allreduce the rows of a row-per-rank matrix; returns one (m,) vector."""
        return self.allreduce(list(np.asarray(matrix)), op, tag=tag)[0]

    def barrier(self) -> None:
        """Synchronise all ranks (a no-op for the in-process backend)."""
        raise NotImplementedError

    # -- helpers --------------------------------------------------------- #
    def _check_ranks(self, buffers: Sequence) -> None:
        if len(buffers) != self.n_workers:
            raise ValueError(
                f"expected one buffer per worker ({self.n_workers}), got {len(buffers)}"
            )

    @staticmethod
    def _reduce(arrays: List[np.ndarray], op: ReduceOp) -> np.ndarray:
        stacked = np.stack(arrays, axis=0)
        if op is ReduceOp.SUM:
            return stacked.sum(axis=0)
        if op is ReduceOp.MEAN:
            return stacked.mean(axis=0)
        if op is ReduceOp.MAX:
            return stacked.max(axis=0)
        if op is ReduceOp.MIN:
            return stacked.min(axis=0)
        raise ValueError(f"unsupported reduce op {op!r}")
