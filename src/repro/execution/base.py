"""Execution-model interface: *when* workers compute, exchange and apply.

Algorithm 1 of the paper is a bulk-synchronous (BSP) loop: every worker
computes one batch, the group sparsifies and aggregates, the model advances,
repeat.  PR 1 made the aggregation *rule* pluggable; this package makes the
*schedule* pluggable too.  An :class:`ExecutionModel` owns the epoch /
iteration loop of :class:`~repro.training.trainer.DistributedTrainer` and
decides when the sparsified exchange happens and which workers take part:

- ``synchronous``  -- the paper's BSP loop, extracted verbatim so benign
  runs stay bit-identical to the pre-refactor trainer;
- ``local_sgd``    -- H dense local steps per worker, then a sparsified
  averaging round (periodic-averaging / local SGD);
- ``async_bsp``    -- DOWNPOUR-style bounded-staleness push/pull against a
  simulated parameter server with staleness-weighted aggregation;
- ``elastic``      -- AEASGD-style elastic averaging around a center
  variable held by the server.

Each model also prices its schedule on the virtual clock (see
:mod:`repro.execution.straggler`), so the estimated wall-clock of a run
reflects stragglers and server traffic, not just collective payloads.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["ExecutionModel", "flatten_parameters", "load_flat_parameters"]


def flatten_parameters(model) -> np.ndarray:
    """Concatenate all parameter values into one float64 vector."""
    chunks: List[np.ndarray] = []
    for param in model.parameters():
        chunks.append(np.asarray(param.data, dtype=np.float64).reshape(-1))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


def load_flat_parameters(model, flat: np.ndarray) -> None:
    """Write a flat float64 vector back into a model's parameters."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    offset = 0
    for param in model.parameters():
        size = param.size
        param.data = flat[offset : offset + size].reshape(param.shape).astype(param.data.dtype)
        offset += size
    if offset != flat.size:
        raise ValueError(f"parameter vector has {flat.size} elements, model expects {offset}")


class ExecutionModel:
    """Base class of all execution schedules."""

    #: Registry name, reported in run metadata and the CLI ``list`` output.
    name: str = "base"
    #: Whether workers keep diverging local parameter copies between
    #: exchanges (local SGD, elastic) or share one model state (BSP).
    has_local_models: bool = False
    #: Whether the schedule communicates point-to-point with a parameter
    #: server (priced with push/pull costs) instead of collectives.
    uses_parameter_server: bool = False

    def __init__(self, **kwargs) -> None:
        # Tolerate the uniform knob set the runner passes to every model;
        # subclasses pick out the knobs they understand.
        self._extra_kwargs = dict(kwargs)
        self.trainer = None

    # ------------------------------------------------------------------ #
    def bind(self, trainer) -> None:
        """Attach the schedule to a fully constructed trainer."""
        self.trainer = trainer
        self._post_bind()

    def _post_bind(self) -> None:
        """Hook for subclasses validating their knobs against the trainer's spec."""

    def _require_trainer(self):
        if self.trainer is None:
            raise RuntimeError(f"{type(self).__name__}.bind() must be called before run()")
        return self.trainer

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, float]:
        """Run all configured epochs; returns the last epoch's summary."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Qualitative properties for reports and the CLI ``list`` output."""
        return {
            "name": self.name,
            "local_models": self.has_local_models,
            "parameter_server": self.uses_parameter_server,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
