"""Execution backends: how modelled worker ranks actually run.

- ``simulated`` (:mod:`repro.comm.simulated`): every rank in one Python
  process in lock step -- fully deterministic, the oracle all other
  backends are verified against.
- ``multiprocess`` (:mod:`repro.backends.multiprocess`): each worker is a
  real OS process; tensors move through ``multiprocessing.shared_memory``
  arenas coordinated by a seqlock control block
  (:mod:`repro.backends.shm`).

Both implement the :class:`~repro.comm.backend.CollectiveBackend`
metering interface, so traffic accounting, topology pricing and the run
ledger are backend-agnostic.  Select one with ``ExecutionSpec.backend``
/ ``repro train --backend``.
"""

from repro.backends.multiprocess import MultiprocessBackend
from repro.backends.registry import available_backends, build_backend_component

__all__ = ["MultiprocessBackend", "available_backends", "build_backend_component"]
