"""Worker heterogeneity: compute-speed profiles and the virtual clock.

The paper's cluster is homogeneous, but the clusters sparsification targets
rarely are: multi-tenant clouds and shared clusters exhibit lognormal
service-time spread and hard stragglers (one machine several times slower
than the rest).  The execution models price their schedules against a
*virtual clock*: every worker has a deterministic speed factor drawn from a
named profile, the modelled compute time of one batch is
``base_compute_seconds * factor``, and communication is added from the
alpha-beta model.  Everything is derived from ``RunSpec.seed`` via
:class:`~repro.utils.seeding.SeedSequenceFactory`, so two runs with the same
seed see identical stragglers.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.seeding import SeedSequenceFactory

__all__ = ["STRAGGLER_PROFILES", "build_speed_factors", "VirtualClock", "WorkerSpeedModel"]

#: Registered straggler profiles (``--straggler-profile``).
STRAGGLER_PROFILES = ("uniform", "lognormal", "straggler")


def build_speed_factors(
    profile: str,
    n_workers: int,
    seed: int = 0,
    sigma: float = 0.5,
    straggler_factor: float = 4.0,
) -> np.ndarray:
    """Per-worker compute-time multipliers for a named profile.

    - ``uniform``: every worker runs at nominal speed (factor 1.0) -- the
      paper's homogeneous cluster.
    - ``lognormal``: factors drawn from ``LogNormal(0, sigma)``, the
      standard model of service-time spread in shared clusters.
    - ``straggler``: all workers nominal except the last rank, which is
      ``straggler_factor`` times slower (a single bad machine).
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    if profile not in STRAGGLER_PROFILES:
        raise ValueError(
            f"unknown straggler profile {profile!r}; available: {list(STRAGGLER_PROFILES)}"
        )
    if profile == "uniform":
        return np.ones(n_workers, dtype=np.float64)
    if profile == "straggler":
        factors = np.ones(n_workers, dtype=np.float64)
        factors[-1] = float(straggler_factor)
        return factors
    rng = SeedSequenceFactory(seed).rng("straggler", profile)
    return rng.lognormal(mean=0.0, sigma=float(sigma), size=n_workers)


class WorkerSpeedModel:
    """Deterministic per-batch compute time of every simulated worker."""

    def __init__(
        self,
        n_workers: int,
        base_compute_seconds: float = 0.02,
        profile: str = "uniform",
        seed: int = 0,
        factors: Optional[np.ndarray] = None,
    ) -> None:
        if base_compute_seconds <= 0:
            raise ValueError("base_compute_seconds must be positive")
        self.n_workers = int(n_workers)
        self.base_compute_seconds = float(base_compute_seconds)
        self.profile = str(profile)
        self.factors = (
            np.asarray(factors, dtype=np.float64)
            if factors is not None
            else build_speed_factors(profile, n_workers, seed=seed)
        )
        if self.factors.shape != (self.n_workers,):
            raise ValueError("factors must have one entry per worker")

    def batch_seconds(self, rank: int) -> float:
        """Modelled compute time of one mini-batch on ``rank``."""
        return self.base_compute_seconds * float(self.factors[rank])

    def slowest_batch_seconds(self) -> float:
        """Compute time of one lock-step round (the slowest worker's batch)."""
        return self.base_compute_seconds * float(self.factors.max())

    def describe(self) -> dict:
        return {
            "profile": self.profile,
            "base_compute_seconds": self.base_compute_seconds,
            "min_factor": float(self.factors.min()),
            "max_factor": float(self.factors.max()),
        }


class VirtualClock:
    """Per-worker virtual time plus the global (makespan) time.

    Synchronous schedules call :meth:`advance_all` once per round; the
    event-driven async schedule advances individual workers and lets
    :attr:`now` track the latest server-side event.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.worker_time = np.zeros(n_workers, dtype=np.float64)
        self._now = 0.0

    @property
    def now(self) -> float:
        """The global virtual time (never behind any worker)."""
        return float(max(self._now, self.worker_time.max()))

    def advance_all(self, seconds: float) -> float:
        """Lock-step round: every worker (and the global clock) advances."""
        self._now = self.now + float(seconds)
        self.worker_time[:] = self._now
        return self._now

    def advance_worker(self, rank: int, seconds: float) -> float:
        """One worker runs ahead by ``seconds`` of local compute."""
        self.worker_time[rank] += float(seconds)
        return float(self.worker_time[rank])

    def advance_to(self, seconds: float) -> float:
        """Move the global clock to an absolute virtual time (monotone)."""
        self._now = max(self._now, float(seconds))
        return self._now

    def synchronize(self) -> float:
        """Barrier: every worker waits for the slowest one."""
        self._now = self.now
        self.worker_time[:] = self._now
        return self._now

    def idle_seconds(self) -> List[float]:
        """Per-worker time spent waiting at the last barrier.

        Measured against the :attr:`now` property (never behind any
        worker), so a worker that ran ahead of the last global event under
        an event-driven schedule reports zero idle time, not a negative
        one.
        """
        now = self.now
        return [float(now - t) for t in self.worker_time]
