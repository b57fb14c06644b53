"""'A Little Is Enough' attack (Baruch et al., 2019).

The colluding Byzantine workers estimate the coordinate-wise mean and
standard deviation of the benign contributions and all send
``mean - z * std``: a perturbation small enough to sit inside the benign
spread (evading distance- and score-based defences) yet consistently biased
away from the descent direction.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.attacks.base import Adversary

__all__ = ["ALittleIsEnoughAttack"]


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF.

    scipy is imported here, not at module scope: it is the slowest import
    of the package and only runs that use this attack need it.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    from scipy import special

    return float(special.ndtri(p))


class ALittleIsEnoughAttack(Adversary):
    """Colluding perturbation within the benign standard deviation.

    ``z`` defaults to the paper's maximal cheating factor ``z_max``: the
    normal quantile at ``(n - f - s) / (n - f)`` where
    ``s = floor(n/2 + 1) - f`` is the number of benign supporters a
    corrupted value still needs to look like a majority.
    """

    name = "alie"
    colluding = True

    def __init__(self, n_byzantine: int = 0, z: Optional[float] = None) -> None:
        super().__init__(n_byzantine)
        self.z = float(z) if z is not None else None

    def _z_max(self) -> float:
        n, f = self.n_workers, self.n_byzantine
        s = math.floor(n / 2 + 1) - f
        benign = n - f
        phi = (benign - s) / benign if benign > 0 else 0.0
        if not 0.0 < phi < 1.0:
            return 1.0
        z = _normal_quantile(phi)
        return z if z > 0.0 else 1.0

    def corrupt_accumulators(
        self, iteration: int, accumulators: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        out = list(accumulators)
        byzantine = self.byzantine_ranks
        if not byzantine:
            return out
        benign = [np.asarray(out[r], dtype=np.float64) for r in range(self.n_workers) if not self.is_byzantine(r)]
        stack = np.stack(benign, axis=0)
        mean = stack.mean(axis=0)
        std = stack.std(axis=0)
        z = self.z if self.z is not None else self._z_max()
        corrupted = mean - z * std
        for rank in byzantine:
            out[rank] = corrupted.copy()
        return out
