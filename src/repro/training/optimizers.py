"""Parameter-update rules.

In Algorithm 1 the learning rate is folded into the accumulator *before*
sparsification (``acc = e + lr * grad``), so the model update is simply
``x -= g / n`` where ``g`` is the summed sparse contribution.  :class:`SGD`
applies such a flat update vector to a model's parameters, optionally with
momentum and weight decay applied to the *averaged* update (identical on all
workers, so simulated workers stay in perfect sync).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["SGD", "flatten_gradients", "gradient_layout_of"]


def gradient_layout_of(model: Module) -> List[Tuple[str, Tuple[int, ...]]]:
    """Named parameter shapes in registration order."""
    return [(name, p.shape) for name, p in model.named_parameters()]


def flatten_gradients(
    model: Module, zero_missing: bool = True, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Concatenate all parameter gradients into one float64 vector.

    Parameters with no gradient contribute zeros when ``zero_missing`` is
    true (otherwise an error is raised).  With ``out`` (a float64 vector of
    the model's gradient count) the gradients are written into it and it
    is returned; otherwise a fresh vector is allocated.
    """
    named = list(model.named_parameters())
    if out is None:
        out = np.empty(sum(param.size for _, param in named), dtype=np.float64)
    offset = 0
    for name, param in named:
        end = offset + param.size
        if param.grad is None:
            if not zero_missing:
                raise RuntimeError(f"parameter {name!r} has no gradient")
            out[offset:end] = 0.0
        else:
            out[offset:end] = np.asarray(param.grad).reshape(-1)
        offset = end
    if offset != out.shape[0]:
        raise ValueError(f"out has {out.shape[0]} elements, the model has {offset} gradients")
    return out


class SGD:
    """Applies flat update vectors to a model's parameters.

    Parameters
    ----------
    model:
        The model whose parameters are updated in place.
    momentum:
        Classical momentum on the applied update (0 disables it).
    weight_decay:
        L2 penalty added to the update as ``wd * x`` (decoupled from the
        sparsified gradient so it never competes for the selection budget).
    """

    def __init__(self, model: Module, momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        self.model = model
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Optional[np.ndarray] = None
        self._sizes = [p.size for p in model.parameters()]
        self._total = int(sum(self._sizes))

    @property
    def n_gradients(self) -> int:
        return self._total

    def apply_update(self, update_flat: np.ndarray) -> None:
        """Apply ``x -= update`` (plus momentum / weight decay) in place.

        ``update_flat`` is the already learning-rate-scaled, averaged sparse
        update of Algorithm 1 line 10.
        """
        update = np.asarray(update_flat, dtype=np.float64).reshape(-1)
        if update.size != self._total:
            raise ValueError(f"update has {update.size} elements, expected {self._total}")
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = np.zeros(self._total, dtype=np.float64)
            self._velocity = self.momentum * self._velocity + update
            update = self._velocity
        offset = 0
        for param in self.model.parameters():
            size = param.size
            chunk = update[offset : offset + size].reshape(param.shape)
            new_value = param.data.astype(np.float64) - chunk
            if self.weight_decay > 0.0:
                new_value -= self.weight_decay * param.data.astype(np.float64)
            param.data = new_value.astype(param.data.dtype)
            offset += size

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"velocity": None if self._velocity is None else self._velocity.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        velocity = state.get("velocity")
        self._velocity = None if velocity is None else np.asarray(velocity, dtype=np.float64).copy()
