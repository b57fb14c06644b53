"""Error-feedback memory (Seide et al., 2014).

Each worker keeps a local error vector ``e`` of the same length as the flat
gradient.  Per iteration (Algorithm 1, lines 5, 11, 12):

- ``acc = e + lr * grad`` -- unselected gradients from previous iterations
  are added back before selection,
- after the globally selected indices are known, those entries of ``acc``
  are zeroed (they were transmitted) and the remainder becomes the new ``e``.

Both steps work in place on one buffer per worker: between them the
buffer holds ``acc``, after the update it holds the new ``e``.

The L2 norm of ``e`` averaged over workers is the "error" metric of
Figures 5 and 6.
"""

from __future__ import annotations


import numpy as np

__all__ = ["ErrorFeedbackMemory"]


class ErrorFeedbackMemory:
    """Per-worker error-feedback accumulator.

    Aliasing contract: :meth:`accumulate` returns the memory's own buffer,
    not a copy.  Between :meth:`accumulate` and :meth:`update` that buffer
    *is* the accumulator ``acc``; :meth:`update` turns it into the new
    error in place, so a caller that needs the accumulator's values after
    the update must copy them first.
    """

    def __init__(self, n_gradients: int, dtype=np.float64) -> None:
        if n_gradients <= 0:
            raise ValueError("n_gradients must be positive")
        self.n_gradients = int(n_gradients)
        self.error = np.zeros(self.n_gradients, dtype=dtype)

    def accumulate(self, grad_flat: np.ndarray, lr: float) -> np.ndarray:
        """Add ``lr * grad`` into the stored error and return the buffer.

        The result is ``acc = e + lr * grad`` with the same rounding as the
        out-of-place expression; it is ``self.error`` itself.
        """
        grad_flat = np.asarray(grad_flat, dtype=self.error.dtype).reshape(-1)
        if grad_flat.size != self.n_gradients:
            raise ValueError(
                f"gradient has {grad_flat.size} elements, expected {self.n_gradients}"
            )
        self.error += lr * grad_flat
        return self.error

    def update(self, acc: np.ndarray, selected_indices: np.ndarray) -> None:
        """Zero the transmitted entries of ``acc``; the rest is the new error.

        ``acc`` is normally the buffer :meth:`accumulate` returned, which
        is zeroed in place.  Any other array is copied into the buffer
        first and left unchanged.
        """
        if acc is not self.error:
            acc = np.asarray(acc, dtype=self.error.dtype).reshape(-1)
            if acc.size != self.n_gradients:
                raise ValueError(
                    f"accumulator has {acc.size} elements, expected {self.n_gradients}"
                )
            np.copyto(self.error, acc)
        if selected_indices is not None and len(selected_indices):
            self.error[np.asarray(selected_indices, dtype=np.int64)] = 0.0

    def error_norm(self, ord: int = 2) -> float:
        """Norm of the stored error (the per-worker term of Eq. 2)."""
        return float(np.linalg.norm(self.error, ord=ord))

    def reset(self) -> None:
        """Clear the accumulated error."""
        self.error[:] = 0.0
