"""Sparsifier interface and shared data structures.

A sparsifier's job (Algorithm 1, line 6) is to map a worker's error-feedback
accumulator -- the flat vector ``acc = e + lr * grad`` of length ``n_g`` --
to the set of indices that worker will contribute to the sparse all-gather.

Two extension points cover every method in the paper:

``coordinate(iteration, acc_per_worker, backend, root=None, ranks=None)``
    The round's collective phase, run once per round by every schedule
    before any selection.  It builds a frozen :class:`RoundPlan` from the
    ``root`` rank's view (default: ranks take turns, ``iteration %
    n_workers``), installs it as ``self.plan`` and returns it.  CLT-k's
    plan holds the leader's indices, gTop-k's the merged global set, DEFT's
    the delegate's bin-packing allocation and ``ks``; the other sparsifiers
    get an empty plan.  ``ranks`` names the rank of each accumulator when
    only part of the group is present.  Shared data is routed through
    ``backend`` so the traffic meter sees the (small) coordination overhead
    the paper accounts for in Figure 7; schedules without collectives pass
    none.

``select(iteration, rank, acc_flat)``
    The worker-local selection.  Called once per worker per iteration; it
    only reads the plan, and raises if ``coordinate`` did not run for
    ``iteration`` when it needs one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backend import CollectiveBackend
from repro.utils.flatten import FlatSpec

__all__ = ["GradientLayout", "RoundPlan", "SelectionResult", "Sparsifier"]


@dataclass(frozen=True)
class GradientLayout:
    """Layer structure of the flat gradient vector.

    One entry per model parameter tensor (the paper's "layers"), in model
    registration order: ``names[i]`` owns ``sizes[i]`` consecutive elements
    starting at ``offsets[i]``.
    """

    names: Tuple[str, ...]
    sizes: Tuple[int, ...]
    offsets: Tuple[int, ...]

    @property
    def n_layers(self) -> int:
        return len(self.names)

    @property
    def total_size(self) -> int:
        """Total number of gradients in the model (the paper's ``n_g``)."""
        return int(sum(self.sizes))

    def slices(self) -> List[slice]:
        return [slice(o, o + s) for o, s in zip(self.offsets, self.sizes)]

    @classmethod
    def from_flat_spec(cls, spec: FlatSpec) -> "GradientLayout":
        return cls(names=tuple(spec.names), sizes=tuple(spec.sizes), offsets=tuple(spec.offsets))

    @classmethod
    def from_named_shapes(cls, named_shapes: Sequence[Tuple[str, Tuple[int, ...]]]) -> "GradientLayout":
        names: List[str] = []
        sizes: List[int] = []
        offsets: List[int] = []
        offset = 0
        for name, shape in named_shapes:
            size = int(np.prod(shape)) if len(shape) else 1
            names.append(str(name))
            sizes.append(size)
            offsets.append(offset)
            offset += size
        return cls(names=tuple(names), sizes=tuple(sizes), offsets=tuple(offsets))

    @classmethod
    def from_model(cls, model) -> "GradientLayout":
        """Build the layout from a :class:`repro.nn.Module`."""
        return cls.from_named_shapes([(name, p.shape) for name, p in model.named_parameters()])


@dataclass
class SelectionResult:
    """Outcome of one worker's selection in one iteration."""

    indices: np.ndarray
    #: Number of gradients the sparsifier *intended* to select (its local k).
    target_k: int
    #: Wall-clock seconds spent inside the selection kernel.
    selection_seconds: float = 0.0
    #: Analytic selection cost (sum of n_{g,x} * log2(k_x) over searched layers).
    analytic_cost: float = 0.0
    #: Free-form extras (e.g. the threshold used).
    info: dict = field(default_factory=dict)

    @property
    def k_selected(self) -> int:
        return int(self.indices.shape[0])


@dataclass(frozen=True)
class RoundPlan:
    """One round's coordination, built by ``coordinate`` from ``root``'s view."""

    iteration: int
    #: Rank whose accumulator the plan was built from.
    root: int
    #: DEFT: the partitions each rank owns (Algorithm 4).
    allocation: Optional[List[List[int]]] = None
    #: DEFT: the root's local ``k`` per partition (Algorithm 3).
    ks: Optional[np.ndarray] = None
    #: DEFT: every rank selects with ``ks`` (robust norms, uniform-k ablation).
    shared_ks: bool = False
    #: CLT-k and gTop-k: the index set every rank sends.
    indices: Optional[np.ndarray] = None
    #: Host seconds the root spent building the plan.
    seconds: float = 0.0


class Sparsifier:
    """Base class of all gradient sparsifiers."""

    #: Human-readable name used in experiment reports.
    name: str = "base"
    #: Whether the actual density can exceed the configured density through
    #: gradient build-up (Table 1, "Gradient build-up").
    has_gradient_buildup: bool = True
    #: Whether the method needs per-model threshold tuning (Table 1).
    needs_hyperparameter_tuning: bool = False
    #: Whether some workers idle while another selects (Table 1).
    has_worker_idling: bool = False

    def __init__(self, density: float) -> None:
        if not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        self.density = float(density)
        self.layout: Optional[GradientLayout] = None
        self.n_workers: int = 1
        self.seed: int = 0
        self.plan: Optional[RoundPlan] = None
        self._configured = False

    # ------------------------------------------------------------------ #
    def setup(self, layout: GradientLayout, n_workers: int, seed: int = 0) -> None:
        """Bind the sparsifier to a model layout and worker-group size."""
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.layout = layout
        self.n_workers = int(n_workers)
        self.seed = int(seed)
        self.plan = None
        self._configured = True
        self._post_setup()

    def _post_setup(self) -> None:
        """Hook for subclasses needing extra setup work."""

    def _require_setup(self) -> GradientLayout:
        if not self._configured or self.layout is None:
            raise RuntimeError(f"{type(self).__name__}.setup() must be called before use")
        return self.layout

    # ------------------------------------------------------------------ #
    @property
    def global_k(self) -> int:
        """The user-requested number of selected gradients, ``k = d * n_g``."""
        layout = self._require_setup()
        return max(1, int(round(self.density * layout.total_size)))

    def root_of(self, iteration: int) -> int:
        """Default plan root of ``iteration``: ranks take turns."""
        return int(iteration) % self.n_workers

    def _root_view(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        root: Optional[int],
        ranks: Optional[Sequence[int]],
    ) -> Tuple[int, np.ndarray]:
        """The plan's root rank and its flat accumulator (``ranks[i]`` is the
        rank of ``acc_per_worker[i]``; default: ``i``)."""
        root = self.root_of(iteration) if root is None else int(root)
        position = root if ranks is None else list(ranks).index(root)
        return root, np.asarray(acc_per_worker[position]).reshape(-1)

    def coordinate(
        self,
        iteration: int,
        acc_per_worker: Sequence[np.ndarray],
        backend: Optional[CollectiveBackend] = None,
        root: Optional[int] = None,
        ranks: Optional[Sequence[int]] = None,
    ) -> RoundPlan:
        """Build, install and return the round's plan (default: empty)."""
        self._require_setup()
        root, _ = self._root_view(iteration, acc_per_worker, root, ranks)
        self.plan = RoundPlan(int(iteration), root)
        return self.plan

    def _plan_for(self, iteration: int) -> RoundPlan:
        """The installed plan of ``iteration``."""
        if self.plan is None or self.plan.iteration != int(iteration):
            raise RuntimeError(
                f"{type(self).__name__}.select() needs coordinate() to run for iteration {iteration} first"
            )
        return self.plan

    def select(self, iteration: int, rank: int, acc_flat: np.ndarray) -> SelectionResult:
        """Return the indices this worker contributes in this iteration."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Qualitative properties used for the Table-1 reproduction."""
        return {
            "name": self.name,
            "density": self.density,
            "gradient_buildup": self.has_gradient_buildup,
            "hyperparameter_tuning": self.needs_hyperparameter_tuning,
            "worker_idling": self.has_worker_idling,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(density={self.density})"
