"""The six benchmark workloads, driven through the program's public surface.

Every workload is a deterministic **block** of operations repeated until the
measuring window is over: the same seed gives the same inputs, so every
block of a run must reproduce the first one bit for bit (its *fingerprint*),
whether or not the tracer is installed.  The simulated statistics a run
reports (loss, density, traffic, modelled time) are those of one block and
do not depend on how many blocks fitted into the window; the host-time
statistics pool the per-operation times of all blocks.

Only ``repro.api``, ``repro.sweep``, ``repro.training.tasks``,
``repro.plugins.build_component``, ``repro.sparsifiers.GradientLayout`` and
``repro.comm`` (``SimulatedBackend``, ``AlphaBetaModel``) are imported.
Functions the tracer patches are called through their module
(``repro.sweep.run_sweep``), never imported by name.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.api
import repro.comm
import repro.plugins
import repro.sweep
from repro.sparsifiers import GradientLayout
from repro.training.tasks import RecommendationTask

__all__ = ["Block", "Workload", "WORKLOADS", "build_workload"]

#: Seed of the synthetic datasets and of select_scale's per-layer scales.
#: ``--seed`` drives everything a run draws (model initialisation, sharding,
#: batch order, attack noise, the accumulators' values) but not the data set
#: itself: host time and loss depend on the data set's shape far more than
#: on the draw, and runs of different seeds have to be comparable.
DATA_SEED = 0

#: Traffic-meter tags reported per layer (``comm.sent_elements_per_op.<tag>``).
TRAFFIC_TAGS = ("indices", "values", "deft-allocation", "ps-push")


class FirstOpDone(Exception):
    """Raised from the round hook of a set-up launch to stop after one op."""


@dataclass
class Block:
    """Outcome of one deterministic block of operations."""

    #: Host milliseconds of every timed operation.
    op_ms: List[float] = field(default_factory=list)
    #: Wall seconds covered by the timed operations (evaluation included).
    span_s: float = 0.0
    #: Operations the block planned / completed without a failure.
    planned: int = 0
    completed: int = 0
    #: sha256 over the block's deterministic outputs.
    fingerprint: str = ""
    #: Last epoch's mean training loss (see each workload for its analogue).
    loss_final: float = math.nan
    #: Mean over operations of |index union| / n_g.
    density: float = math.nan
    #: Traffic-meter totals of the block.
    sent_elements: float = 0.0
    comm_calls: float = 0.0
    sent_by_tag: Dict[str, float] = field(default_factory=dict)
    #: Modelled cluster seconds of the block.
    virtual_s: float = 0.0
    #: Sum over operations of |index union|.
    union_size: float = 0.0
    #: Failed invariants, one line each.
    problems: List[str] = field(default_factory=list)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=repr).encode()).hexdigest()


class Workload:
    """Interface of a benchmark workload (see the module docstring)."""

    name = "workload"

    def build(self) -> None:
        """Make the inputs from the seed (timed as ``setup.task_build_s``)."""

    def first_op(self) -> None:
        """Run until the first operation has completed (set-up launches)."""
        raise NotImplementedError

    def run_block(self) -> Block:
        raise NotImplementedError

    def start_tracing(self, tracer) -> None:
        """Called once, after the tracer is installed and before traced blocks."""

    def traced_extras(self, tracer, out_dir: Path) -> Tuple[Dict[str, float], List[str]]:
        """Per-layer probes that only run in the traced launch, and the
        invariants they found broken."""
        return {}, []


# ---------------------------------------------------------------------- #
# Training workloads: one block is one Session.run of a fixed spec.
# ---------------------------------------------------------------------- #
class TrainingWorkload(Workload):
    """``Session.run`` of one spec; one op is one ``round_complete`` event."""

    def __init__(
        self,
        name: str,
        spec: dict,
        *,
        seed: int,
        quick: bool,
        quick_optimizer: dict,
        task_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        self.name = name
        self.quick = quick
        spec = copy.deepcopy(spec)
        spec["seed"] = int(seed)
        if quick:
            spec["optimizer"].update(quick_optimizer)
        self.seed = int(seed)
        self.spec = repro.api.RunSpec.from_dict(spec)
        self.task_factory = task_factory
        self.session = repro.api.Session()
        self.task = None
        self._last_rounds = 0

    def build(self) -> None:
        if self.task_factory is not None:
            self.task = self.task_factory()
        else:
            self.task = self.session.task_for(self.spec.workload, self.spec.scale, DATA_SEED)

    def start_tracing(self, tracer) -> None:
        # A fresh Session (empty task cache) so the task is built once more
        # under the tracer and shows up as ``experiments.make_task``.
        self.session = repro.api.Session()
        self.build()

    def first_op(self) -> None:
        def stop(payload) -> None:
            raise FirstOpDone

        try:
            self.session.run(self.spec, task=self.task, hooks={"round_complete": stop})
        except FirstOpDone:
            pass

    def run_block(self) -> Block:
        stamps: List[float] = []
        rounds: List[dict] = []

        def on_round(payload) -> None:
            stamps.append(time.perf_counter())
            rounds.append(payload["metrics"])

        block = Block()
        optimizer = self.spec.optimizer
        lock_step = self.spec.execution.model != "async_bsp"
        if lock_step:
            block.planned = int(optimizer.epochs) * int(optimizer.max_iterations_per_epoch)
        result = None
        try:
            result = self.session.run(self.spec, task=self.task, hooks={"round_complete": on_round})
        except Exception:  # a raised round fails the rest of the block, not the benchmark
            block.problems.append("run raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
        losses = [float(r["loss"]) for r in rounds]
        finite = [math.isfinite(value) for value in losses]
        block.completed = sum(finite)
        if not lock_step:
            # The asynchronous schedule groups arrivals into rounds itself;
            # the count repeats exactly, so a short block shows against it.
            block.planned = max(len(rounds), self._last_rounds)
            self._last_rounds = block.planned
        if not all(finite):
            block.problems.append(f"{len(finite) - sum(finite)} non-finite round losses")
        gaps = np.diff(np.asarray(stamps)) * 1e3
        block.op_ms = gaps.tolist()
        block.span_s = float(stamps[-1] - stamps[0]) if len(stamps) > 1 else 0.0
        block.union_size = float(sum(r["k_global"] for r in rounds))
        if self.spec.compression.sparsifier == "deft" and lock_step:
            n = self.spec.cluster.n_workers
            overlapping = sum(
                1 for r in rounds if abs(r["k_global"] - r["k_local_mean"] * n) > 0.5
            )
            if overlapping:
                block.problems.append(f"{overlapping} rounds with overlapping per-rank index sets")
        if result is None:
            return block
        epoch_loss = list(result.series("epoch_loss").values)
        block.loss_final = float(epoch_loss[-1])
        # A quick block is a handful of iterations: too few for the loss to
        # have to fall, so only a full-length block checks convergence.
        if not self.quick and not block.loss_final < epoch_loss[0]:
            block.problems.append(
                f"last-epoch loss {block.loss_final:.6g} not below first-epoch loss {epoch_loss[0]:.6g}"
            )
        block.density = float(result.mean_density())
        block.sent_elements = float(result.traffic["total_sent_elements"])
        block.comm_calls = float(result.traffic["calls"])
        block.sent_by_tag = {tag: float(n) for tag, n in result.traffic["by_tag"].items()}
        block.virtual_s = float(result.estimated_wallclock)
        block.fingerprint = _digest(
            {
                "loss": [repr(value) for value in result.series("loss").values],
                "traffic": result.traffic,
                "virtual_s": repr(block.virtual_s),
                "final": {k: repr(v) for k, v in result.final_metrics.items()},
            }
        )
        return block


def _rec_wide_task():
    return RecommendationTask(
        num_users=512,
        num_items=2048,
        interactions_per_user=8,
        eval_users=64,
        gmf_dim=128,
        mlp_dims=(512, 64, 16),
        seed=DATA_SEED,
    )


# ---------------------------------------------------------------------- #
# sweep_smoke: one block is one uncached pass over a 24-cell grid.
# ---------------------------------------------------------------------- #
SWEEP_GRID = {
    "base": {
        "workload": "lm",
        "scale": "smoke",
        "cluster": {"n_workers": 8},
        "optimizer": {"epochs": 1, "max_iterations_per_epoch": 4},
        "robustness": {"n_byzantine": 2},
    },
    "axes": {
        "compression.sparsifier": ["deft", "topk"],
        "robustness.aggregator": ["mean", "median", "krum", "geometric_median"],
        "robustness.attack": ["none", "sign_flip", "alie"],
    },
}


def _result_summary(result) -> dict:
    return json.loads(json.dumps(result.to_dict(), sort_keys=True))


class SweepWorkload(Workload):
    """``run_sweep(jobs=1)`` on one Session; one op is one grid cell."""

    name = "sweep_smoke"
    #: Cache-hit passes timed for ``sweep.cache_hit_ms_per_cell``.
    CACHED_PASSES = 50

    def __init__(self, *, seed: int, quick: bool) -> None:
        self.quick = quick
        self.seed = int(seed)
        self.session = repro.api.Session()
        self.specs: List = []

    def build(self) -> None:
        grid = copy.deepcopy(SWEEP_GRID)
        grid["base"]["seed"] = self.seed
        self.specs = repro.sweep.expand_grid(grid).specs
        if self.quick:
            self.specs = self.specs[::4]

    def start_tracing(self, tracer) -> None:
        self.session = repro.api.Session()

    def first_op(self) -> None:
        repro.sweep.run_sweep(self.specs[:1], jobs=1, session=self.session)

    def run_block(self) -> Block:
        report = repro.sweep.run_sweep(self.specs, jobs=1, session=self.session)
        block = Block(planned=len(self.specs))
        done = [o for o in report.outcomes if o.ok and o.source == "run"]
        for outcome in report.failures():
            block.problems.append(f"cell {outcome.index} errored: {outcome.error}")
        losses = [float(o.result.final_metrics.get("loss", math.nan)) for o in done]
        block.completed = sum(math.isfinite(value) for value in losses)
        if block.completed != len(done):
            block.problems.append(f"{len(done) - block.completed} cells with a non-finite loss")
        block.op_ms = [o.seconds * 1e3 for o in done]
        block.span_s = float(report.seconds)
        if not done:
            return block
        block.loss_final = float(np.mean(losses))
        block.density = float(np.mean([o.result.mean_density() for o in done]))
        for outcome in done:
            traffic = outcome.result.traffic
            block.sent_elements += float(traffic["total_sent_elements"])
            block.comm_calls += float(traffic["calls"])
            for tag, count in traffic["by_tag"].items():
                block.sent_by_tag[tag] = block.sent_by_tag.get(tag, 0.0) + float(count)
            block.virtual_s += float(outcome.result.estimated_wallclock)
        block.fingerprint = _digest([_result_summary(o.result) for o in done])
        return block

    def traced_extras(self, tracer, out_dir: Path) -> Tuple[Dict[str, float], List[str]]:
        """Fill a result cache, then time cache-hit passes over the grid."""
        before = tracer.snapshot()["totals"]
        cache_dir = out_dir / f"sweep-cache-{self.seed}"
        problems: List[str] = []
        hit_seconds: List[float] = []
        cells_run = 0
        try:
            cache = repro.sweep.ResultCache(root=cache_dir)
            filled = repro.sweep.run_sweep(self.specs, jobs=1, session=self.session, cache=cache)
            reference = [_result_summary(o.result) for o in filled.outcomes if o.ok]
            for _ in range(3 if self.quick else self.CACHED_PASSES):
                report = repro.sweep.run_sweep(self.specs, jobs=1, session=self.session, cache=cache)
                cells_run += report.counts()["run"] + report.counts()["error"]
                hit_seconds.extend(o.seconds for o in report.outcomes if o.source == "cache")
                if [_result_summary(o.result) for o in report.outcomes if o.ok] != reference:
                    problems.append("a cached pass returned results that differ from the filled ones")
                    break
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if cells_run:
            problems.append(f"cached passes executed {cells_run} cells")
        after = tracer.snapshot()["totals"]

        def phase(span: str) -> Tuple[float, float]:
            now, then = after.get(span, [0.0, 0, 0.0]), before.get(span, [0.0, 0, 0.0])
            return now[0] - then[0], float(now[1] - then[1])

        put_self, put_calls = phase("sweep.cache_put")
        get_self, get_calls = phase("sweep.cache_get")
        filled_cells = max(len(self.specs), 1)
        looked_up = filled_cells + len(hit_seconds)
        metrics = {
            "sweep.cache_hit_ms_per_cell": float(np.mean(hit_seconds)) * 1e3 if hit_seconds else 0.0,
            "sweep.cache_put_ms_per_cell": put_self * 1e3 / filled_cells,
            "sweep.cached_pass_cells_run": float(cells_run),
            # The timed passes never touch the cache, so these two spans are
            # normalised by the cells of the cache phase: one op is one cell
            # stored (put) or looked up (get).
            "sweep.cache_put.self_ms_per_op": put_self * 1e3 / filled_cells,
            "sweep.cache_put.calls_per_op": put_calls / filled_cells,
            "sweep.cache_get.self_ms_per_op": get_self * 1e3 / looked_up,
            "sweep.cache_get.calls_per_op": get_calls / looked_up,
        }
        return metrics, problems


# ---------------------------------------------------------------------- #
# select_scale: the sparsifier layer alone, at a ResNet-18-sized gradient.
# ---------------------------------------------------------------------- #
def resnet18_shapes() -> List[Tuple[str, Tuple[int, ...]]]:
    """Parameter shapes of the paper's ResNet-18/CIFAR-10 (62 tensors)."""
    shapes: List[Tuple[str, Tuple[int, ...]]] = [
        ("conv1.weight", (64, 3, 3, 3)), ("bn1.weight", (64,)), ("bn1.bias", (64,)),
    ]
    width = 64
    for stage, (out, stride) in enumerate([(64, 1), (128, 2), (256, 2), (512, 2)], start=1):
        for unit in range(2):
            prefix = f"layer{stage}.{unit}"
            shapes += [
                (f"{prefix}.conv1.weight", (out, width, 3, 3)),
                (f"{prefix}.bn1.weight", (out,)), (f"{prefix}.bn1.bias", (out,)),
                (f"{prefix}.conv2.weight", (out, out, 3, 3)),
                (f"{prefix}.bn2.weight", (out,)), (f"{prefix}.bn2.bias", (out,)),
            ]
            if unit == 0 and (stride != 1 or width != out):
                shapes += [
                    (f"{prefix}.shortcut.0.weight", (out, width, 1, 1)),
                    (f"{prefix}.shortcut.1.weight", (out,)), (f"{prefix}.shortcut.1.bias", (out,)),
                ]
            width = out
    return shapes + [("fc.weight", (10, 512)), ("fc.bias", (10,))]


class SelectWorkload(Workload):
    """``coordinate`` + ``select`` for every rank; one op is one round."""

    name = "select_scale"
    DENSITY = 0.01
    N_RANKS = 8
    N_BASES = 2
    #: Rank counts of the traced scaling probe.  Like N_RANKS they are
    #: multiples of N_BASES: every accumulator is used by equally many ranks.
    PROBE_RANKS = (4, 8, 16, 32)

    def __init__(self, *, seed: int, quick: bool) -> None:
        self.quick = quick
        self.seed = int(seed)
        self.block_rounds = 4 if quick else 24
        self.layout = GradientLayout.from_named_shapes(resnet18_shapes())
        self.bases: List[np.ndarray] = []
        self.sparsifier = None
        self.backend = None
        self.cost_model = repro.comm.AlphaBetaModel()
        self._checked_round_zero = False

    # -- inputs ---------------------------------------------------------- #
    def build(self) -> None:
        """Two accumulators with a log-normal per-layer scale (rank r uses r mod 2).

        The per-layer scales decide DEFT's k assignment and with it the cost
        of a round, so they come from ``DATA_SEED``; the values come from
        ``--seed``.  Fresh pages are the cost here (each accumulator is
        89 MB), so every one is written exactly once, layer by layer, from
        one noise vector.
        """
        n_g = self.layout.total_size
        noise = np.random.default_rng(self.seed).standard_normal(
            n_g + self.N_BASES * 104729, dtype=np.float32
        )
        rng = np.random.default_rng(DATA_SEED)
        layer_scale = rng.lognormal(0.0, 1.0, size=self.layout.n_layers)
        for base in range(self.N_BASES):
            scale = layer_scale * rng.lognormal(0.0, 0.25, size=self.layout.n_layers)
            shifted = noise[base * 104729 : base * 104729 + n_g]
            acc = np.empty(n_g, dtype=np.float64)
            for factor, layer in zip(scale, self.layout.slices()):
                np.multiply(shifted[layer], factor, out=acc[layer])
            self.bases.append(acc)
        # ||mean accumulator||^2 without materialising the mean: ranks use
        # the bases equally often, so it is the mean of the bases' Gram matrix.
        self.mean_energy = float(
            sum(np.dot(a, b) for a in self.bases for b in self.bases) / self.N_BASES**2
        )
        self.sparsifier, self.backend = self._make("deft", self.N_RANKS)
        self._seen = np.zeros(n_g, dtype=bool)

    def _make(self, name: str, n_ranks: int):
        sparsifier = repro.plugins.build_component("sparsifier", name, self.DENSITY)
        sparsifier.setup(self.layout, n_ranks, seed=self.seed)
        return sparsifier, repro.comm.SimulatedBackend(n_ranks)

    def _accumulators(self, n_ranks: int) -> List[np.ndarray]:
        return [self.bases[rank % self.N_BASES] for rank in range(n_ranks)]

    def start_tracing(self, tracer) -> None:
        tracer.wrap_components(sparsifier=self.sparsifier, backend=self.backend)

    # -- one round ------------------------------------------------------- #
    def _round(self, iteration: int, accumulators: Sequence[np.ndarray]):
        start = time.perf_counter()
        self.sparsifier.coordinate(iteration, accumulators, self.backend)
        picks = [
            self.sparsifier.select(iteration, rank, accumulators[rank]).indices
            for rank in range(len(accumulators))
        ]
        return time.perf_counter() - start, picks

    def first_op(self) -> None:
        self._round(0, self._accumulators(self.N_RANKS))

    def run_block(self) -> Block:
        accumulators = self._accumulators(self.N_RANKS)
        block = Block(planned=self.block_rounds)
        records_before = len(self.backend.meter.records)
        summary: List[Tuple[int, ...]] = []
        densities: List[float] = []
        picks: List[np.ndarray] = []
        for iteration in range(self.block_rounds):
            seconds, picks = self._round(iteration, accumulators)
            block.op_ms.append(seconds * 1e3)
            block.span_s += seconds
            sizes = [int(p.shape[0]) for p in picks]
            union = self._union_size(picks)
            if union != sum(sizes):
                block.problems.append(f"round {iteration}: per-rank index sets overlap")
            else:
                block.completed += 1
            if iteration == 0 and not self._checked_round_zero:
                self._checked_round_zero = True
                block.problems.extend(self._check_largest_magnitude(accumulators, picks))
            densities.append(union / self.layout.total_size)
            block.union_size += union
            block.virtual_s += self.cost_model.total_step_cost(
                self.N_RANKS, max(sizes), union, allocation_payload=len(self.sparsifier.partitions)
            )
            summary.append((union, *sizes, int(sum(int(p.sum()) for p in picks) % (1 << 61))))
        records = self.backend.meter.records[records_before:]
        block.comm_calls = float(len(records))
        for record in records:
            block.sent_elements += record.total_sent
            block.sent_by_tag[record.tag] = block.sent_by_tag.get(record.tag, 0.0) + record.total_sent
        block.density = float(np.mean(densities))
        # Relative L2 residual of the sparsified mean accumulator: the error
        # the paper's Figures 5-6 plot, and what the selection minimises.
        union_indices = np.concatenate(picks)
        kept = np.mean([base[union_indices] for base in self.bases], axis=0)
        block.loss_final = math.sqrt(
            max(0.0, 1.0 - float(np.dot(kept, kept)) / self.mean_energy)
        )
        block.fingerprint = _digest(summary)
        return block

    def _union_size(self, picks: Sequence[np.ndarray]) -> int:
        """|union| of the per-rank index sets, by marking a reused mask."""
        seen = self._seen
        union = 0
        for indices in picks:
            union += int(indices.shape[0]) - int(np.count_nonzero(seen[indices]))
            seen[indices] = True
        for indices in picks:
            seen[indices] = False
        return union

    def _check_largest_magnitude(self, accumulators, picks) -> List[str]:
        """Brute force: in every partition a rank owns, nothing it left out
        is larger in magnitude than anything it picked."""
        problems: List[str] = []
        for rank, indices in enumerate(picks):
            acc = accumulators[rank]
            owned = self.sparsifier.allocation_for(0, rank, acc)
            ordered = np.sort(indices)
            inside = 0
            for part_index in owned:
                part = self.sparsifier.partitions[part_index]
                lo, hi = np.searchsorted(ordered, [part.start, part.end])
                chosen = ordered[lo:hi]
                inside += int(chosen.shape[0])
                if not chosen.shape[0]:
                    continue
                magnitude = np.abs(acc[part.start : part.end])
                weakest_pick = float(magnitude[chosen - part.start].min())
                magnitude[chosen - part.start] = -1.0
                if float(magnitude.max()) > weakest_pick:
                    problems.append(
                        f"round 0 rank {rank}: partition {part_index} picks are not its largest magnitudes"
                    )
            if inside != indices.shape[0]:
                problems.append(f"round 0 rank {rank}: picked outside the partitions it owns")
        return problems

    # -- traced scaling probe ------------------------------------------- #
    def traced_extras(self, tracer, out_dir: Path) -> Tuple[Dict[str, float], List[str]]:
        """Fig. 9/10 in four numbers: slowest-rank select time vs n, vs Top-k."""
        tracer.active = False  # the probe times its own calls
        warmups, rounds = (1, 1) if self.quick else (2, 8)
        out: Dict[str, float] = {}
        for n_ranks in self.PROBE_RANKS:
            sparsifier, backend = self._make("deft", n_ranks)
            accumulators = self._accumulators(n_ranks)
            slowest, coordinate = [], []
            for iteration in range(warmups + rounds):
                start = time.perf_counter()
                sparsifier.coordinate(iteration, accumulators, backend)
                coordinated = time.perf_counter()
                per_rank = []
                for rank in range(n_ranks):
                    rank_start = time.perf_counter()
                    sparsifier.select(iteration, rank, accumulators[rank])
                    per_rank.append(time.perf_counter() - rank_start)
                if iteration >= warmups:
                    slowest.append(max(per_rank))
                    coordinate.append(coordinated - start)
            out[f"sparsifiers.probe.deft_n{n_ranks}.slowest_rank_ms"] = float(np.mean(slowest)) * 1e3
            out[f"sparsifiers.probe.deft_n{n_ranks}.coordinate_ms"] = float(np.mean(coordinate)) * 1e3
        # Top-k does the same work on every rank: time the distinct inputs.
        topk, _ = self._make("topk", 16)
        topk_rounds = 1 if self.quick else 3
        slowest = []
        for iteration in range(1 + topk_rounds):
            per_rank = []
            for rank in range(1 if self.quick else 2):
                rank_start = time.perf_counter()
                topk.select(iteration, rank, self.bases[rank])
                per_rank.append(time.perf_counter() - rank_start)
            if iteration >= 1:
                slowest.append(max(per_rank))
        topk_ms = float(np.mean(slowest)) * 1e3
        out["sparsifiers.probe.topk_n16.slowest_rank_ms"] = topk_ms
        out["sparsifiers.probe.deft_vs_topk_n16_speedup"] = (
            topk_ms / out["sparsifiers.probe.deft_n16.slowest_rank_ms"]
        )
        return out, []


# ---------------------------------------------------------------------- #
def _training(name: str, spec: dict, quick_optimizer: dict, task_factory=None):
    def factory(seed: int, quick: bool) -> Workload:
        return TrainingWorkload(
            name, spec, seed=seed, quick=quick, quick_optimizer=quick_optimizer, task_factory=task_factory
        )

    return factory


_LM = {
    "workload": "lm",
    "scale": "repro",
    "cluster": {"n_workers": 4},
    "optimizer": {"epochs": 5, "max_iterations_per_epoch": 20},
    "compression": {"sparsifier": "deft", "density": 0.001},
}

#: ``name -> factory(seed, quick)``, in report order.
WORKLOADS: Dict[str, Callable[[int, bool], Workload]] = {
    "lm_sync": _training(
        "lm_sync",
        {**_LM, "execution": {"model": "synchronous"}},
        {"epochs": 2, "max_iterations_per_epoch": 6},
    ),
    "lm_async": _training(
        "lm_async",
        {
            **_LM,
            # The one profile whose worker speeds are not drawn from the seed:
            # the last rank is 4x slower, so the arrival pattern repeats.
            "cluster": {"n_workers": 4, "straggler_profile": "straggler"},
            "execution": {"model": "async_bsp", "max_staleness": 4},
        },
        {"epochs": 2, "max_iterations_per_epoch": 6},
    ),
    "cv_sync": _training(
        "cv_sync",
        {
            "workload": "cv",
            "scale": "repro",
            "cluster": {"n_workers": 4},
            "optimizer": {"epochs": 10, "batch_size": 16, "max_iterations_per_epoch": 4},
            "compression": {"sparsifier": "deft", "density": 0.01},
            "execution": {"model": "synchronous"},
        },
        {"epochs": 2, "max_iterations_per_epoch": 3},
    ),
    "rec_wide": _training(
        "rec_wide",
        {
            "workload": "rec",
            "scale": "repro",
            "cluster": {"n_workers": 4},
            "optimizer": {"epochs": 2, "batch_size": 256, "max_iterations_per_epoch": 16},
            "compression": {"sparsifier": "deft", "density": 0.1},
            "execution": {"model": "synchronous"},
        },
        {"epochs": 2, "max_iterations_per_epoch": 3},
        task_factory=_rec_wide_task,
    ),
    "sweep_smoke": lambda seed, quick: SweepWorkload(seed=seed, quick=quick),
    "select_scale": lambda seed, quick: SelectWorkload(seed=seed, quick=quick),
}


def build_workload(name: str, seed: int, quick: bool) -> Workload:
    return WORKLOADS[name](seed, quick)
