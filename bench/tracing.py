"""Outside-in span tracer for the traced benchmark run.

The program under ``src/repro`` is not edited: :class:`Tracer` replaces the
layers' *public* callables with timing wrappers (class attributes for
methods, module attributes for functions imported by name) and records one
parent-linked span per call, in memory.  A layer's **self time** is its
span's duration minus the part of it covered by child spans, so the self
times of all spans under a root add up to the root's duration exactly.

Targets come from two places: :data:`STATIC_TARGETS` are resolved by dotted
name when :meth:`Tracer.install` runs; the concrete component classes of a
run (its sparsifier, aggregator, adversary, backend, schedule, task and
model) are discovered from the live trainer each time the wrapped
``DistributedTrainer.__init__`` returns.  A target that no longer exists is
listed in :attr:`Tracer.unresolved` and reports no span -- it never raises
into the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "SPAN_NAMES", "STATIC_TARGETS", "TRAINER_TARGETS"]

#: ``(span, "module:Class.attr" | "module:function")`` resolved at install.
STATIC_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("tensor.backward", "repro.tensor.tensor:Tensor.backward"),
    ("nn.lstm.forward", "repro.nn:LSTM.forward"),
    ("nn.conv2d.forward", "repro.nn:Conv2d.forward"),
    ("nn.batchnorm2d.forward", "repro.nn:BatchNorm2d.forward"),
    ("nn.embedding.forward", "repro.nn:Embedding.forward"),
    ("nn.linear.forward", "repro.nn:Linear.forward"),
    ("training.worker_gradient", "repro.training.trainer:DistributedTrainer.worker_gradient"),
    ("training.sparse_exchange", "repro.training.trainer:DistributedTrainer.sparse_exchange"),
    ("training.train_iteration", "repro.training.trainer:DistributedTrainer.train_iteration"),
    ("training.trainer_init", "repro.training.trainer:DistributedTrainer.__init__"),
    ("training.flatten_gradients", "repro.training.optimizers:flatten_gradients"),
    ("training.ef_accumulate", "repro.training.error_feedback:ErrorFeedbackMemory.accumulate"),
    ("training.ef_update", "repro.training.error_feedback:ErrorFeedbackMemory.update"),
    ("training.apply_update", "repro.training.optimizers:SGD.apply_update"),
    ("utils.topk_indices", "repro.utils.topk_ops:topk_indices"),
    ("data.next_batch", "repro.data.dataloader:DataLoader.__iter__"),
    ("api.session_run", "repro.api:Session.run"),
    ("api.spec_resolve", "repro.api:RunSpec.resolve"),
    ("plugins.build_component", "repro.plugins:build_component"),
    ("experiments.make_task", "repro.experiments.config:make_task"),
    ("experiments.make_task", "repro.training.tasks:RecommendationTask.__init__"),
    ("sweep.run_sweep", "repro.sweep:run_sweep"),
    ("sweep.cache_get", "repro.sweep:ResultCache.get"),
    ("sweep.cache_put", "repro.sweep:ResultCache.put"),
)

#: ``trainer attribute -> ((method, span), ...)`` wrapped on the attribute's
#: concrete class, whatever component the run was configured with
#: (:meth:`Tracer.wrap_components`; select_scale passes its own two).
TRAINER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sparsifier": (("coordinate", "sparsifiers.coordinate"), ("select", "sparsifiers.select")),
    "aggregator": (("aggregate", "aggregators.aggregate"), ("aggregate_reduced", "aggregators.aggregate")),
    "adversary": (("corrupt_accumulators", "attacks.corrupt"), ("corrupt_batch", "attacks.corrupt")),
    "backend": (
        ("allgather", "comm.collective"),
        ("allgather_rows", "comm.collective"),
        ("allreduce", "comm.collective"),
        ("allreduce_rows", "comm.collective"),
        ("broadcast", "comm.collective"),
        ("push", "comm.push_pull"),
        ("pull", "comm.push_pull"),
        ("send", "comm.push_pull"),
    ),
    "execution": (("run", "execution.run"),),
    "task": (("compute_loss", "training.compute_loss"), ("evaluate", "training.evaluate")),
    "model": (("forward", "models.forward"),),
}

#: Every span the benchmark reports, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [span for span, _ in STATIC_TARGETS]
        + [span for pairs in TRAINER_TARGETS.values() for _, span in pairs]
    )
)

#: Spans kept for the Chrome trace; the per-span totals are exact beyond it.
MAX_STORED_SPANS = 400_000


def _argument(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


class _TimedIterator:
    """Iterator proxy that records one ``data.next_batch`` span per item."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._inner)
        frame = tracer.open("data.next_batch")
        try:
            return next(self._inner)
        finally:
            tracer.close(frame)


class Tracer:
    """Records parent-linked spans around the wrapped callables."""

    def __init__(self) -> None:
        #: Wrappers are installed once and pass straight through while False.
        self.active = False
        #: ``[name, start, end, span_id, parent_id, run_id, rank]`` per stored span.
        self.spans: List[list] = []
        self._last_record: Optional[list] = None
        self.span_count = 0
        #: ``span -> [self seconds, calls, duration seconds]``.
        self.totals: Dict[str, List[float]] = {}
        #: Root spans only: ``[self seconds, duration seconds]``.
        self.roots = [0.0, 0.0]
        self.counters: Dict[str, float] = {}
        self.unresolved: List[str] = []
        #: Incremented per traced block and per constructed trainer.
        self.run_id = 0
        #: ``(run_id, iteration) -> slowest rank's select seconds``.
        self.slowest_select: Dict[Tuple[int, int], float] = {}
        #: ``(run_id, iteration) -> index arrays`` of the first rounds of a
        #: DEFT run, kept for the deferred disjointness check.
        self.sampled_selections: Dict[Tuple[int, int], List[np.ndarray]] = {}
        self._stack: List[list] = []
        self._wrapped_classes: set = set()

    # ------------------------------------------------------------------ #
    # Span recording.
    # ------------------------------------------------------------------ #
    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        # frame: name, start, seconds covered by children, span id, parent id
        frame = [name, 0.0, 0.0, self.span_count, parent[3] if parent else -1]
        self.span_count += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def close(self, frame: list) -> float:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if stack:
            stack[-1][2] += duration
        else:
            self.roots[0] += own
            self.roots[1] += duration
        total = self.totals.get(frame[0])
        if total is None:
            self.totals[frame[0]] = [own, 1, duration]
        else:
            total[0] += own
            total[1] += 1
            total[2] += duration
        if len(self.spans) < MAX_STORED_SPANS:
            self._last_record = [frame[0], frame[1], end, frame[3], frame[4], self.run_id, None]
            self.spans.append(self._last_record)
        else:
            self._last_record = None
        return duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def snapshot(self) -> dict:
        """Copy of the aggregates, to separate phases of one traced run."""
        return {
            "totals": {name: list(total) for name, total in self.totals.items()},
            "roots": list(self.roots),
            "counters": dict(self.counters),
            "span_count": self.span_count,
        }

    # ------------------------------------------------------------------ #
    # Wrapping.
    # ------------------------------------------------------------------ #
    def _wrapper(self, span: str, fn: Callable, on_close: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.close(frame)
            if on_close is not None:
                try:
                    on_close(args, kwargs, result, duration)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # The call's signature or result changed shape: report
                    # it like a vanished target instead of failing the op.
                    tracer._unresolved_once(f"{span} (result hook: {exc!r})")
            return result

        traced.__bench_span__ = span
        return traced

    def _wrap_attribute(self, owner, attr: str, span: str) -> bool:
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        if getattr(fn, "__bench_span__", None) is not None:
            return True
        setattr(owner, attr, self._wrapper(span, fn, self._hook_for(span)))
        return True

    def _hook_for(self, span: str) -> Optional[Callable]:
        return {
            "sparsifiers.select": self._after_select,
            "training.sparse_exchange": self._after_exchange,
            "training.trainer_init": self._after_trainer_init,
        }.get(span)

    def install(self) -> None:
        """Wrap every static target; trainer components follow on first use."""
        for span, target in STATIC_TARGETS:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.unresolved.append(target)
                continue
            if attr == "__iter__":
                self._wrap_iterator(owner)
            elif parents:
                self._wrap_attribute(owner, attr, span)
            else:
                self._wrap_function(original, attr, span)
        self._count_tensors()

    def _wrap_function(self, original: Callable, attr: str, span: str) -> None:
        """Patch a function at every ``repro`` module that imported it by name."""
        if getattr(original, "__bench_span__", None) is not None:
            return
        wrapper = self._wrapper(span, original)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    def _wrap_iterator(self, loader_class) -> None:
        original = loader_class.__iter__
        if getattr(original, "__bench_span__", None) is not None:
            return
        tracer = self

        @functools.wraps(original)
        def traced_iter(loader):
            return _TimedIterator(original(loader), tracer)

        traced_iter.__bench_span__ = "data.next_batch"
        loader_class.__iter__ = traced_iter

    def _count_tensors(self) -> None:
        try:
            tensor_class = importlib.import_module("repro.tensor.tensor").Tensor
        except (ImportError, AttributeError):
            self.unresolved.append("repro.tensor.tensor:Tensor.__init__")
            return
        original = tensor_class.__init__
        if getattr(original, "__bench_span__", None) is not None:
            return
        counters = self.counters
        counters.setdefault("tensors_created", 0.0)

        @functools.wraps(original)
        def counting_init(tensor, *args, **kwargs):
            counters["tensors_created"] += 1.0
            original(tensor, *args, **kwargs)

        counting_init.__bench_span__ = "tensor.tensors_created"
        tensor_class.__init__ = counting_init

    # ------------------------------------------------------------------ #
    # Hooks that read the wrapped calls' arguments and results.
    # ------------------------------------------------------------------ #
    def _after_trainer_init(self, args, kwargs, result, duration) -> None:
        self.run_id += 1
        trainer = args[0]
        self.wrap_components(
            **{attribute: getattr(trainer, attribute, None) for attribute in TRAINER_TARGETS}
        )

    def wrap_components(self, **components) -> None:
        """Wrap the concrete classes of a run's components (idempotent)."""
        for attribute, component in components.items():
            if component is None:
                self._unresolved_once(f"DistributedTrainer.{attribute}")
                continue
            cls = type(component)
            if (cls, attribute) in self._wrapped_classes:
                continue
            self._wrapped_classes.add((cls, attribute))
            for method, span in TRAINER_TARGETS[attribute]:
                if not self._wrap_attribute(cls, method, span):
                    self._unresolved_once(f"{cls.__module__}:{cls.__name__}.{method}")

    def _unresolved_once(self, target: str) -> None:
        if target not in self.unresolved:
            self.unresolved.append(target)

    def _after_select(self, args, kwargs, result, duration) -> None:
        iteration = int(_argument(args, kwargs, 1, "iteration"))
        key = (self.run_id, iteration)
        if duration > self.slowest_select.get(key, 0.0):
            self.slowest_select[key] = duration
        self.count("k_selected", float(result.k_selected))
        if self._last_record is not None:
            self._last_record[6] = _argument(args, kwargs, 2, "rank")
        if iteration < 2 and getattr(args[0], "name", "") == "deft":
            self.sampled_selections.setdefault(key, []).append(result.indices)

    def _after_exchange(self, args, kwargs, result, duration) -> None:
        self.count("union_size", float(result["global_indices"].shape[0]))

    def overlapping_selections(self) -> int:
        """Sampled DEFT rounds whose per-rank index sets were not disjoint."""
        bad = 0
        for pieces in self.sampled_selections.values():
            merged = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
            if np.unique(merged).shape[0] != merged.shape[0]:
                bad += 1
        return bad

    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path, label: str) -> None:
        """Trace-event JSON of the stored spans (``chrome://tracing``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "run": run_id, "rank": rank},
            }
            for name, start, end, span_id, parent, run_id, rank in self.spans
        ]
        payload = {
            "traceEvents": events,
            "otherData": {"workload": label, "spans_recorded": self.span_count},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
