"""Layered run specification with dict/JSON/argv round-trips.

:class:`RunSpec` is the one description of a run -- the trainer, the
execution models, the CLI, the sweep engine and the experiment grids all
read it -- in five focused layers plus what the run records about itself:

- :class:`ClusterSpec` -- how many workers and how fast they are,
- :class:`OptimizerSpec` -- SGD knobs and the training budget,
- :class:`CompressionSpec` -- which sparsifier, at what density,
- :class:`RobustnessSpec` -- aggregation rule, attack, Byzantine count,
- :class:`ExecutionSpec` -- the schedule and its knobs,
- :class:`~repro.observability.ObservabilitySpec` -- tracing and metrics.

Every field is declared exactly once, with :func:`knob`: its default, its
``repro train`` flag and its help text travel as dataclass field metadata.
:func:`spec_fields` is the table read off those declarations; the train
parser's flags (:func:`add_spec_arguments`), the flat-keyword constructor
(:meth:`RunSpec.from_flat`) and :meth:`RunSpec.to_argv` are all derived from
it, so a new field cannot exist without a flag or fall out of a round-trip.

``None`` fields mean "use the workload/scale preset" (density, epochs,
batch size, learning rate) or "use the execution model's declared default"
(aggregator, topology).  :meth:`RunSpec.resolve` fills every ``None``, runs
:meth:`RunSpec.validate` -- the single validator: range checks, the
capability matrix of :mod:`repro.plugins.capabilities` and the components'
kwargs schemas -- and returns a fully concrete spec; two specs that
resolve equal describe the same run, whether they arrived via Python, a
JSON file or a CLI argv.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.execution.straggler import STRAGGLER_PROFILES
from repro.observability import ObservabilitySpec
from repro.plugins import (
    available_components,
    combination_refusal,
    default_aggregator_for,
    default_topology_for,
    get_component,
)


def _expcfg():
    # Imported lazily: repro.experiments re-exports the runner, which
    # imports this package back -- a module-level import would be circular.
    from repro.experiments import config as expcfg

    return expcfg

__all__ = [
    "ClusterSpec",
    "OptimizerSpec",
    "CompressionSpec",
    "RobustnessSpec",
    "ExecutionSpec",
    "RunSpec",
    "SpecField",
    "spec_fields",
    "add_spec_arguments",
]


def knob(default, flag: str, help: Optional[str] = None, **extra):
    """Declare one run field: its default, its train flag, its help text.

    ``extra`` may carry ``flat`` (the field's name in the flat keyword
    namespace when the bare field name would be ambiguous there),
    ``choices`` (a sequence, or a zero-argument callable for registry-backed
    choices) and ``argparse`` (keyword overrides for ``add_argument``).
    A mutable default is passed as its factory (``dict``).
    """
    metadata = {"flag": flag, "help": help, **extra}
    if callable(default):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ClusterSpec:
    """Simulated cluster: size, worker heterogeneity, interconnect."""

    n_workers: int = knob(4, "--workers", argparse={"metavar": "WORKERS"})
    straggler_profile: str = knob(
        "uniform", "--straggler-profile",
        "worker compute-speed profile for the virtual clock",
        choices=STRAGGLER_PROFILES,
    )
    base_compute_seconds: float = knob(
        0.02, "--base-compute-seconds",
        "modelled compute seconds of one nominal mini-batch",
    )
    #: None resolves to the execution model's declared default ("ring"
    #: under gossip, else the flat one-hop pricing).
    topology: Optional[str] = knob(
        None, "--topology",
        "interconnect topology: flat (default), ring, star, "
        "tree[:branching], fat_node:<nodes>x<gpus> "
        "(gossip defaults to ring); collectives scale their "
        "latency with the graph diameter, server and "
        "neighbour traffic is routed over real paths",
        argparse={"metavar": "SPEC"},
    )
    #: Refused by server-less schedules.
    server_rank: Optional[int] = knob(
        None, "--server-rank",
        "worker rank hosting the parameter server "
        "(required by async_bsp/elastic on graph "
        "topologies; push/pull is priced over "
        "path_hops(rank, server_rank))",
    )


@dataclass
class OptimizerSpec:
    """SGD knobs and the training budget.

    ``lr``, ``batch_size`` and ``epochs`` default to the workload/scale
    presets of :mod:`repro.experiments.config` when left ``None``.
    """

    lr: Optional[float] = knob(None, "--lr", "learning rate (default: the workload preset)")
    momentum: float = knob(0.0, "--momentum")
    weight_decay: float = knob(0.0, "--weight-decay")
    batch_size: Optional[int] = knob(None, "--batch-size")
    epochs: Optional[int] = knob(None, "--epochs")
    #: None = a full pass over each worker shard.
    max_iterations_per_epoch: Optional[int] = knob(None, "--max-iterations-per-epoch")
    evaluate_each_epoch: bool = knob(
        True, "--no-eval-each-epoch", "skip the per-epoch task-metric evaluation"
    )


@dataclass
class CompressionSpec:
    """Gradient sparsification: which method, how sparse."""

    sparsifier: str = knob(
        "deft", "--sparsifier", choices=partial(available_components, "sparsifier")
    )
    #: Target density ``d``; None = the paper's density for the workload.
    density: Optional[float] = knob(None, "--density")
    #: Schema-validated against the sparsifier's registration.
    kwargs: Dict[str, Any] = knob(
        dict, "--sparsifier-arg",
        "extra sparsifier kwarg (repeatable; see `repro describe sparsifier/<name>`)",
        flat="sparsifier_kwargs",
    )


@dataclass
class RobustnessSpec:
    """Aggregation rule and threat model."""

    aggregator: Optional[str] = knob(
        None, "--aggregator",
        "aggregation rule for the per-worker contributions "
        "(default: the execution model's declared default -- "
        "mean, or staleness_weighted_mean under async_bsp; "
        "an explicit choice is always honoured)",
        choices=partial(available_components, "aggregator"),
    )
    aggregator_kwargs: Dict[str, Any] = knob(
        dict, "--aggregator-arg", "extra aggregator kwarg (repeatable)"
    )
    attack: str = knob(
        "none", "--attack", "attack corrupting the Byzantine workers",
        choices=partial(available_components, "attack"),
    )
    attack_kwargs: Dict[str, Any] = knob(
        dict, "--attack-arg", "extra attack kwarg (repeatable)"
    )
    n_byzantine: int = knob(
        0, "--n-byzantine", "number of Byzantine worker ranks (the last ranks)"
    )


@dataclass
class ExecutionSpec:
    """Training schedule and its knobs."""

    model: str = knob(
        "synchronous", "--execution", "execution schedule driving the training loop",
        flat="execution", choices=partial(available_components, "execution"),
    )
    local_steps: int = knob(
        4, "--local-steps", "local steps between averaging rounds (local_sgd/elastic)"
    )
    max_staleness: int = knob(
        4, "--max-staleness", "bounded-staleness window of async_bsp (0 = lock step)"
    )
    kwargs: Dict[str, Any] = knob(
        dict, "--execution-arg", "extra execution-model kwarg (repeatable)",
        flat="execution_kwargs",
    )


#: ``RunSpec`` attribute -> section dataclass.
_SECTIONS = {
    "cluster": ClusterSpec,
    "optimizer": OptimizerSpec,
    "compression": CompressionSpec,
    "robustness": RobustnessSpec,
    "execution": ExecutionSpec,
    "observability": ObservabilitySpec,
}


@dataclass
class RunSpec:
    """Complete description of one training run."""

    workload: str = knob(
        "lm", "--workload", choices=lambda: sorted(_expcfg().PAPER_WORKLOADS)
    )
    scale: str = knob("smoke", "--scale", choices=("smoke", "repro"))
    seed: int = knob(0, "--seed")
    run_name: Optional[str] = knob(None, "--run-name", "override the logged run name")
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    compression: CompressionSpec = field(default_factory=CompressionSpec)
    robustness: RobustnessSpec = field(default_factory=RobustnessSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    #: What the run records about itself (span tracing, metrics).  Not a
    #: semantic knob: it never changes the training outcome and is excluded
    #: from the sweep cache's spec key.
    observability: ObservabilitySpec = field(default_factory=ObservabilitySpec)

    # ------------------------------------------------------------------ #
    # Resolution and validation.
    # ------------------------------------------------------------------ #
    def resolve(self) -> "RunSpec":
        """Fill every preset-dependent ``None`` and validate the combination.

        Returns a new, fully concrete spec; the original is untouched.
        Two specs describing the same run resolve equal regardless of how
        they were constructed (Python, dict/JSON, CLI argv).
        """
        expcfg = _expcfg()
        compression = replace(
            self.compression,
            density=(
                expcfg.default_density(self.workload)
                if self.compression.density is None
                else float(self.compression.density)
            ),
            kwargs=dict(self.compression.kwargs),
        )
        optimizer = replace(
            self.optimizer,
            lr=(
                expcfg.default_lr(self.workload)
                if self.optimizer.lr is None
                else float(self.optimizer.lr)
            ),
            epochs=(
                expcfg.default_epochs(self.workload, self.scale)
                if self.optimizer.epochs is None
                else int(self.optimizer.epochs)
            ),
            batch_size=(
                expcfg.default_batch_size(self.workload, self.scale)
                if self.optimizer.batch_size is None
                else int(self.optimizer.batch_size)
            ),
        )
        robustness = replace(
            self.robustness,
            aggregator=(
                default_aggregator_for(self.execution.model)
                if self.robustness.aggregator is None
                else self.robustness.aggregator
            ),
            aggregator_kwargs=dict(self.robustness.aggregator_kwargs),
            attack_kwargs=dict(self.robustness.attack_kwargs),
        )
        cluster = replace(
            self.cluster,
            topology=(
                default_topology_for(self.execution.model)
                if self.cluster.topology is None
                else self.cluster.topology
            ),
        )
        resolved = replace(
            self,
            cluster=cluster,
            optimizer=optimizer,
            compression=compression,
            robustness=robustness,
            execution=replace(self.execution, kwargs=dict(self.execution.kwargs)),
            observability=replace(self.observability),
        )
        resolved.validate()
        return resolved

    def validate(self) -> None:
        """The single validator: range checks, the capability matrix, then
        the components' kwargs schemas.

        Raises ``KeyError`` for unknown component names and ``ValueError``
        for out-of-range knobs, for combinations the capability matrix
        refuses (with :func:`repro.plugins.combination_refusal`'s reason)
        and for kwargs a component's schema rejects -- before anything is
        built.  Preset knobs still ``None`` on an unresolved spec are
        skipped.
        """
        if self.cluster.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.cluster.n_workers}")
        if self.execution.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.execution.local_steps}")
        if self.execution.max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {self.execution.max_staleness}")
        if self.cluster.straggler_profile not in STRAGGLER_PROFILES:
            raise ValueError(
                f"unknown straggler profile {self.cluster.straggler_profile!r}; "
                f"available: {list(STRAGGLER_PROFILES)}"
            )
        if self.cluster.base_compute_seconds <= 0:
            raise ValueError("base_compute_seconds must be positive")
        # Written as "not <valid>" so NaN is refused too.
        optimizer, density = self.optimizer, self.compression.density
        if density is not None and not 0.0 < density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {density}")
        if optimizer.lr is not None and not optimizer.lr > 0:
            raise ValueError(f"lr must be positive, got {optimizer.lr}")
        if optimizer.batch_size is not None and not optimizer.batch_size > 0:
            raise ValueError(f"batch_size must be positive, got {optimizer.batch_size}")
        for knob_name in ("epochs", "max_iterations_per_epoch"):
            value = getattr(optimizer, knob_name)
            if value is not None and not value >= 1:
                raise ValueError(f"{knob_name} must be >= 1, got {value}")
        for knob_name in ("momentum", "weight_decay"):
            value = getattr(optimizer, knob_name)
            if not value >= 0:
                raise ValueError(f"{knob_name} must be >= 0, got {value}")

        combination = self.combination()
        reason = combination_refusal(**combination)
        if reason:
            raise ValueError(reason)
        for kind, name, kwargs in (
            ("aggregator", combination["aggregator"], self.robustness.aggregator_kwargs),
            ("attack", self.robustness.attack, self.robustness.attack_kwargs),
            ("execution", self.execution.model, self.execution.kwargs),
            ("sparsifier", self.compression.sparsifier, self.compression.kwargs),
        ):
            if kwargs:
                get_component(kind, name).coerce_kwargs(kwargs)

    def combination(self) -> Dict[str, Any]:
        """The capability matrix's view of this spec: the keyword arguments
        of :func:`repro.plugins.combination_refusal` (resolved or not)."""
        return dict(
            execution=self.execution.model,
            aggregator=(
                self.robustness.aggregator
                if self.robustness.aggregator is not None
                else default_aggregator_for(self.execution.model)
            ),
            attack=self.robustness.attack,
            sparsifier=self.compression.sparsifier,
            n_workers=self.cluster.n_workers,
            n_byzantine=self.robustness.n_byzantine,
            momentum=self.optimizer.momentum,
            weight_decay=self.optimizer.weight_decay,
            # None resolves to the schedule's declared default inside the
            # capability matrix, exactly as resolve() fills it.
            topology=self.cluster.topology,
            server_rank=self.cluster.server_rank,
            sparsifier_kwargs=self.compression.kwargs,
        )

    # ------------------------------------------------------------------ #
    # Conversions.
    # ------------------------------------------------------------------ #
    @classmethod
    def from_flat(cls, **knobs: Any) -> "RunSpec":
        """Build a spec from flat keywords (``n_workers=8, execution="gossip"``).

        The keywords are the ``flat`` names of :func:`spec_fields` -- also
        the ``dest`` of the train parser's flags; unnamed fields keep their
        defaults.
        """
        by_flat = {f.flat: f for f in spec_fields()}
        unknown = sorted(set(knobs) - set(by_flat))
        if unknown:
            raise TypeError(f"unknown run field(s) {unknown}; valid: {sorted(by_flat)}")
        spec = cls()
        for flat, value in knobs.items():
            f = by_flat[flat]
            if f.type is dict:
                value = dict(value or {})
            setattr(f.owner(spec), f.name, value)
        return spec

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; missing sections fall back to defaults.

        Raises ``ValueError`` naming the dotted key for a misspelled
        section or field and for a section that is not a mapping.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a run spec must be a mapping, got {type(data).__name__}")
        kwargs = dict(data)
        for key, section_cls in _SECTIONS.items():
            if key in kwargs:
                kwargs[key] = _construct(section_cls, kwargs[key], f"{key}.")
        return _construct(cls, kwargs, "")

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    def to_argv(self) -> List[str]:
        """``repro train`` argv reproducing this run exactly.

        The spec is resolved first, so the argv is fully explicit; parsing
        it back through the CLI and resolving yields an equal spec.
        """
        spec = self.resolve()
        argv: List[str] = ["train"]
        for f in spec_fields():
            value = getattr(f.owner(spec), f.name)
            if f.type is bool:
                if value != f.default:
                    argv.append(f.flag)
            elif f.type is dict:
                for key, item in sorted(value.items()):
                    if item is not None:
                        argv += [f.flag, f"{key}={_format_arg(item)}"]
            elif value is not None:
                argv += [f.flag, _format_arg(value)]
        return argv


def _construct(cls: type, data: Any, prefix: str):
    """``cls(**data)``, with the constructor's TypeError turned into a
    ValueError naming the offending dotted key (outside input: JSON grids)."""
    try:
        return cls(**data)
    except TypeError:
        if not isinstance(data, Mapping):
            raise ValueError(
                f"spec section {prefix[:-1]!r} must be a mapping, got {type(data).__name__}"
            ) from None
        names = [f.name for f in dataclasses.fields(cls)]
        for key in data:
            if key not in names:
                raise ValueError(
                    f"unknown spec key {prefix}{key}; valid: {prefix}{{{', '.join(names)}}}"
                ) from None
        raise


def _format_arg(value: Any) -> str:
    """Render one value as the CLI's ``--flag value`` / ``key=value`` text."""
    if isinstance(value, enum.Enum):
        value = value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------- #
# The field table and what is derived from it.
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SpecField:
    """One run field as its :func:`knob` declaration describes it."""

    #: ``RunSpec`` attribute holding the field's section; None = top level.
    section: Optional[str]
    name: str
    #: Name in the flat keyword namespace (``from_flat``, argparse ``dest``).
    flat: str
    flag: str
    help: Optional[str]
    #: ``int``, ``float``, ``str``, ``bool`` or ``dict`` (Optional unwrapped).
    type: type
    default: Any
    choices: Any
    argparse: Mapping[str, Any]

    def owner(self, spec: RunSpec):
        """The object of ``spec`` this field is an attribute of."""
        return spec if self.section is None else getattr(spec, self.section)


@lru_cache(maxsize=None)
def spec_fields() -> Tuple[SpecField, ...]:
    """Every run field, in declaration order (top level, then each section)."""
    table: List[SpecField] = []
    for section, cls in ((None, RunSpec), *_SECTIONS.items()):
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if section is None and f.name in _SECTIONS:
                continue
            if "flag" not in f.metadata:
                raise TypeError(
                    f"{cls.__name__}.{f.name} declares no train flag; every run "
                    "field needs flag/help metadata (see repro.api.spec.knob)"
                )
            hint = hints[f.name]
            if get_origin(hint) is Union:  # Optional[X]
                hint = next(a for a in get_args(hint) if a is not type(None))
            table.append(
                SpecField(
                    section=section,
                    name=f.name,
                    flat=f.metadata.get("flat", f.name),
                    flag=f.metadata["flag"],
                    help=f.metadata.get("help"),
                    type=get_origin(hint) or hint,
                    default=(
                        f.default if f.default is not dataclasses.MISSING
                        else f.default_factory()
                    ),
                    choices=f.metadata.get("choices"),
                    argparse=f.metadata.get("argparse", {}),
                )
            )
    return tuple(table)


class _KeyValue(argparse.Action):
    """Collect repeated ``key=value`` options into a dict."""

    def __call__(self, parser, namespace, value, option_string=None):
        key, sep, raw = value.partition("=")
        if not sep or not key:
            parser.error(f"{option_string} expects key=value, got {value!r}")
        store = getattr(namespace, self.dest) or {}
        store[key] = raw
        setattr(namespace, self.dest, store)


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one flag per run field to ``parser``; ``dest`` is the flat name.

    ``RunSpec.from_flat(**{f.flat: getattr(namespace, f.flat) ...})`` is the
    inverse (component kwargs arrive as raw ``key=value`` strings, to be
    coerced against the component's schema first).
    """
    for f in spec_fields():
        options: Dict[str, Any] = {"dest": f.flat, "default": f.default, "help": f.help}
        if f.type is bool:
            options["action"] = "store_false" if f.default else "store_true"
        elif f.type is dict:
            options.update(action=_KeyValue, default=None, metavar="KEY=VALUE")
        else:
            if f.type is not str:
                options["type"] = f.type
            if f.choices is not None:
                options["choices"] = f.choices() if callable(f.choices) else f.choices
        options.update(f.argparse)
        parser.add_argument(f.flag, **options)
