"""Checkpointing of distributed-training state.

A checkpoint captures everything needed to resume an interrupted run
bit-exactly: the shared model parameters and buffers, the optimizer's
momentum state, every worker's error-feedback memory, and the trainer's
iteration counter.  Checkpoints are written as ``.npz`` archives plus a small
JSON sidecar for the metadata, so they stay portable and inspectable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.training.trainer import DistributedTrainer

__all__ = ["CheckpointMetadata", "save_checkpoint", "load_checkpoint"]


@dataclass
class CheckpointMetadata:
    """Summary of the run state stored next to the arrays."""

    iteration: int
    n_workers: int
    sparsifier: str
    density: float
    task: str
    extra: Dict[str, float]

    def to_dict(self) -> Dict:
        return {
            "iteration": self.iteration,
            "n_workers": self.n_workers,
            "sparsifier": self.sparsifier,
            "density": self.density,
            "task": self.task,
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CheckpointMetadata":
        return cls(
            iteration=int(payload["iteration"]),
            n_workers=int(payload["n_workers"]),
            sparsifier=str(payload["sparsifier"]),
            density=float(payload["density"]),
            task=str(payload["task"]),
            extra=dict(payload.get("extra", {})),
        )


def save_checkpoint(trainer: DistributedTrainer, path, extra: Optional[Dict[str, float]] = None) -> Path:
    """Write the trainer's full state to ``path`` (``.npz`` + ``.json``).

    Returns the path of the ``.npz`` archive.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {}
    for name, value in trainer.model.state_dict().items():
        arrays[f"model::{name}"] = value
    optimizer_state = trainer.optimizer.state_dict()
    if optimizer_state.get("velocity") is not None:
        arrays["optimizer::velocity"] = optimizer_state["velocity"]
    for rank, memory in enumerate(trainer.memories):
        arrays[f"error::{rank}"] = memory.error.copy()
    np.savez_compressed(path, **arrays)

    metadata = CheckpointMetadata(
        iteration=trainer.iteration,
        n_workers=trainer.n_workers,
        sparsifier=trainer.sparsifier.name,
        density=trainer.sparsifier.density,
        task=trainer.task.name,
        extra=dict(extra or {}),
    )
    path.with_suffix(".json").write_text(json.dumps(metadata.to_dict(), indent=2))
    return path


def load_checkpoint(trainer: DistributedTrainer, path) -> CheckpointMetadata:
    """Restore a trainer's state from a checkpoint written by :func:`save_checkpoint`.

    The trainer must have been constructed with the same task, worker count
    and model configuration; mismatches raise ``ValueError``.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    metadata = CheckpointMetadata.from_dict(json.loads(path.with_suffix(".json").read_text()))
    if metadata.n_workers != trainer.n_workers:
        raise ValueError(
            f"checkpoint was written with {metadata.n_workers} workers, "
            f"trainer has {trainer.n_workers}"
        )

    with np.load(path) as archive:
        model_state = {
            key[len("model::"):]: archive[key] for key in archive.files if key.startswith("model::")
        }
        trainer.model.load_state_dict(model_state)
        if "optimizer::velocity" in archive.files:
            trainer.optimizer.load_state_dict({"velocity": archive["optimizer::velocity"]})
        else:
            trainer.optimizer.load_state_dict({"velocity": None})
        for rank, memory in enumerate(trainer.memories):
            key = f"error::{rank}"
            if key not in archive.files:
                raise ValueError(f"checkpoint is missing error memory for worker {rank}")
            stored = archive[key]
            if stored.shape != memory.error.shape:
                raise ValueError("checkpoint error memory does not match the model size")
            memory.error = stored.astype(memory.error.dtype).copy()

    trainer.iteration = metadata.iteration
    return metadata
