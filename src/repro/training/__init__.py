"""Distributed training with gradient sparsification (Algorithm 1).

The package simulates ``n`` data-parallel workers in one process:

- :mod:`repro.training.error_feedback` -- per-worker error accumulation,
- :mod:`repro.training.optimizers` / :mod:`repro.training.lr_schedule` --
  parameter updates and learning-rate schedules,
- :mod:`repro.training.tasks` -- workload adapters (image classification,
  language modelling, recommendation) providing loss and evaluation,
- :mod:`repro.training.metrics` -- accuracy / perplexity / hit-rate /
  density / error metrics,
- :mod:`repro.training.timing` -- per-iteration time breakdown (Figure 7),
- :mod:`repro.training.trainer` -- :class:`DistributedTrainer`, the faithful
  implementation of the paper's Algorithm 1 around any
  :class:`~repro.sparsifiers.base.Sparsifier`.
"""

from repro.training.error_feedback import ErrorFeedbackMemory
from repro.training.optimizers import SGD
from repro.training.lr_schedule import ConstantLR, CosineAnnealingLR, StepDecayLR
from repro.training.metrics import (
    accuracy_from_logits,
    hit_rate_at_k,
    perplexity_from_loss,
)
from repro.training.timing import IterationTiming
from repro.training.tasks import (
    ImageClassificationTask,
    LanguageModelingTask,
    RecommendationTask,
    Task,
)
from repro.training.trainer import DistributedTrainer, TrainingResult

__all__ = [
    "ErrorFeedbackMemory",
    "SGD",
    "ConstantLR",
    "StepDecayLR",
    "CosineAnnealingLR",
    "accuracy_from_logits",
    "perplexity_from_loss",
    "hit_rate_at_k",
    "IterationTiming",
    "Task",
    "ImageClassificationTask",
    "LanguageModelingTask",
    "RecommendationTask",
    "DistributedTrainer",
    "TrainingResult",
]
