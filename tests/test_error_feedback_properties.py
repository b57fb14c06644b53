"""Mass conservation of the sparsify-then-error-feedback step.

Algorithm 1 never loses or invents gradient mass: after every exchange,
each rank's accumulator splits exactly into the part that was sent (the
entries at the global index union) and the part kept as the new error
(everything else).  This drives the trainer's own ``sparse_exchange`` --
the code path the in-place error-feedback buffers run through -- with
every registered sparsifier, benign and Byzantine ranks, over several
consecutive steps, and checks the split bit for bit, per rank.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec
from repro.plugins import available_components, build_component
from repro.training.trainer import DistributedTrainer
from tests.conftest import make_smoke_lm_task

SPARSIFIERS = sorted(available_components("sparsifier"))
#: Gradient attacks (label_flip poisons data, which random gradients bypass).
ATTACKS = ["none", "sign_flip", "gaussian_noise", "alie"]

_TASK = make_smoke_lm_task()


def _trainer(sparsifier: str, attack: str, n_workers: int, density: float, seed: int):
    spec = RunSpec.from_flat(
        n_workers=n_workers,
        sparsifier=sparsifier,
        density=density,
        attack=attack,
        n_byzantine=0 if attack == "none" else 1,
        batch_size=8,
        epochs=1,
        lr=0.1,
        seed=seed,
        evaluate_each_epoch=False,
    ).resolve()
    component = build_component(
        "sparsifier", sparsifier, spec.compression.density, **spec.compression.kwargs
    )
    return DistributedTrainer(_TASK, component, spec)


@given(
    sparsifier=st.sampled_from(SPARSIFIERS),
    attack=st.sampled_from(ATTACKS),
    n_workers=st.integers(2, 4),
    density=st.sampled_from([0.01, 0.05, 0.3]),
    steps=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_sent_plus_residual_equals_accumulated(sparsifier, attack, n_workers, density, steps, seed):
    trainer = _trainer(sparsifier, attack, n_workers, density, seed)
    n_g = trainer.n_gradients
    rng = np.random.default_rng(seed)
    layer_scale = rng.lognormal(0.0, 1.0, size=len(trainer.layout.sizes))
    scale = np.repeat(layer_scale, trainer.layout.sizes)
    wire_rows = []
    trainer.obs.events.subscribe(
        "before_aggregation", lambda payload: wire_rows.append(payload["contributions"].copy())
    )
    lr = 0.1
    for step in range(steps):
        grads = [rng.standard_normal(n_g) * scale for _ in range(n_workers)]
        previous = [memory.error.copy() for memory in trainer.memories]
        honest = [trainer.memories[r].accumulate(grads[r], lr) for r in range(n_workers)]
        accumulated = [acc.copy() for acc in honest]
        for rank in range(n_workers):
            # acc = fl(e + fl(lr * g)), bit for bit.
            np.testing.assert_array_equal(accumulated[rank], previous[rank] + lr * grads[rank])
        wire = honest
        if trainer.adversary.n_byzantine:
            wire = trainer.adversary.corrupt_accumulators(step, honest)
        wire_rows.clear()
        exchange = trainer.sparse_exchange(wire, honest)
        trainer.iteration += 1
        sent_at = exchange["global_indices"]
        assert np.array_equal(sent_at, np.unique(sent_at)), "union must be sorted and duplicate-free"
        (matrix,) = wire_rows
        for rank in range(n_workers):
            residual = trainer.memories[rank].error
            sent = np.zeros(n_g)
            sent[sent_at] = accumulated[rank][sent_at]
            assert np.array_equal(sent + residual, accumulated[rank]), (sparsifier, attack, step, rank)
            assert not np.any(residual[sent_at])
            if not trainer.adversary.is_byzantine(rank):
                # What went on the wire is exactly the sent part.
                assert np.array_equal(matrix[rank], accumulated[rank][sent_at])
