"""A finished run's trainer is freed by reference counting alone.

A ``DistributedTrainer`` owns several gradient-sized buffers (error
memories, flat gradients, the update vector).  If anything in the run's
object graph forms a reference cycle through the trainer, those buffers
outlive the run until the next full garbage collection -- on a long sweep
or a benchmark loop, several dead runs' worth of memory.  With the
collector disabled, a weak reference to the trainer must be dead as soon
as ``Session.run`` returns or raises.
"""

import gc
import weakref

import pytest

from repro.api import RunSpec, Session
from repro.training.trainer import DistributedTrainer
from tests.conftest import make_smoke_lm_task

SCHEDULES = ["synchronous", "local_sgd", "async_bsp", "elastic", "gossip"]


class _Abort(Exception):
    pass


@pytest.fixture
def trainer_refs(monkeypatch):
    """Weak references to every trainer built while the test runs, with
    the cyclic garbage collector off."""
    refs = []
    original = DistributedTrainer.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(DistributedTrainer, "__init__", recording_init)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


def _spec(schedule: str) -> RunSpec:
    return RunSpec.from_flat(
        n_workers=3,
        execution=schedule,
        local_steps=2,
        batch_size=8,
        epochs=1,
        max_iterations_per_epoch=3,
        lr=0.2,
        density=0.05,
    )


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_finished_run_frees_its_trainer(trainer_refs, schedule):
    Session().run(_spec(schedule), task=make_smoke_lm_task())
    (ref,) = trainer_refs
    assert ref() is None


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_aborted_run_frees_its_trainer(trainer_refs, schedule):
    def stop(payload):
        raise _Abort

    try:
        Session().run(_spec(schedule), task=make_smoke_lm_task(), hooks={"round_complete": stop})
    except _Abort:
        pass
    else:
        pytest.fail("the round_complete hook did not abort the run")
    (ref,) = trainer_refs
    assert ref() is None
