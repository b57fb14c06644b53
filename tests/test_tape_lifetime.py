"""An autograd graph is freed by reference counting alone.

No backward closure references the tensor it produces, so a graph holds no
reference cycle.  With the cyclic garbage collector off, everything one
``compute_loss`` + ``backward`` built must die with its last reference --
otherwise dead graphs pile up between collections (a few per worker per
round) and show as peak memory.  A graph that is still referenced stays
usable: a second ``backward`` adds to the leaves' gradients.
"""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataloader import DataLoader
from repro.models.mlp import MLP
from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.training.tasks import RecommendationTask
from tests.conftest import make_smoke_image_task, make_smoke_lm_task

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODELS = ["lstm_lm", "resnet_cifar", "ncf", "mlp"]


def _loss_fn(name):
    """``(model, compute_loss)`` for one small model of each kind."""
    if name == "mlp":
        rng = np.random.default_rng(0)
        model = MLP(in_features=12, hidden_sizes=(16, 8), num_classes=4, rng=rng)
        x, labels = rng.standard_normal((8, 12)).astype(np.float32), rng.integers(0, 4, 8)
        return model, lambda: F.cross_entropy(model(Tensor(x)), labels)
    task = {
        "lstm_lm": make_smoke_lm_task,
        "resnet_cifar": make_smoke_image_task,
        "ncf": lambda: RecommendationTask(num_users=32, num_items=64, interactions_per_user=8, seed=0),
    }[name]()
    model = task.build_model()
    batch = next(iter(DataLoader(task.train_dataset(), batch_size=8)))
    return model, lambda: task.compute_loss(model, batch)


def _largest_intermediate(root):
    """The biggest non-leaf tensor of the graph under ``root``."""
    seen, stack, best = set(), [root], None
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._prev and node is not root and (best is None or node.size > best.size):
            best = node
        stack.extend(node._prev)
    return best


@pytest.fixture
def gc_off():
    """The cyclic garbage collector off for the test (manual collect still works)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", MODELS)
def test_graph_is_freed_without_the_collector(gc_off, name):
    model, compute_loss = _loss_fn(name)
    gc.collect()
    loss = compute_loss()
    loss.backward()
    intermediate = weakref.ref(_largest_intermediate(loss).data)
    del loss
    assert intermediate() is None
    assert gc.collect() == 0


@pytest.mark.parametrize("name", MODELS)
def test_second_backward_accumulates_into_the_leaves(name):
    model, compute_loss = _loss_fn(name)
    loss = compute_loss()
    loss.backward()
    first = {key: p.grad.copy() for key, p in model.named_parameters()}
    loss.backward()
    for key, p in model.named_parameters():
        assert np.array_equal(p.grad, first[key] + first[key]), key


def _make_calls(tree):
    """``(assigned name or None, closure def)`` for every ``_make`` call."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        closures = {node.name: node for node in func.body if isinstance(node, ast.FunctionDef)}
        for stmt in func.body:
            call = getattr(stmt, "value", None)
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_make"
            ):
                continue
            target = stmt.targets[0].id if isinstance(stmt, ast.Assign) else None
            yield target, closures[call.args[2].id]


def test_no_closure_references_the_tensor_it_produces():
    files = sorted((SRC / "tensor").glob("*.py")) + [SRC / "nn" / "recurrent.py"]
    checked = 0
    for path in files:
        for target, closure in _make_calls(ast.parse(path.read_text())):
            names = {node.id for node in ast.walk(closure) if isinstance(node, ast.Name)}
            assert target not in names, f"{path.name}:{closure.lineno} references {target!r}"
            checked += 1
    assert checked >= 20
