"""Shared fixtures."""

import numpy as np
import pytest

import evf.model
import evf.router
from evf.allocator import AllocationPlan
from evf.model import TokenBatch
from evf.tensor import Tensor


@pytest.fixture
def routing_objects_built(monkeypatch):
    """Live counts of routing decisions (``route`` calls) and AllocationPlan constructions.

    ``route`` is wrapped in ``evf.router`` and in ``evf.model``, which binds
    it, and the plan constructor on its class, for the duration of one test,
    so a language-only path can assert that it built neither. A caller that
    bound ``route`` by name before the test is not seen.
    """
    counts = {"decisions": 0, "plans": 0}
    route, init = evf.router.route, AllocationPlan.__init__

    def counting_route(*args, **kwargs):
        counts["decisions"] += 1
        return route(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        counts["plans"] += 1
        init(self, *args, **kwargs)

    for module in (evf.router, evf.model):
        monkeypatch.setattr(module, "route", counting_route)
    monkeypatch.setattr(AllocationPlan, "__init__", counting_init)
    return counts


@pytest.fixture
def tensor_ops_built(monkeypatch):
    """Live counts of tensor op results and of those that are graph nodes.

    ``Tensor._from_op`` is wrapped for the duration of one test; a result is
    a graph node when it needs a gradient.
    """
    counts = {"ops": 0, "graph_nodes": 0}
    original = Tensor._from_op

    def counting(data, parents, vjps):
        out = original(data, parents, vjps)
        counts["ops"] += 1
        counts["graph_nodes"] += out.requires_grad
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting))
    return counts


@pytest.fixture
def text_batch():
    """Builds text-only batches (no image rows, no targets) for language-only forwards.

    ``make(cfg, key, sequences=None, text_len=None)`` draws each sequence's
    ids as ``gen.integers(cfg.vocab, size=text_len)`` from ``key``'s generator,
    with cfg.batch_sequences and cfg.text_len as the defaults.
    """

    def make(cfg, key, sequences=None, text_len=None):
        sequences = cfg.batch_sequences if sequences is None else sequences
        text_len = cfg.text_len if text_len is None else text_len
        gen = key.generator()
        ids = [gen.integers(cfg.vocab, size=text_len) for _ in range(sequences)]
        return TokenBatch(np.concatenate(ids), np.full(sequences, text_len))

    return make
