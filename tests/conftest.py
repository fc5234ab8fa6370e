"""Shared fixtures."""

import pytest

from evf.allocator import AllocationPlan
from evf.router import RoutingDecision


@pytest.fixture
def routing_objects_built(monkeypatch):
    """Live counts of RoutingDecision and AllocationPlan constructions.

    Both constructors are wrapped for the duration of one test, so a
    language-only path can assert that it built neither.
    """
    counts = {"decisions": 0, "plans": 0}
    for key, cls in (("decisions", RoutingDecision), ("plans", AllocationPlan)):
        original = cls.__init__

        def counting(self, *args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts
