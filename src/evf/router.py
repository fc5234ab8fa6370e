"""Two-way token router: linear logits and a softmax over two FFN columns.

Column 0 is the language FFN, column 1 the vision FFN. Which FFN a token is
a candidate for is the allocator's decision (:func:`evf.allocator.allocate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError

LANGUAGE_FFN = 0
VISION_FFN = 1
FFN_NAMES = ("language", "vision")


@dataclass(eq=False)
class RouterParams:
    """Router weight of shape (width, 2); logits are tokens @ weight."""

    weight: T.Parameter

    def __post_init__(self) -> None:
        if self.weight.data.ndim != 2 or self.weight.data.shape[1] != 2:
            raise ShapeError(f"router weight must have shape (width, 2), got {self.weight.data.shape}")

    @property
    def width(self) -> int:
        return self.weight.data.shape[0]

    @classmethod
    def zeros(cls, width: int) -> "RouterParams":
        return cls(T.Parameter(np.zeros((width, 2))))


@dataclass(eq=False)
class RoutingDecision:
    """Logits and probabilities for one batch; probabilities stays attached to the compute graph."""

    logits: T.Tensor
    probabilities: T.Tensor

    @property
    def n(self) -> int:
        return self.logits.data.shape[0]


def route(router: RouterParams, tokens: T.Tensor) -> RoutingDecision:
    """Route a batch of token embeddings (n, width) through the router."""
    if tokens.data.ndim != 2:
        raise ShapeError(f"route: tokens must be 2-d, got shape {tokens.data.shape}")
    if tokens.data.shape[1] != router.width:
        raise ShapeError(
            f"route: token width {tokens.data.shape[1]} does not match router width {router.width}"
        )
    return decision_from_logits(T.matmul(tokens, router.weight))


def decision_from_logits(logits: T.Tensor) -> RoutingDecision:
    """Softmax (n, 2) logits into their routing probabilities."""
    return RoutingDecision(logits, T.softmax_rows(logits))
