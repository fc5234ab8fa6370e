"""Two-way token router: linear logits and a softmax over two FFN columns.

Column 0 is the language FFN, column 1 the vision FFN. Probability ties are
resolved toward language (column 0), which also makes a zero-initialized
router send every token to the language side on its first forward.
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
    """Logits, probabilities and the per-token argmax for one batch.

    probabilities stays attached to the compute graph; preferred_ffn is a
    plain integer array because expert choice is not differentiable.
    """

    logits: T.Tensor
    probabilities: T.Tensor
    preferred_ffn: np.ndarray

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
    """Softmax (n, 2) logits and take each token's argmax, ties to language."""
    probabilities = T.softmax_rows(logits)
    p = probabilities.data
    preferred = np.where(p[:, VISION_FFN] > p[:, LANGUAGE_FFN], VISION_FFN, LANGUAGE_FFN)
    return RoutingDecision(logits, probabilities, preferred.astype(np.int64))
