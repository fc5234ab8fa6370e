"""The elastic two-FFN transformer sub-layer.

An EVF layer holds a frozen language FFN, a trainable vision FFN and a
router. ``model.forward`` runs a multimodal batch through it in three
stages: ``router.route``, which gives the (n, 2) routing probabilities,
with ``allocator.priority_scores`` and ``allocator.allocate``;
:func:`ffn_forward` of each FFN on the rows the plan accepted for it; and
``tensor.combine``, which scales each row by its FFN's routing probability
(so the router gets a gradient although the assignment is discrete).
Tokens the allocation dropped contribute an exact zero row, so a residual
connection around the layer passes them through unchanged.

Language-only batches skip routing entirely: the block runs its language
FFN as a dense block runs its FFN, which makes that path bit-identical to
the dense layer it was initialized from.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ShapeError
from .router import RouterParams


@dataclass(eq=False)
class FfnParams:
    """A two-matrix GELU feedforward block: width -> hidden -> width."""

    w_up: T.Parameter
    b_up: T.Parameter
    w_down: T.Parameter
    b_down: T.Parameter

    def __post_init__(self) -> None:
        d, h = self.w_up.data.shape
        if self.b_up.data.shape != (h,):
            raise ShapeError(f"ffn: b_up shape {self.b_up.data.shape} does not match hidden {h}")
        if self.w_down.data.shape != (h, d):
            raise ShapeError(f"ffn: w_down shape {self.w_down.data.shape} does not match ({h}, {d})")
        if self.b_down.data.shape != (d,):
            raise ShapeError(f"ffn: b_down shape {self.b_down.data.shape} does not match width {d}")

    @property
    def width(self) -> int:
        return self.w_up.data.shape[0]

    def parameters(self) -> list[tuple[str, T.Parameter]]:
        return [("w_up", self.w_up), ("b_up", self.b_up), ("w_down", self.w_down), ("b_down", self.b_down)]

    def copy(self) -> "FfnParams":
        """Bit-exact duplicate: new parameters, each with its own copy of the value."""
        return FfnParams(*(T.Parameter(p.data) for _, p in self.parameters()))


def ffn_forward(p: FfnParams, x: T.Tensor) -> T.Tensor:
    """gelu(x @ w_up + b_up) @ w_down + b_down."""
    return T.linear(T.gelu(T.linear(x, p.w_up, p.b_up)), p.w_down, p.b_down)


@dataclass(eq=False)
class EvfLayerParams:
    """Router plus the language/vision FFN pair; the allocation settings come from the caller."""

    router: RouterParams
    language_ffn: FfnParams
    vision_ffn: FfnParams

    def __post_init__(self) -> None:
        if self.language_ffn.width != self.vision_ffn.width:
            raise ShapeError(
                f"evf layer: FFN widths differ ({self.language_ffn.width} vs {self.vision_ffn.width})"
            )
        if self.router.width != self.language_ffn.width:
            raise ShapeError(
                f"evf layer: router width {self.router.width} does not match FFN width {self.language_ffn.width}"
            )


def init_stage3_from_dense(dense: FfnParams) -> EvfLayerParams:
    """Duplicate a dense FFN into an EVF layer.

    Both FFNs start as bit-exact copies of the dense block; the router is
    zero-initialized, so the first forward routes every token at (0.5, 0.5).
    The freeze flags are left to :func:`evf.model.apply_stage`.
    """
    return EvfLayerParams(
        router=RouterParams.zeros(dense.width),
        language_ffn=dense.copy(),
        vision_ffn=dense.copy(),
    )
