"""Losses, optimizer and gradient verification.

The training objective, composed by :func:`evf.model.compute_loss`, is
``L_total = L_regressive + aux_weight * L_aux``.
L_regressive is mean next-token cross-entropy. L_aux is the balance term
``F_lang * G_lang + F_vis * G_vis`` per elastic layer, averaged across those
layers, where F is the discrete fraction of tokens each FFN accepted and G
is the mean routing probability column over all tokens. Only G carries
gradient; F is a constant of the (non-differentiable) allocation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import tensor as T
from .allocator import AllocationPlan
from .errors import ConfigError, ContractError, UnstableInstanceError

_REL_FLOOR = 1e-5


def layer_aux(plan: AllocationPlan, probabilities: T.Tensor) -> T.Tensor:
    """One elastic layer's balance term ``F_lang * G_lang + F_vis * G_vis``."""
    if plan.n_tokens != len(probabilities.data):
        raise ContractError(f"layer_aux: plan covers {plan.n_tokens} tokens, probabilities {len(probabilities.data)}")
    f = np.array(plan.loads) / plan.n_tokens
    return T.sum_all(T.mul(T.col_mean(probabilities), T.Tensor(f)))


def aux_loss(terms: Sequence[T.Tensor]) -> T.Tensor:
    """Balance loss averaged over the elastic layers of one forward pass, from their
    :func:`layer_aux` terms in layer order."""
    if not terms:
        raise ContractError("aux_loss: at least one layer is required")
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return T.scale(acc, 1.0 / len(terms))


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.0
    warmup_ratio: float = 0.03
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {v}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not (0.0 <= self.warmup_ratio < 1.0):
            raise ConfigError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        if not (0.0 < self.epsilon < math.inf):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")


def learning_rate_at(cfg: OptimizerConfig, step: int, total_steps: int) -> float:
    """Linear warmup to the peak rate, then cosine decay to zero.

    Steps are 0-based; step 0 of a non-trivial warmup runs at rate 0.
    """
    if total_steps <= 0:
        raise ContractError(f"learning_rate_at: total_steps must be positive, got {total_steps}")
    warmup = max(1, int(round(cfg.warmup_ratio * total_steps)))
    if step < warmup:
        return cfg.learning_rate * step / warmup
    span = max(1, total_steps - warmup)
    progress = min(1.0, (step - warmup) / span)
    return cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled-weight-decay Adam over a fixed set of named trainable parameters.

    Both moments are keyed by name and start at zero. Construction refuses a
    repeated name or a frozen parameter, which no optimizer may hold.
    """

    def __init__(self, named_params: Iterable[tuple[str, T.Parameter]], cfg: OptimizerConfig, total_steps: int):
        if total_steps <= 0:
            raise ContractError(f"AdamW: total_steps must be positive, got {total_steps}")
        self.params: dict[str, T.Parameter] = {}
        for name, p in named_params:
            if name in self.params:
                raise ContractError(f"AdamW: parameter name {name!r} appears twice")
            if not p.trainable:
                raise ContractError(f"AdamW: parameter {name!r} is frozen")
            self.params[name] = p
        self.cfg = cfg
        self.total_steps = total_steps
        self._m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def step(self, step_index: int, grads: Sequence[np.ndarray]) -> float:
        """Apply one update from ``grads``, one per parameter in ``self.params`` order; returns the rate used."""
        if len(grads) != len(self.params):
            raise ContractError(f"AdamW.step: {len(grads)} gradients for {len(self.params)} parameters")
        lr = learning_rate_at(self.cfg, step_index, self.total_steps)
        t = step_index + 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        for (name, p), g in zip(self.params.items(), grads):
            m, v = self._m[name], self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            update = m_hat / (np.sqrt(v_hat) + self.cfg.epsilon) + self.cfg.weight_decay * p.data
            p._adopt(p.data - lr * update)
        return lr


def tensor_digest(arr: np.ndarray) -> str:
    """SHA-256 over the row-major float64 bytes of one array."""
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def parameter_digests(named_params: Iterable[tuple[str, T.Parameter]]) -> dict[str, str]:
    return {name: tensor_digest(p.data) for name, p in named_params}


def combined_digest(named_params: Iterable[tuple[str, T.Parameter]]) -> str:
    """One SHA-256 over all tensors, walked in sorted-name order."""
    h = hashlib.sha256()
    for name, p in sorted(named_params, key=lambda item: item[0]):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class GradCheckReport:
    checked: int
    max_rel_err: float
    worst: str
    per_param: dict[str, float]


def grad_check(
    loss_fn: Callable[[], tuple[T.Tensor, tuple]],
    named_params: Sequence[tuple[str, T.Parameter]],
    *,
    epsilon: float = 1e-5,
    subset: tuple[int, int] | None = None,
    _corrupt_first_gradient: float = 0.0,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    ``loss_fn`` must return (loss tensor, allocation signature) for the
    parameters' current values on every call. Its first call, the base loss,
    builds the graph that gives the analytic gradients; every later call, a
    probe, runs in the graph-free mode of :mod:`evf.tensor`. If a
    perturbation changes the signature, the instance sits too close to a
    capacity or preference boundary and :class:`UnstableInstanceError` is
    raised so the caller can resample. Relative error is
    |analytic - fd| / max(|analytic|, |fd|, _REL_FLOOR).

    ``subset`` restricts the check to scalars whose global flat index is
    congruent to ``offset`` modulo ``stride``; callers that run several
    instances can partition full coverage across them.

    ``_corrupt_first_gradient`` is a negative-control hook for the harness:
    a nonzero value is added to one analytic gradient entry before
    comparison and must make the check fail.
    """
    if subset is not None:
        offset, stride = subset
        if stride < 1 or not 0 <= offset < stride:
            raise ContractError(f"grad_check subset must satisfy 0 <= offset < stride, got {subset}")
    trainable = [(name, p) for name, p in named_params if p.trainable]
    if not trainable:
        return GradCheckReport(checked=0, max_rel_err=0.0, worst="", per_param={})

    base_loss, base_signature = loss_fn()
    analytic = dict(zip([name for name, _ in trainable], T.backward(base_loss, [p for _, p in trainable])))

    selected: dict[str, np.ndarray] = {}
    global_index = 0
    for name, p in trainable:
        indices = np.arange(p.data.size)
        if subset is not None:
            offset, stride = subset
            indices = indices[(global_index + indices) % stride == offset]
        selected[name] = indices
        global_index += p.data.size
    if _corrupt_first_gradient:
        for name, p in trainable:
            if selected[name].size:
                analytic[name] = analytic[name].copy()  # backward's arrays are read-only
                analytic[name].reshape(-1)[int(selected[name][0])] += _corrupt_first_gradient
                break

    checked = 0
    max_rel = 0.0
    worst = ""
    per_param: dict[str, float] = {}

    def loss_value_at(p: T.Parameter, flat_index: int, delta: float, original: np.ndarray) -> float:
        perturbed = original.copy()
        perturbed.reshape(-1)[flat_index] += delta
        p._adopt(perturbed)
        try:
            with T._no_graph():  # nothing differentiates a probe
                loss, signature = loss_fn()
        finally:
            p._adopt(original)
        if signature != base_signature:
            raise UnstableInstanceError("allocation flipped under finite-difference perturbation")
        return loss.item()

    for name, p in trainable:
        if not selected[name].size:
            continue
        original = p.data
        flat_analytic = analytic[name].reshape(-1)
        param_max = 0.0
        for i in (int(j) for j in selected[name]):
            up = loss_value_at(p, i, epsilon, original)
            down = loss_value_at(p, i, -epsilon, original)
            fd = (up - down) / (2.0 * epsilon)
            a = float(flat_analytic[i])
            rel = abs(a - fd) / max(abs(a), abs(fd), _REL_FLOOR)
            checked += 1
            param_max = max(param_max, rel)
            if rel > max_rel:
                max_rel = rel
                worst = f"{name}[{i}]"
        per_param[name] = param_max

    return GradCheckReport(checked=checked, max_rel_err=max_rel, worst=worst, per_param=per_param)
