"""Capacity-constrained token allocation for a two-FFN layer.

Given the (n, 2) routing probabilities of n tokens, each of the two FFNs
may accept at most ``capacity = ceil(capacity_factor * n / 2)`` of them.
The probabilities become the priority scores, a plain (n, 2) array, and
three selection strategies decide from those scores which candidates
survive when a side is over capacity:

* ``random``   - a seeded uniform subset of the candidates;
* ``gbpr``     - keep the highest routing scores (global batch priority);
* ``img_gbpr`` - gbpr over modality-biased scores. Image tokens get a fixed
  (0, 1) prior and text tokens (1, 0), so each modality is steered to its own
  FFN, and rejected tokens may be redistributed to the other FFN's free slots.

:func:`allocate` is the whole decision: selection, then (on by default only
for img_gbpr) the redistribution of rejects, and it returns the final plan.
The plan also records its stability ``margin``: the smallest score gap that
a perturbation would have to close to change the plan.

Each token is a candidate for the FFN its priority scores prefer, and a
tie goes to language. Under ``img_gbpr`` the prior dominates the routing
probability, so image tokens are candidates for the vision FFN and text
tokens for the language FFN. Under ``gbpr`` and ``random`` the scores are
the routing probabilities themselves, so the grouping is the router argmax,
and a zero-initialized router makes every token a language candidate.

Score-ranked selection is a top-k found by a partition, not a sort: a pool
keeps its ``capacity`` highest scores, and a tie at the boundary goes to
the lower token index. Kept and rejected tokens are picked by masks over
the ascending pool, so both lists come out ascending without a sort.

Determinism contract (relied on by trace tooling and reference oracles):
all draws descend from the ``rng`` key the caller hands :func:`allocate`,
``rng.child(0, ffn_index)`` for the random-selection subset of each FFN and
``rng.child(1)`` for the redistribution draw over the combined reject pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, ContractError
from . import tensor as T
from .router import LANGUAGE_FFN, VISION_FFN
from .seeds import RngKey

_SELECTION_DOMAIN = 0
_REDISTRIBUTION_DOMAIN = 1


class Strategy(str, Enum):
    RANDOM = "random"
    GBPR = "gbpr"
    IMG_GBPR = "img_gbpr"


@dataclass(frozen=True)
class CapacityConfig:
    """Static allocation settings for one model or allocate-trace run."""

    capacity_factor: float = 1.5
    redistribution_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not (self.capacity_factor > 0.0 and math.isfinite(self.capacity_factor)):
            raise ConfigError(f"capacity_factor must be positive and finite, got {self.capacity_factor}")
        if not (0.0 <= self.redistribution_fraction <= 1.0):
            raise ConfigError(
                f"redistribution_fraction must lie in [0, 1], got {self.redistribution_fraction}"
            )


@dataclass(frozen=True, eq=False)
class ModalityTags:
    """Per-token modality labels for one flattened batch."""

    is_image: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.is_image, dtype=bool)
        if arr.ndim != 1:
            raise ContractError(f"modality tags must be 1-d, got shape {arr.shape}")
        object.__setattr__(self, "is_image", arr)

    @property
    def n(self) -> int:
        return int(self.is_image.shape[0])


@dataclass(eq=False)
class AllocationPlan:
    """Final token-to-FFN assignment for one batch.

    Token index lists are ascending. ``margin`` is the smallest
    |vision - language| score gap over the tokens and, for score-ranked
    selection, the gap at each over-capacity boundary; it is diagnostic
    only, so it stays out of :meth:`signature` and of ``allocate_trace.json``.
    """

    strategy: Strategy
    n_tokens: int
    capacity: int
    accepted: tuple[np.ndarray, np.ndarray]
    dropped: np.ndarray
    redistributed: tuple[tuple[int, int, int], ...] = ()
    margin: float = math.inf

    @property
    def loads(self) -> tuple[int, int]:
        return (int(self.accepted[0].size), int(self.accepted[1].size))

    def signature(self) -> tuple:
        """Hashable assignment identity, used to detect allocation flips."""
        return (
            self.strategy.value,
            self.n_tokens,  # the language list is the rest of range(n_tokens)
            self.capacity,
            tuple(self.accepted[1].tolist()),
            tuple(self.dropped.tolist()),
            self.redistributed,
        )


@dataclass(frozen=True)
class AllocationStats:
    """Aggregate accounting for one final plan; its fields are the keys of its JSON record."""

    n_tokens: int
    capacity: int
    accepted_language: int
    accepted_vision: int
    dropped: int
    redistributed: int
    success_rate: float
    drop_rate: float
    image_acceptance: float | None
    text_acceptance: float | None

    @property
    def loads(self) -> tuple[int, int]:
        return (self.accepted_language, self.accepted_vision)


def compute_capacity(n: int, cfg: CapacityConfig) -> int:
    """Per-FFN token budget: ceil(capacity_factor * n / 2), at least 1.

    A tiny epsilon guards the ceil against float dust pushing an exact
    integer product upward.
    """
    if n <= 0:
        raise ContractError(f"compute_capacity: batch must contain at least one token, got n={n}")
    raw = cfg.capacity_factor * n / 2
    return max(1, int(math.ceil(raw - 1e-9)))


def priority_scores(probabilities: T.Tensor, tags: ModalityTags, strategy: Strategy) -> np.ndarray:
    """Selection scores per token and FFN: a private (n, 2) float64 array.

    gbpr and random take the routing probabilities unchanged: gbpr ranks
    by them, and random only groups the candidates by them (its selection
    is a seeded draw). img_gbpr adds the fixed modality prior, which lifts
    every image token above every text token in the vision column and vice
    versa.
    """
    values = probabilities.data.copy()
    if tags.n != len(values):
        raise ContractError(f"priority_scores: {tags.n} tags for {len(values)} tokens")
    if strategy is Strategy.IMG_GBPR:  # the fixed prior: image (0, 1), text (1, 0)
        values[:, VISION_FFN] += tags.is_image
        values[:, LANGUAGE_FFN] += ~tags.is_image
    return values


def _top(pool: np.ndarray, values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Split an ascending pool of more than k tokens by their values.

    Returns the k tokens with the highest values, ties broken toward the
    lower index, the rest, both ascending, and the gap between the k-th and
    the (k+1)-th highest value. A partition finds those two values; masks
    over the pool keep its order, so nothing is sorted.
    """
    m = values.size
    below, kth = np.partition(values, (m - k - 1, m - k))[m - k - 1 : m - k + 1]
    keep = values > kth
    ties = np.flatnonzero(values == kth)
    keep[ties[: k - np.count_nonzero(keep)]] = True
    return pool[keep], pool[~keep], float(kth - below)


def allocate(
    probabilities: T.Tensor,
    scores: np.ndarray,
    tags: ModalityTags,
    cfg: CapacityConfig,
    strategy: Strategy,
    *,
    rng: RngKey,
    redistribution: bool | None = None,
) -> AllocationPlan:
    """Assign each token to one FFN's accepted list, or drop it.

    Only the row count of ``probabilities`` is read; ``scores`` are the
    (n, 2) :func:`priority_scores`. Each token is a candidate for the FFN
    its scores prefer, ties to language. An over-capacity side keeps a
    subset drawn from ``rng`` (random) or its top scores (gbpr, img_gbpr).
    With ``redistribution`` the rejects are then offered to the opposite
    FFN (see :func:`_redistribute`); left at None it is on only for img_gbpr.
    """
    n = len(probabilities.data)
    if tags.n != n:
        raise ContractError(f"allocate: {tags.n} tags for {n} tokens")
    if scores.shape != (n, 2):
        raise ContractError(f"allocate: {len(scores)} score rows for {n} tokens: shape {scores.shape}, not ({n}, 2)")
    capacity = compute_capacity(n, cfg)
    if redistribution is None:
        redistribution = strategy is Strategy.IMG_GBPR

    candidates = np.where(scores[:, VISION_FFN] > scores[:, LANGUAGE_FFN], VISION_FFN, LANGUAGE_FFN)
    margin = float(np.abs(scores[:, VISION_FFN] - scores[:, LANGUAGE_FFN]).min())
    accepted: list[np.ndarray] = []
    rejected: list[np.ndarray] = []
    for ffn in (LANGUAGE_FFN, VISION_FFN):
        pool = np.flatnonzero(candidates == ffn)
        if pool.size <= capacity:
            kept, rest = pool, pool[:0]
        elif strategy is Strategy.RANDOM:
            gen = rng.child(_SELECTION_DOMAIN, ffn).generator()
            drawn = np.zeros(n, dtype=bool)
            drawn[gen.choice(pool, size=capacity, replace=False)] = True
            kept, rest = pool[drawn[pool]], pool[~drawn[pool]]
        else:
            kept, rest, gap = _top(pool, scores[pool, ffn], capacity)
            margin = min(margin, gap)
        accepted.append(kept)
        rejected.append(rest)

    moved: tuple[tuple[int, int, int], ...] = ()
    if redistribution:
        moved = _redistribute(accepted, rejected, scores, capacity, cfg.redistribution_fraction, rng)
    mask = np.ones(n, dtype=bool)
    mask[accepted[LANGUAGE_FFN]] = False
    mask[accepted[VISION_FFN]] = False
    return AllocationPlan(
        strategy=strategy,
        n_tokens=n,
        capacity=capacity,
        accepted=(accepted[LANGUAGE_FFN], accepted[VISION_FFN]),
        dropped=np.flatnonzero(mask),
        redistributed=moved,
        margin=margin,
    )


def _redistribute(
    accepted: list[np.ndarray],
    rejected: list[np.ndarray],
    scores: np.ndarray,
    capacity: int,
    fraction: float,
    rng: RngKey,
) -> tuple[tuple[int, int, int], ...]:
    """Offer a seeded fraction of the rejects to the opposite FFN, in place.

    The combined pool lists the language-side rejects then the vision-side
    rejects, each in ascending token order; the seeded draw picks positions
    in that pool. Offers are accepted by the opposite FFN in descending
    score for the receiving column (ties toward lower token index) until
    its remaining capacity is used. ``accepted`` is updated; the sorted
    (token, from, to) moves are returned.
    """
    pool = np.concatenate(rejected)
    offered_count = int(math.floor(fraction * pool.size + 0.5))
    offered = np.zeros(pool.size, dtype=bool)
    if offered_count >= pool.size:
        offered[:] = True
    elif offered_count > 0:
        gen = rng.child(_REDISTRIBUTION_DOMAIN).generator()
        offered[gen.choice(pool.size, size=offered_count, replace=False)] = True
    split = rejected[LANGUAGE_FFN].size
    offers_from = (rejected[LANGUAGE_FFN][offered[:split]], rejected[VISION_FFN][offered[split:]])

    moves = []
    for receiver in (LANGUAGE_FFN, VISION_FFN):
        offers = offers_from[1 - receiver]
        slots = capacity - accepted[receiver].size
        if offers.size and slots > 0:
            placed = offers if offers.size <= slots else _top(offers, scores[offers, receiver], slots)[0]
            accepted[receiver] = np.sort(np.concatenate([accepted[receiver], placed]))
            moves += [(token, 1 - receiver, receiver) for token in placed.tolist()]
    return tuple(sorted(moves))


def allocation_stats(plan: AllocationPlan, tags: ModalityTags) -> AllocationStats:
    """Success/drop accounting for a plan."""
    if tags.n != plan.n_tokens:
        raise ContractError(f"allocation_stats: {tags.n} tags for {plan.n_tokens} tokens")
    n = plan.n_tokens
    language, vision = plan.loads
    accepted = language + vision
    image_total = int(np.count_nonzero(tags.is_image))
    text_total = n - image_total
    image_accepted = sum(int(np.count_nonzero(tags.is_image[idx])) for idx in plan.accepted)
    image_rate = image_accepted / image_total if image_total else None
    text_rate = (accepted - image_accepted) / text_total if text_total else None
    return AllocationStats(
        n_tokens=n,
        capacity=plan.capacity,
        accepted_language=language,
        accepted_vision=vision,
        dropped=int(plan.dropped.size),
        redistributed=len(plan.redistributed),
        success_rate=accepted / n,
        drop_rate=1.0 - accepted / n,
        image_acceptance=image_rate,
        text_acceptance=text_rate,
    )
