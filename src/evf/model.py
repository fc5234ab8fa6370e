"""A desk-scale decoder transformer with elastic FFN layers.

Sequences are packed into one flattened token matrix (batch and sequence
dimensions collapse), so the elastic layers see the whole batch at once,
which is the scope capacity is defined over. Attention alone splits the
rows back into sequences, each attending causally to itself only. Each
sequence is laid out image tokens first, then text.

The synthetic multimodal task: a hidden key, recoverable only from the
image tokens, selects one of several fixed vocabulary permutations, and the
token following text token t is defined to be permutation[t]. Text alone
cannot identify the permutation, so loss improvements beyond chance require
the image pathway.
"""

from __future__ import annotations

import json
import math
import operator
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import tensor as T
from .allocator import AllocationPlan, CapacityConfig, ModalityTags, Strategy, allocate, allocation_stats, priority_scores
from .errors import ConfigError, ContractError, NumericError
from .layer import EvfLayerParams, FfnParams, ffn_forward, init_stage3_from_dense
from .router import LANGUAGE_FFN, VISION_FFN, route
from .seeds import RngKey
from .tensor import _frozen_copy
from .training import AdamW, OptimizerConfig, aux_loss, layer_aux, learning_rate_at

MULTIMODAL = "multimodal"
LANGUAGE_ONLY = "language_only"

_HISTOGRAM_BINS = 10
_HISTOGRAM_EDGES = np.linspace(0.0, 1.0, _HISTOGRAM_BINS + 1)  # np.histogram's, for range (0, 1)
# Far above any depth this model is trained at, and low enough that resolving
# the default elastic-layer indices never asks for gigabytes.
_MAX_DEPTH = 1024
_MAX_PARAMETERS = 2**25  # far above any model trained here; values, gradients and AdamW moments fit in 1 GiB
# Far above any batch or task here, and small enough that the Python loops of
# SyntheticTask (one draw per key, one per sequence) end in seconds.
_MAX_BATCH_TOKENS = 2**16
_MAX_TASK_ENTRIES = 2**22  # of its permutation and key-vector tables

# RngKey domains under a model's seed.
_INIT_DOMAIN = 0
_TASK_DOMAIN = 1
_DATA_DOMAIN = 2
_ALLOC_DOMAIN = 3
_EVAL_DOMAIN = 4

# The parameter groups that train at each curriculum stage. Stage 1 tunes
# only the vision adapter, stage 2 adds the backbone, and stage 3 trains only
# the vision FFNs and routers while everything else stays bit-frozen.
STAGE_GROUPS = {
    1: frozenset({"adapter"}),
    2: frozenset({"adapter", "backbone"}),
    3: frozenset({"vision_ffn", "router"}),
}


def _default_evf_indices(depth: int) -> tuple[int, ...]:
    return tuple(range(0, depth, 2))


def _parameter_count(cfg: ModelConfig) -> int:
    """Scalars in the stage-3 model that cfg builds, worked out before any array exists."""
    d, h = cfg.width, cfg.hidden
    ffn = 2 * d * h + h + d
    block = 4 * d * d + 8 * d + ffn  # attention, two layer norms, FFN
    outer = (2 * cfg.vocab + cfg.max_seq_len + cfg.image_feature_dim + 3) * d + cfg.vocab  # embeddings, adapter, head
    return outer + cfg.depth * block + len(cfg.evf_layer_indices) * (ffn + 2 * d)  # + vision FFN and router


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, allocation settings and task settings for one model."""

    depth: int = 4
    width: int = 32
    heads: int = 2
    hidden: int = 64
    vocab: int = 64
    evf_layer_indices: tuple[int, ...] | None = None
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    strategy: Strategy = Strategy.IMG_GBPR
    seed: int = 0
    image_feature_dim: int = 16
    image_tokens: int = 2
    image_noise: float = 0.1
    num_keys: int = 4
    text_len: int = 8
    batch_sequences: int = 2
    max_seq_len: int = 64

    def __post_init__(self) -> None:
        for name in ("depth", "width", "heads", "hidden", "vocab", "image_feature_dim", "num_keys", "text_len", "batch_sequences", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("image_tokens", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.depth > _MAX_DEPTH:
            raise ConfigError(f"depth must be at most {_MAX_DEPTH}, got {self.depth}")
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} is not divisible by heads {self.heads}")
        check_batch(self, self.batch_sequences, self.text_len)
        if self.evf_layer_indices is None:
            object.__setattr__(self, "evf_layer_indices", _default_evf_indices(self.depth))
        else:
            indices = tuple(sorted(int(i) for i in self.evf_layer_indices))
            if len(set(indices)) != len(indices):
                raise ConfigError(f"evf_layer_indices contains duplicates: {indices}")
            for i in indices:
                if not (0 <= i < self.depth):
                    raise ConfigError(f"evf_layer_indices entry {i} outside [0, {self.depth})")
            object.__setattr__(self, "evf_layer_indices", indices)
        if not isinstance(self.strategy, Strategy):
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        if (count := _parameter_count(self)) > _MAX_PARAMETERS:
            raise ConfigError(f"the model would have {count} parameters, more than {_MAX_PARAMETERS}")
        if (entries := self.num_keys * (self.vocab + self.image_feature_dim)) > _MAX_TASK_ENTRIES:
            raise ConfigError(f"the task tables would have {entries} entries, more than {_MAX_TASK_ENTRIES}")


def check_batch(cfg: ModelConfig, sequences: int, text_len: int) -> None:
    """Refuse, before any is sampled, batches of ``sequences`` sequences of cfg.image_tokens image
    and ``text_len`` text tokens that cfg cannot run."""
    length = cfg.image_tokens + text_len
    if length > cfg.max_seq_len:
        raise ConfigError(f"max_seq_len {cfg.max_seq_len} cannot hold {cfg.image_tokens} image + {text_len} text tokens")
    if (tokens := sequences * length) > _MAX_BATCH_TOKENS:
        raise ConfigError(f"a batch of {sequences} sequences would have {tokens} tokens, more than {_MAX_BATCH_TOKENS}")


def _integers(name: str, values) -> np.ndarray:
    """A read-only int64 copy of ``values``, refusing floats and bools, which the cast would truncate."""
    if (arr := np.asarray(values)).size and not np.issubdtype(arr.dtype, np.integer):  # [] reads as float64
        raise ContractError(f"{name} must be integers, got dtype {arr.dtype}")
    return _frozen_copy(arr, np.int64)


class TokenBatch:
    """A packed batch: sequence i is ``image_counts[i]`` rows of ``features``, then its ``text_counts[i]`` text ids.

    ``features`` is None when the batch has no image rows and ``targets``
    (one per text id) is None for a text-only batch. The inputs are checked
    once and stored as read-only copies, with the layout every forward
    embeds by, so a batch never changes.
    """

    def __init__(self, text_ids, text_counts, features=None, image_counts=None, targets=None):
        self.text_ids = _integers("text_ids", text_ids)
        self.text_counts = _integers("text_counts", text_counts)
        if image_counts is None:
            image_counts = np.zeros_like(self.text_counts)
        self.image_counts = _integers("image_counts", image_counts)
        if self.text_ids.ndim != 1:
            raise ContractError(f"text_ids must be 1-d, got shape {self.text_ids.shape}")
        if self.text_counts.ndim != 1 or self.text_counts.size < 1:
            raise ContractError(f"batch must contain at least one sequence, got text counts of shape "
                                f"{self.text_counts.shape}")
        if self.image_counts.shape != self.text_counts.shape:
            raise ContractError(f"image counts of shape {self.image_counts.shape} for {self.text_counts.size} "
                                "sequences")
        if (short := np.flatnonzero((self.text_counts < 1) | (self.image_counts < 0))).size:
            si = short[0]
            raise ContractError(f"sequence {si} has {self.text_counts[si]} text tokens and {self.image_counts[si]} "
                                "image rows, where at least 1 and 0 are needed")
        if self.text_ids.size != (count := self.text_counts.sum()):
            raise ContractError(f"{self.text_ids.size} text ids for text counts that sum to {count}")
        self.features = None if features is None else _frozen_copy(features)
        if self.features is not None and self.features.ndim != 2:
            raise ContractError(f"image features must be 2-d, got shape {self.features.shape}")
        if (images := 0 if self.features is None else len(self.features)) != (count := self.image_counts.sum()):
            raise ContractError(f"{images} image rows for image counts that sum to {count}")
        if images == 0:
            self.features = None
        self.targets = None if targets is None else _integers("targets", targets)
        if self.targets is not None and self.targets.shape != self.text_ids.shape:
            raise ContractError(f"targets shape {self.targets.shape} does not match text_ids {self.text_ids.shape}")

        lengths = self.text_counts + self.image_counts
        self.lengths = tuple(lengths.tolist())
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.positions = _frozen_copy(np.arange(lengths.sum()) - starts, np.int64)
        self.tags = ModalityTags(_frozen_copy(self.positions < np.repeat(self.image_counts, lengths), bool))
        self.text_rows = _frozen_copy(np.flatnonzero(~self.tags.is_image), np.int64)
        # One gather embeds the whole batch: image rows are projected together and
        # stacked above the token table, so row j of the table is image row j and
        # row n_img + t is token t.
        rows = self.text_ids
        if self.features is not None:
            rows = np.empty(self.positions.size, dtype=np.int64)
            rows[self.tags.is_image] = np.arange(len(self.features))
            rows[self.text_rows] = self.text_ids + len(self.features)
        self.rows = _frozen_copy(rows, np.int64)
        self._memo: list = []  # the last forward's key and stages, see forward


@dataclass(eq=False)
class LayerNormParams:
    gain: T.Parameter
    bias: T.Parameter


@dataclass(eq=False)
class AttentionParams:
    wq: T.Parameter
    bq: T.Parameter
    wk: T.Parameter
    bk: T.Parameter
    wv: T.Parameter
    bv: T.Parameter
    wo: T.Parameter
    bo: T.Parameter

    def parameters(self) -> list[tuple[str, T.Parameter]]:
        return [("wq", self.wq), ("bq", self.bq), ("wk", self.wk), ("bk", self.bk),
                ("wv", self.wv), ("bv", self.bv), ("wo", self.wo), ("bo", self.bo)]


@dataclass(eq=False)
class Block:
    index: int
    ln_attn: LayerNormParams
    attn: AttentionParams
    ln_ffn: LayerNormParams
    ffn: FfnParams | None = None
    evf: EvfLayerParams | None = None


@dataclass(eq=False)
class MicroModel:
    """Parameter container plus stage bookkeeping; logic lives in functions."""

    cfg: ModelConfig
    embed_tokens: T.Parameter
    embed_positions: T.Parameter
    adapter_weight: T.Parameter  # the vision adapter: projects image features into the model width
    adapter_bias: T.Parameter
    blocks: list[Block]
    ln_final: LayerNormParams
    head_weight: T.Parameter
    head_bias: T.Parameter
    stage: int = field(default=2, init=False)
    _stages: dict = field(default_factory=dict, init=False, repr=False)  # per mode, see forward_stages

    def named_parameters(self) -> Iterator[tuple[str, T.Parameter, str]]:
        """Yields (name, parameter, stage group) in a fixed order."""
        yield "embed.tokens", self.embed_tokens, "backbone"
        yield "embed.positions", self.embed_positions, "backbone"
        yield "adapter.weight", self.adapter_weight, "adapter"
        yield "adapter.bias", self.adapter_bias, "adapter"
        for block in self.blocks:
            prefix = f"blocks.{block.index}"
            yield f"{prefix}.ln_attn.gain", block.ln_attn.gain, "backbone"
            yield f"{prefix}.ln_attn.bias", block.ln_attn.bias, "backbone"
            for key, p in block.attn.parameters():
                yield f"{prefix}.attn.{key}", p, "backbone"
            yield f"{prefix}.ln_ffn.gain", block.ln_ffn.gain, "backbone"
            yield f"{prefix}.ln_ffn.bias", block.ln_ffn.bias, "backbone"
            if block.ffn is not None:
                for key, p in block.ffn.parameters():
                    yield f"{prefix}.ffn.{key}", p, "backbone"
            if block.evf is not None:
                yield f"{prefix}.evf.router.weight", block.evf.router.weight, "router"
                for key, p in block.evf.language_ffn.parameters():
                    yield f"{prefix}.evf.language_ffn.{key}", p, "backbone"
                for key, p in block.evf.vision_ffn.parameters():
                    yield f"{prefix}.evf.vision_ffn.{key}", p, "vision_ffn"
        yield "ln_final.gain", self.ln_final.gain, "backbone"
        yield "ln_final.bias", self.ln_final.bias, "backbone"
        yield "head.weight", self.head_weight, "backbone"
        yield "head.bias", self.head_bias, "backbone"

    def trainable_parameters(self) -> list[tuple[str, T.Parameter]]:
        return [(name, p) for name, p, _ in self.named_parameters() if p.trainable]


def build_model(cfg: ModelConfig) -> MicroModel:
    """Deterministic initialization from cfg.seed; starts as a dense stage-2 model."""
    key = RngKey(cfg.seed).child(_INIT_DOMAIN)
    counter = 0

    def next_gen() -> np.random.Generator:
        nonlocal counter
        gen = key.child(counter).generator()
        counter += 1
        return gen

    def normal(shape: tuple[int, ...], scale: float = 0.02) -> T.Parameter:
        return T.Parameter(next_gen().normal(0.0, scale, size=shape))

    def zeros(shape: tuple[int, ...]) -> T.Parameter:
        return T.Parameter(np.zeros(shape))

    d, h = cfg.width, cfg.hidden
    embed_tokens = normal((cfg.vocab, d))
    embed_positions = normal((cfg.max_seq_len, d))
    adapter_weight, adapter_bias = normal((cfg.image_feature_dim, d)), zeros((d,))
    blocks: list[Block] = []
    for i in range(cfg.depth):
        ln_attn = LayerNormParams(T.Parameter(np.ones(d)), zeros((d,)))
        attn = AttentionParams(
            wq=normal((d, d)), bq=zeros((d,)),
            wk=normal((d, d)), bk=zeros((d,)),
            wv=normal((d, d)), bv=zeros((d,)),
            wo=normal((d, d)), bo=zeros((d,)),
        )
        ln_ffn = LayerNormParams(T.Parameter(np.ones(d)), zeros((d,)))
        ffn = FfnParams(
            w_up=normal((d, h)), b_up=zeros((h,)),
            w_down=normal((h, d)), b_down=zeros((d,)),
        )
        blocks.append(Block(index=i, ln_attn=ln_attn, attn=attn, ln_ffn=ln_ffn, ffn=ffn))
    ln_final = LayerNormParams(T.Parameter(np.ones(d)), zeros((d,)))
    head_weight = normal((d, cfg.vocab))
    head_bias = zeros((cfg.vocab,))
    model = MicroModel(cfg, embed_tokens, embed_positions, adapter_weight, adapter_bias, blocks, ln_final,
                       head_weight, head_bias)
    apply_stage(model, 2)
    return model


def _check_stage(stage: int) -> None:
    if stage not in STAGE_GROUPS:
        raise ConfigError(f"stage must be 1, 2 or 3, got {stage}")


def apply_stage(model: MicroModel, stage: int) -> None:
    """Switch the model to a curriculum stage and set every freeze flag from STAGE_GROUPS.

    The first entry to stage 3 duplicates each dense FFN at the configured
    indices bit-exactly into a language and a vision FFN, with a zero router.
    A stage-3 model cannot go back to a dense stage.
    """
    _check_stage(stage)
    if model.stage == 3 and stage != 3:
        raise ContractError("cannot return to a dense stage after entering stage 3")
    if stage == 3 and model.stage != 3:
        for i in model.cfg.evf_layer_indices:
            block = model.blocks[i]
            block.evf = init_stage3_from_dense(block.ffn)
            block.ffn = None
    model.stage, model._stages = stage, {}
    for _, p, group in model.named_parameters():
        p.set_trainable(group in STAGE_GROUPS[stage])


def enter_stage3(model: MicroModel) -> MicroModel:
    """``apply_stage(model, 3)`` for a model that is not at stage 3 yet.

    Kept only for the benchmark workloads in ``evfbench/``, which call it.
    """
    if model.stage == 3:
        raise ContractError("model is already in stage 3")
    apply_stage(model, 3)
    return model


class LayerRouting(NamedTuple):
    """One elastic layer's route stage: the routing probabilities, the capacity-limited plan and the balance term."""

    probabilities: T.Tensor  # (n, 2), attached to the compute graph
    plan: AllocationPlan
    aux: T.Tensor  # see training.layer_aux


@dataclass(eq=False)
class ForwardResult:
    logits: T.Tensor
    layers: tuple[LayerRouting, ...]  # per elastic layer, in depth order
    tags: ModalityTags

    def allocation_signature(self) -> tuple:
        return tuple(layer.plan.signature() for layer in self.layers)


def _resume(memo: list, index: int, params: tuple[T.Parameter, ...], run: Callable, state, *inputs):
    """``run(state, *inputs)``, or the last forward's result if stage ``index`` and all before it are unchanged.

    A stage is unchanged when it reads the very same value arrays, with the
    same freeze flags. Values are immutable and the entry holds the arrays it
    compares, so the same array means the same bytes.
    """
    arrays, flags = [p.data for p in params], [p.requires_grad for p in params]
    if index < len(memo):
        held = memo[index]
        if held[1] == flags and all(map(operator.is_, held[0], arrays)):
            return held[2]
        del memo[index:]
    out = run(state, *inputs)
    memo.append((arrays, flags, out))
    return out


class _State(NamedTuple):
    """What a forward stage hands the next; each stage returns a copy with the fields it sets replaced."""

    x: T.Tensor  # the residual stream
    normed: T.Tensor | None  # the block's ln_ffn output, which its FFN stages read
    language: T.Tensor | None  # the elastic block's language expert output, which its vision stage combines
    layers: tuple[LayerRouting, ...]  # per elastic layer routed so far


def forward_stages(model: MicroModel, mode: str) -> list[tuple[str, tuple[T.Parameter, ...], Callable]]:
    """The forward in order, as (name, parameters read, (state, batch, rng, cfg) -> state) stages, built once per
    stage switch and mode.

    The functions hold parameter containers, never the model; the embedding
    takes no state and builds the first.
    """
    if mode not in model._stages:
        embed = (model.embed_tokens, model.embed_positions, model.adapter_weight, model.adapter_bias)
        stages = [("embed", embed, lambda state, batch, *_: _embed(*embed, batch))]
        for block in model.blocks:
            stages += _block_stages(block, mode)
        model._stages[mode] = stages
    return model._stages[mode]


def _embed(tokens: T.Parameter, positions_table: T.Parameter, adapter_weight: T.Parameter,
           adapter_bias: T.Parameter, batch: TokenBatch) -> _State:
    table = tokens
    if batch.features is not None:
        table = T.concat_rows([T.linear(T.Tensor(batch.features), adapter_weight, adapter_bias), tokens])
    x = T.take_rows(table, batch.rows) + T.take_rows(positions_table, batch.positions)
    return _State(x, None, None, ())


def _block_stages(block: Block, mode: str) -> list:
    """attn, then ffn for a dense block or the language-only path, or else route, language_ffn and vision_ffn, so
    that a vision-FFN probe reuses the layer's routing record and its language expert."""
    prefix, ln_attn, attn, ln_ffn, evf = f"blocks.{block.index}", block.ln_attn, block.attn, block.ln_ffn, block.evf

    def values(group) -> tuple[T.Parameter, ...]:
        return tuple(p for _, p in group.parameters())

    def attention(s: _State, batch: TokenBatch, rng: RngKey, cfg: ModelConfig) -> _State:
        normed = T.layer_norm(s.x, ln_attn.gain, ln_attn.bias)
        q, k, v = (T.linear(normed, w, b) for w, b in ((attn.wq, attn.bq), (attn.wk, attn.bk), (attn.wv, attn.bv)))
        x = s.x + T.linear(T.attention(q, k, v, batch.lengths, cfg.heads), attn.wo, attn.bo)
        return s._replace(x=x, normed=T.layer_norm(x, ln_ffn.gain, ln_ffn.bias))

    def routing(s: _State, batch: TokenBatch, rng: RngKey, cfg: ModelConfig) -> _State:
        probabilities = route(evf.router, s.normed)
        scores = priority_scores(probabilities, batch.tags, cfg.strategy)
        plan = allocate(probabilities, scores, batch.tags, cfg.capacity, cfg.strategy, rng=rng.child(block.index))
        return s._replace(layers=(*s.layers, LayerRouting(probabilities, plan, layer_aux(plan, probabilities))))

    def vision(s: _State, *_) -> _State:
        layer = s.layers[-1]
        outputs = [s.language, ffn_forward(evf.vision_ffn, T.take_rows(s.normed, layer.plan.accepted[VISION_FFN]))]
        return s._replace(x=s.x + T.combine(layer.probabilities, outputs, layer.plan.accepted))

    stages = [(f"{prefix}.attn", (ln_attn.gain, ln_attn.bias, *values(attn), ln_ffn.gain, ln_ffn.bias), attention)]
    if evf is None or mode == LANGUAGE_ONLY:  # the language-only path is the dense block it was copied from
        ffn = block.ffn if evf is None else evf.language_ffn
        return stages + [(f"{prefix}.ffn", values(ffn), lambda s, *_: s._replace(x=s.x + ffn_forward(ffn, s.normed)))]
    return stages + [
        (f"{prefix}.route", (evf.router.weight,), routing),
        (f"{prefix}.language_ffn", values(evf.language_ffn), lambda s, *_: s._replace(
            language=ffn_forward(evf.language_ffn, T.take_rows(s.normed, s.layers[-1].plan.accepted[LANGUAGE_FFN])))),
        (f"{prefix}.vision_ffn", values(evf.vision_ffn), vision),
    ]


def forward(model: MicroModel, batch: TokenBatch, mode: str = MULTIMODAL, rng: RngKey | None = None) -> ForwardResult:
    """Run the packed batch through the stages of :func:`forward_stages`, then the final layer norm and the head.

    multimodal mode exercises routing and allocation at every elastic
    layer; language_only mode rejects batches containing image features and
    runs the dense language path (no routing objects are ever built).

    Stages of the last forward on this batch are reused up to the first whose
    parameter values or flags differ; any other change to the key below
    recomputes them all, so a forward that needs a graph never resumes a
    stage built without. The batch cannot change, so it is no part of the key.
    """
    if mode not in (MULTIMODAL, LANGUAGE_ONLY):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == LANGUAGE_ONLY and batch.features is not None:
        raise ContractError("language_only forward received image features")
    if rng is None:
        rng = RngKey(model.cfg.seed).child(_EVAL_DOMAIN)

    cfg = model.cfg
    if (too_long := np.flatnonzero(batch.text_counts + batch.image_counts > cfg.max_seq_len)).size:
        si = too_long[0]
        raise ContractError(f"sequence {si} has {batch.lengths[si]} tokens, max_seq_len is {cfg.max_seq_len}")
    if batch.features is not None and batch.features.shape[1] != cfg.image_feature_dim:
        raise ContractError(f"sequence {np.flatnonzero(batch.image_counts)[0]} image feature dim "
                            f"{batch.features.shape[1]} does not match adapter dim {cfg.image_feature_dim}")
    ids = batch.text_ids
    if ids.min() < 0 or ids.max() >= cfg.vocab:
        first = np.flatnonzero((ids < 0) | (ids >= cfg.vocab))[0]
        si = np.searchsorted(np.cumsum(batch.text_counts), first, side="right")
        raise ContractError(f"sequence {si} has token ids outside [0, {cfg.vocab})")

    memo = batch._memo
    key = (cfg, mode, rng, T._recording)
    if memo[:1] != [key]:  # every setting of the forward: a change recomputes every stage
        memo[:] = [key]
    state = None
    for index, (_, reads, run) in enumerate(forward_stages(model, mode), 1):
        state = _resume(memo, index, reads, run, state, batch, rng, cfg)

    final = T.layer_norm(state.x, model.ln_final.gain, model.ln_final.bias)
    logits = T.linear(final, model.head_weight, model.head_bias)
    return ForwardResult(logits, state.layers, batch.tags)


@dataclass(eq=False)
class LossResult:
    """The differentiable total plus the float values of its two terms."""

    total: T.Tensor
    regressive: float
    aux: float
    forward: ForwardResult


def compute_loss(model: MicroModel, batch: TokenBatch, rng: RngKey | None = None,
                 aux_weight: float = 0.001) -> LossResult:
    """Forward pass plus ``regressive + aux_weight * aux`` on the text positions.

    Raises :class:`NumericError` when any of the three values is not finite.
    """
    if batch.targets is None:
        raise ContractError("compute_loss requires targets on every sequence")
    fwd = forward(model, batch, MULTIMODAL, rng)
    reg = T.cross_entropy(T.take_rows(fwd.logits, batch.text_rows), batch.targets)
    if fwd.layers:
        aux = aux_loss([layer.aux for layer in fwd.layers])
        total, aux_value = reg + T.scale(aux, aux_weight), aux.item()
    else:
        total, aux_value = reg, 0.0
    values = (reg.item(), aux_value, total.item())
    if not all(math.isfinite(v) for v in values):
        raise NumericError(f"compute_loss: non-finite (regressive, aux, total) {values}")
    return LossResult(total, reg.item(), aux_value, fwd)


class SyntheticTask:
    """Seeded generator for the key-permutation task."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        gen = RngKey(cfg.seed).child(_TASK_DOMAIN).generator()
        self.permutations = np.stack([gen.permutation(cfg.vocab) for _ in range(cfg.num_keys)])
        self.key_vectors = gen.normal(0.0, 1.0, size=(cfg.num_keys, cfg.image_feature_dim))

    def sample_batch(self, key: RngKey, sequences: int | None = None, text_len: int | None = None) -> TokenBatch:
        cfg = self.cfg
        n_seq = cfg.batch_sequences if sequences is None else sequences
        length = cfg.text_len if text_len is None else text_len
        gen = key.generator()
        ids, features, targets = [], [], []
        for _ in range(n_seq):
            k = int(gen.integers(cfg.num_keys))
            noise = cfg.image_noise * gen.normal(size=(cfg.image_tokens, cfg.image_feature_dim))
            features.append(self.key_vectors[k] + noise)
            ids.append(gen.integers(cfg.vocab, size=length))
            targets.append(self.permutations[k][ids[-1]])
        return TokenBatch(np.concatenate(ids), np.full(n_seq, length), np.concatenate(features),
                          np.full(n_seq, cfg.image_tokens), np.concatenate(targets))


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    stage: int = 3
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    aux_weight: float = 0.001

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, got {self.steps}")
        if not 0.0 <= self.aux_weight < math.inf:
            raise ConfigError(f"aux_weight must be finite and non-negative, got {self.aux_weight}")
        _check_stage(self.stage)


@dataclass(eq=False)
class TrainResult:
    metrics: list[dict]  # the first row and the final evaluation row
    model: MicroModel
    checkpoint_path: Path | None


def _probability_histogram(p: np.ndarray) -> list[int]:
    """The counts of ``np.histogram(p, bins=10, range=(0, 1))`` for p in [0, 1], without its overhead."""
    return np.bincount(np.searchsorted(_HISTOGRAM_EDGES[1:-1], p, side="right"), minlength=_HISTOGRAM_BINS).tolist()


def _metrics_row(cfg: ModelConfig, step: int, lr: float, result: LossResult) -> dict:
    """One metrics row: the loss values and one telemetry record per elastic layer, which holds the two factors of
    the layer's balance term: F, each FFN's accepted share, and G, the probability column means as T.col_mean."""
    fwd = result.forward
    layers = []
    for index, layer in zip(cfg.evf_layer_indices, fwd.layers):
        p, (language, vision) = layer.probabilities.data, layer.plan.loads
        g = np.add.reduce(p, axis=0) / len(p)
        layers.append({
            "layer": index,
            "strategy": layer.plan.strategy.value,
            "vision_probability_histogram": _probability_histogram(p[:, VISION_FFN]),
            **vars(allocation_stats(layer.plan, fwd.tags)),  # scalar fields: vars() is asdict() without the deep copy
            "f_language": language / layer.plan.n_tokens,
            "f_vision": vision / layer.plan.n_tokens,
            "g_language": float(g[LANGUAGE_FFN]),
            "g_vision": float(g[VISION_FFN]),
            "aux": layer.aux.item(),
        })
    return {
        "step": step,
        "lr": lr,
        "loss_regressive": result.regressive,
        "loss_aux": result.aux,
        "loss_total": result.total.item(),
        "layers": layers,
    }


def train(model: MicroModel, task: SyntheticTask, tcfg: TrainConfig, out_dir: Path | str | None = None) -> TrainResult:
    """Run one curriculum stage for tcfg.steps updates.

    Emits one metrics row per step (loss measured before the update) plus a
    final evaluation row at index tcfg.steps, and returns the first and the
    final row. When out_dir is given, each row is appended to metrics.jsonl
    and telemetry.jsonl (one line per elastic layer per step) as soon as it
    is produced, and a final checkpoint is written at the end.
    """
    from . import checkpoint as ckpt

    apply_stage(model, tcfg.stage)
    base = RngKey(model.cfg.seed)
    optimizer = AdamW(model.trainable_parameters(), tcfg.optimizer, max(1, tcfg.steps))
    grads: list = []
    rows: list[dict] = []
    with ExitStack() as stack:
        streams: list[TextIO] = []
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            streams = [stack.enter_context(open(out / name, "w", encoding="utf-8"))
                       for name in ("metrics.jsonl", "telemetry.jsonl")]

        def record(step: int, lr: float, result: LossResult) -> None:
            row = _metrics_row(model.cfg, step, lr, result)
            del rows[1:]  # keep the first row and the latest, so memory does not grow with the steps
            rows.append(row)
            if streams:
                metrics, telemetry = streams
                _write_jsonl(metrics, [row])
                _write_jsonl(telemetry, [{"step": step, **layer} for layer in row["layers"]])

        for step in range(tcfg.steps):
            batch = task.sample_batch(base.child(_DATA_DOMAIN, step))
            result = compute_loss(model, batch, base.child(_ALLOC_DOMAIN, step), tcfg.aux_weight)
            # The batch's forward memo is the only other owner of the stage outputs, and nothing
            # resumes on it: drop it, so backward runs with only what the graph's VJPs read.
            del batch
            # The last step's gradients die just before the next are made: freed right after the update,
            # or after this backward, they move frees across the heap top and raise the minor faults a step.
            del grads
            grads = T.backward(result.total, optimizer.params.values())
            lr = optimizer.step(step, grads)
            record(step, lr, result)
            del result  # the only owner of this step's graph, so the next step builds its own with no other alive

        final_batch = task.sample_batch(base.child(_DATA_DOMAIN, tcfg.steps))
        final = compute_loss(model, final_batch, base.child(_ALLOC_DOMAIN, tcfg.steps), tcfg.aux_weight)
        record(tcfg.steps, learning_rate_at(tcfg.optimizer, tcfg.steps, optimizer.total_steps), final)

    checkpoint_path: Path | None = None
    if out_dir is not None:
        checkpoint_path = out / "model_final.ckpt"
        ckpt.save_model(model, checkpoint_path)
    return TrainResult(metrics=rows, model=model, checkpoint_path=checkpoint_path)


def _write_jsonl(fh: TextIO, rows: Sequence[dict]) -> None:
    """Append one line per row and flush, so the rows are on disk as soon as they exist."""
    for row in rows:
        fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    fh.flush()
