"""The layer -> metric -> workload map and the per-layer values.

This is the map later changes cite metrics by. Every per-layer metric is a
value per op of the traced run: an op is one train step, one grad-check
probe or one allocation plan. ``*_self_ms`` is time inside a function minus
time in the traced functions it calls; any other ``*_ms`` is inclusive.
Counts come from a fixed deterministic section of the traced run and repeat
exactly for one seed; times come from its timed section.
"""

from __future__ import annotations

# What a change to each layer should move (the end-to-end metric and workload),
# or, for a base or a trace.* metric, what it is. Names, units and better
# directions are declared once, in BENCHMARK.json.
MOVES = {
    "tensor.graph_nodes": "ops_per_s on train_s2 and grad_check",
    "tensor.op_calls": "ops_per_s on train_s2 and grad_check",
    "tensor.matmul_ms": "op_ms_p50 and peak_rss_mb on train_s32",
    "tensor.softmax_rows_ms": "op_ms_p50 and peak_rss_mb on train_s32",
    "tensor.add_constant_ms": "op_ms_p50 and peak_rss_mb on train_s32 (the attention mask)",
    "tensor.gelu_ms": "train_s2 and grad_check",
    "tensor.layer_norm_ms": "train_s2 and grad_check",
    "tensor.gather_scatter_ms": "train_s2 and grad_check (take_rows, scatter_rows, slice_cols, concat_*)",
    "tensor.forward_ms": "op_ms_p50 on train_s2 and train_s32 (self time of all ops)",
    "tensor.backward_ms": "op_ms_p50 on train_s2 and train_s32",
    "router.route_calls": "route_allocate_n4096",
    "router.route_ms": "ops_per_s on route_allocate_n4096",
    "allocator.plans": "ops_per_s on route_allocate_n4096, slightly train_s2, not train_s32",
    "allocator.allocate_ms": "ops_per_s on route_allocate_n4096, slightly train_s2, not train_s32",
    "allocator.redistribute_ms": "ops_per_s on route_allocate_n4096, slightly train_s2, not train_s32",
    "allocator.scores_stats_ms": "ops_per_s on route_allocate_n4096, slightly train_s2, not train_s32",
    "allocator.accept_ratio": "accepted tokens over allocator.tokens",
    "allocator.tokens": "base of allocator.accept_ratio",
    "allocator.redistributed_ratio": "moved tokens over allocator.rejects",
    "allocator.rejects": "base of allocator.redistributed_ratio",
    "layer.forward_multimodal_self_ms": "train_s2 and grad_check (gating, histogram, glue)",
    "layer.ffn_forward_ms": "train_s2 and grad_check",
    "model.forward_self_ms": "train_s32 (packing, mask build, attention glue)",
    "model.compute_loss_ms": "train_s2",
    "model.sample_batch_ms": "train_s2",
    "model.train_self_ms": "ops_per_s on train_s2 (metrics rows, jsonl writes, step glue)",
    "training.adamw_step_ms": "train_s2, not grad_check",
    "training.aux_loss_ms": "train_s2",
    "training.grad_check_self_ms": "ops_per_s on grad_check (probe set-up and restore)",
    "training.grad_check_retry_ratio": "grad_check: unstable instances over training.grad_check_instances",
    "training.grad_check_instances": "base of training.grad_check_retry_ratio",
    "seeds.generators": "train_s2 and route_allocate_n4096",
    "seeds.generator_ms": "train_s2 and route_allocate_n4096",
    "checkpoint.save_ms": "ops_per_s on train_s2 and train_s32",
    "trace.untraced_ops_per_s": "base of trace.overhead_ratio",
    "trace.traced_ops_per_s": "base of trace.overhead_ratio",
    "trace.overhead_ratio": "untraced over traced ops_per_s, minus 1",
    "trace.spans_per_op": "spans recorded per op",
    "trace.absent": "traced names that no longer exist in evf",
}

GATHER_SCATTER = ("take_rows", "scatter_rows", "slice_cols", "concat_cols", "concat_rows")


def per_layer_values(count, timed, n_count: int, n_timed: int, op_labels, alloc, grad_instances) -> dict:
    """Per-op values of every per-layer metric except the trace.* ones.

    ``count`` and ``timed`` are tracer sections; ``alloc`` holds the count
    section's allocation totals (tokens, accepted, moved, dropped);
    ``grad_instances`` is (attempted, unstable) in the timed section.
    """

    def per_count(x: float) -> float:
        return x / n_count

    def per_timed(x: float) -> float:
        return x / n_timed

    tokens, accepted, moved, dropped = (int(v) for v in alloc)
    rejects = moved + dropped
    attempted, unstable = grad_instances
    ops = [f"tensor.{op}" for op in op_labels]
    return {
        "tensor.graph_nodes": per_count(count.node_count(*ops)),
        "tensor.op_calls": per_count(count.count(*ops)),
        "tensor.matmul_ms": per_timed(timed.self_ms("tensor.matmul")),
        "tensor.softmax_rows_ms": per_timed(timed.self_ms("tensor.softmax_rows")),
        "tensor.add_constant_ms": per_timed(timed.self_ms("tensor.add_constant")),
        "tensor.gelu_ms": per_timed(timed.self_ms("tensor.gelu")),
        "tensor.layer_norm_ms": per_timed(timed.self_ms("tensor.layer_norm")),
        "tensor.gather_scatter_ms": per_timed(timed.self_ms(*(f"tensor.{op}" for op in GATHER_SCATTER))),
        "tensor.forward_ms": per_timed(timed.self_ms(*ops)),
        "tensor.backward_ms": per_timed(timed.total_ms("tensor.backward")),
        "router.route_calls": per_count(count.count("router.route")),
        "router.route_ms": per_timed(timed.total_ms("router.route")),
        "allocator.plans": per_count(count.count("allocator.allocate")),
        "allocator.allocate_ms": per_timed(timed.total_ms("allocator.allocate")),
        "allocator.redistribute_ms": per_timed(timed.total_ms("allocator.redistribute")),
        "allocator.scores_stats_ms": per_timed(timed.total_ms("allocator.priority_scores", "allocator.allocation_stats")),
        "allocator.accept_ratio": accepted / tokens if tokens else 0.0,
        "allocator.tokens": per_count(tokens),
        "allocator.redistributed_ratio": moved / rejects if rejects else 0.0,
        "allocator.rejects": per_count(rejects),
        "layer.forward_multimodal_self_ms": per_timed(timed.self_ms("layer.forward_multimodal")),
        "layer.ffn_forward_ms": per_timed(timed.total_ms("layer.ffn_forward")),
        "model.forward_self_ms": per_timed(timed.self_ms("model.forward")),
        "model.compute_loss_ms": per_timed(timed.total_ms("model.compute_loss")),
        "model.sample_batch_ms": per_timed(timed.total_ms("model.sample_batch")),
        "model.train_self_ms": per_timed(timed.self_ms("model.train")),
        "training.adamw_step_ms": per_timed(timed.total_ms("training.step")),
        "training.aux_loss_ms": per_timed(timed.total_ms("training.aux_loss")),
        "training.grad_check_self_ms": per_timed(timed.self_ms("training.grad_check")),
        "training.grad_check_retry_ratio": unstable / attempted if attempted else 0.0,
        "training.grad_check_instances": float(attempted),
        "seeds.generators": per_count(count.count("seeds.generator")),
        "seeds.generator_ms": per_timed(timed.total_ms("seeds.generator")),
        "checkpoint.save_ms": per_timed(timed.total_ms("checkpoint.save_model")),
    }
