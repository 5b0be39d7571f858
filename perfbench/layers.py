"""Which public ``repro`` functions the traced run wraps, and the
per-layer metrics computed from the spans they record.

Layer times are self times (a span minus its same-thread children), so
the layers of one thread add up to its busy time and nothing is counted
twice.  Times and counts are normalised per *op*: an evaluation pass on
``eval-1to99``, a training step on ``train-mgbr`` and a request on the
serving workloads.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GroupBuyingRecommender
from repro.core import MGBR
from repro.data import NegativeSampler
from repro.plan import PlannedBatch, ScoringPlan
from repro.serving import ScoringCore
from repro.store import EmbeddingStore, iter_stores
import repro.eval.protocol as eval_protocol

#: ``nn.calls.<primitive>`` reported from the counting backend: the
#: primitives the fused and tape programs spend their calls on.
NN_PRIMITIVES = ("matmul", "concatenate", "stack", "take", "add_at", "add",
                 "multiply", "sum", "where", "exp", "ensure_contiguous", "asarray")

#: End-to-end metrics the traced run reports its overhead against.
OVERHEAD_OF = ("throughput_per_s", "latency_p50_ms")

#: ``(name, unit)`` of the per-layer metrics that only the serving
#: workloads move.  They are printed with those workloads' traced runs
#: but are not in ``BENCHMARK.json``, whose workloads never serve.
SERVING_LAYER = [
    ("serving.queue_wait_ms.p50", "ms"),
    ("serving.queue_wait_ms.p99", "ms"),
    ("serving.flush_ms.p50", "ms"),
    ("serving.flush_ms.p99", "ms"),
    ("serving.requests_per_flush", "count"),
    ("store.lru_hit_rate", "ratio"),
    ("store.resident_mb.quantized", "MB"),
    ("store.resident_mb.lru", "MB"),
]

#: ``(name, unit)`` of the per-layer metrics in ``BENCHMARK.json``, in
#: report order: the last line of every traced run.
PER_LAYER = (
    [
        ("plan.compile_ms", "ms/op"),
        ("plan.scatter_ms", "ms/op"),
        ("plan.dedup_ratio", "ratio"),
        ("executor.score_ms", "ms/op"),
        ("executor.unique_pairs_per_s", "1/s"),
        ("executor.fused_calls", "count/op"),
        ("executor.tape_calls", "count/op"),
        ("executor.fallbacks", "count/op"),
        ("store.gather_ms", "ms/op"),
        ("store.gather_rows", "rows/op"),
        ("store.resident_mb.dense", "MB"),
        ("graph.encoder_ms", "ms/op"),
        ("training.sampling_s", "s"),
        ("training.forward_s", "s"),
        ("training.backward_s", "s"),
        ("training.optimizer_s", "s"),
        ("eval.rank_ms", "ms/op"),
        ("data.sample_ms", "ms/op"),
    ]
    + [(f"nn.calls.{prim}", "count/op") for prim in NN_PRIMITIVES]
    + [
        ("nn.calls.total", "count/op"),
        ("nn.copies", "count/op"),
    ]
    + [(f"trace.overhead_pct.{name}", "%") for name in OVERHEAD_OF]
)

_TIER_OF = {"DenseStore": "dense", "QuantizedStore": "quantized",
            "LRUCachedStore": "lru"}


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def _plan_size(_args, result):
    plan = result.plan if isinstance(result, PlannedBatch) else result
    return (plan.n_flat, plan.n_pairs)


def install(tracer) -> None:
    """Wrap the public functions of every layer (undo with ``uninstall``)."""

    def queue_waits(args, span_id, start):
        _, items, participants = args
        for request in list(items) + list(participants):
            bound = tracer.tickets.get(id(request[-2]))  # the request's ticket
            if bound is not None:
                tracer.record("serving.queue_wait", "serving", bound[1], start,
                              parent=span_id, request=bound[0])

    tracer.patch(ScoringCore, "execute", "serving.flush", "serving",
                 work=lambda a, r: len(a[1]) + len(a[2]), on_enter=queue_waits)

    for attr in ("for_items", "for_participants", "from_item_pairs", "from_triples"):
        tracer.patch(ScoringPlan, attr, f"plan.{attr}", "plan", work=_plan_size)
    tracer.patch(PlannedBatch, "build", "plan.build", "plan", work=_plan_size)
    tracer.patch(ScoringPlan, "scatter", "plan.scatter", "plan")
    tracer.patch(PlannedBatch, "scatter", "plan.scatter", "plan")

    for attr in ("score_item_plan", "score_participant_plan"):
        tracer.patch(GroupBuyingRecommender, attr, f"executor.{attr}", "executor",
                     work=lambda a, r: a[1].n_pairs)
    tracer.patch(MGBR, "planned_joint_logits", "executor.planned_joint_logits",
                 "executor", work=lambda a, r: a[2].n_pairs)

    for klass in _subclasses(EmbeddingStore):
        for attr in ("gather", "gather_quantized"):
            if attr in klass.__dict__:
                tracer.patch(klass, attr, f"store.{attr}", "store",
                             work=lambda a, r: len(a[1]))
        if "all" in klass.__dict__:
            tracer.patch(klass, "all", "store.all", "store",
                         work=lambda a, r: int(r.data.shape[0]))

    for klass in _subclasses(GroupBuyingRecommender):
        if "compute_embeddings" in klass.__dict__:
            tracer.patch(klass, "compute_embeddings", "graph.compute_embeddings", "graph")
    tracer.patch(GroupBuyingRecommender, "refresh_cache", "graph.refresh_cache", "graph")

    tracer.patch(eval_protocol, "ranks_of_positives", "eval.ranks_of_positives", "eval")

    for attr in ("sample_items_batch", "sample_participants_batch",
                 "corrupt_items", "corrupt_participants"):
        tracer.patch(NegativeSampler, attr, f"data.{attr}", "data")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def resident_by_tier(model) -> dict:
    """Resident MB per store tier, walking each wrapper's inner stores
    (a wrapper's ``resident_bytes`` covers only its own tier).  A store
    class with no tier name counts under its class name, so the tiers
    always sum to the model's whole resident size."""
    tiers = {tier: 0.0 for tier in _TIER_OF.values()}
    for _, store in iter_stores(model):
        while store is not None:
            name = type(store).__name__
            tier = _TIER_OF.get(name, name)
            tiers[tier] = (tiers.get(tier, 0.0)
                           + store.stats_snapshot().get("resident_bytes", 0) / 1e6)
            store = getattr(store, "inner", None)
    return tiers


def layer_metrics(tracer, ops: int, extras: dict) -> dict:
    """Every per-layer metric from one traced window.

    ``ops`` is the number of ops (passes, steps or requests) the window
    completed; ``extras`` carries what the workload read from the
    program's own counters (executor stats, trainer phases, LRU
    counters, counting-backend tallies, resident tiers).
    """
    ops = max(ops, 1)
    per_op_ms = lambda seconds: seconds * 1000.0 / ops  # noqa: E731
    layer_s = tracer.layer_self_seconds()

    waits = [s.seconds * 1000.0 for s in tracer.named("serving.queue_wait")]
    flushes = tracer.named("serving.flush")
    flush_ms = [s.seconds * 1000.0 for s in flushes]
    served = [s.work for s in flushes if s.work]

    compiles = [s.work for s in tracer.outermost("plan") if s.work]
    flat = sum(w[0] for w in compiles)
    unique = sum(w[1] for w in compiles)

    own = tracer.self_seconds()
    scored = [s for s in tracer.outermost("executor") if s.work]
    score_s = sum(s.seconds for s in scored)
    stores = tracer.outermost("store")

    out = {
        "serving.queue_wait_ms.p50": _pct(waits, 50),
        "serving.queue_wait_ms.p99": _pct(waits, 99),
        "serving.flush_ms.p50": _pct(flush_ms, 50),
        "serving.flush_ms.p99": _pct(flush_ms, 99),
        "serving.requests_per_flush": float(np.mean(served)) if served else 0.0,
        "plan.compile_ms": per_op_ms(sum(
            own[s.span_id] for s in tracer.spans
            if s.layer == "plan" and s.name != "plan.scatter")),
        "plan.scatter_ms": per_op_ms(sum(
            own[s.span_id] for s in tracer.named("plan.scatter"))),
        "plan.dedup_ratio": flat / unique if unique else 0.0,
        "executor.score_ms": per_op_ms(layer_s.get("executor", 0.0)),
        "executor.unique_pairs_per_s": (
            sum(s.work for s in scored) / score_s if score_s else 0.0),
        "store.gather_ms": per_op_ms(layer_s.get("store", 0.0)),
        "store.gather_rows": sum(s.work or 0 for s in stores) / ops,
        "store.lru_hit_rate": extras.get("lru_hit_rate", 0.0),
        "graph.encoder_ms": per_op_ms(layer_s.get("graph", 0.0)),
        "eval.rank_ms": per_op_ms(layer_s.get("eval", 0.0)),
        "data.sample_ms": per_op_ms(layer_s.get("data", 0.0)),
    }
    executor = extras.get("executor", {})
    for key in ("fused_calls", "tape_calls", "fallbacks"):
        out[f"executor.{key}"] = executor.get(key, 0) / ops
    for tier, mb in extras.get("resident_tiers", {}).items():
        out[f"store.resident_mb.{tier}"] = mb
    phases = extras.get("phases", {})
    for phase in ("sampling", "forward", "backward", "optimizer"):
        out[f"training.{phase}_s"] = phases.get(phase, 0.0)
    counts = extras.get("nn_counts", {})
    for prim in NN_PRIMITIVES:
        out[f"nn.calls.{prim}"] = counts.get(prim, 0) / ops
    out["nn.calls.total"] = sum(counts.values()) / ops
    out["nn.copies"] = extras.get("nn_copies", 0) / ops
    for name in OVERHEAD_OF:
        out[f"trace.overhead_pct.{name}"] = extras.get("overhead_pct", {}).get(name, 0.0)
    return {name: out.get(name, 0.0) for name, _ in PER_LAYER + SERVING_LAYER}
