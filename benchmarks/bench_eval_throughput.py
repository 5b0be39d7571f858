"""Evaluation-throughput benchmark: :meth:`EvalProtocol.run` vs the loop.

Times the 1:9 and 1:99 candidate-list protocols for
:meth:`EvalProtocol.run` — on whatever path the model picks: planned
(ScoringPlan dedup + factorized layer-0) for the MGBR expert/gate stack,
flat batched chunks for a serving-style two-tower baseline (GBMF) — and
for the historical :meth:`EvalProtocol.run_per_instance` reference loop
(the seed implementation, kept verbatim), plus the float32 inference
fast path.  Also times candidate-list construction: one batched
rejection-sampling pass vs the seed's per-row Python sampling loop.
Writes ``BENCH_eval_throughput.json`` at the repository root so later
PRs have a perf trajectory to regress against.

The loop-vs-``run()`` ``speedup`` of each cell is the median of
:data:`PAIRS` per-pair ratios, each pair one loop pass followed by one
``run()`` pass on identical candidate lists, so host noise lands on
both sides of a pair.  BLAS is pinned to one thread: the pin below
takes effect only before NumPy loads, so under pytest export
``OPENBLAS_NUM_THREADS=1`` (and the OMP/MKL equivalents) in the shell;
the report's ``hardware.blas_pinned`` records whether the pin held.

Run directly (``PYTHONPATH=src python benchmarks/bench_eval_throughput.py``)
or via pytest.  ``--smoke`` runs a seconds-scale configuration, gates
only correctness (:func:`check_report` with ``smoke=True``) and skips
the JSON artifact.  Both modes also audit one fused 1:99 window per
task under ``CountingBackend`` (``window_audit``): zero array copies and
matmul / concatenate counts within :data:`WINDOW_OP_BOUNDS`.

Environment knobs:

* ``REPRO_BENCH_EVAL_USERS / ITEMS / GROUPS`` — dataset scale
* ``REPRO_BENCH_EVAL_INSTANCES`` — instances per task per protocol
* ``REPRO_BENCH_EVAL_FUSED_CHUNK / FUSED_PAIRS`` — fused-executor cell:
  scoring chunk size and number of interleaved tape/fused timing pairs
"""

from __future__ import annotations

import os
import sys

#: BLAS threads for every timed cell (one, so runs compare like with
#: like); the variables are read once, when NumPy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PINNED = "numpy" not in sys.modules or all(
    os.environ.get(var) == "1" for var in BLAS_ENV
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.data import NegativeSampler, SyntheticConfig, generate_dataset
from repro.data.samples import extract_task_a, extract_task_b
from repro.eval import EvalProtocol
from repro.nn import CountingBackend, backend_scope, no_grad
from repro.plan import ScoringPlan
from repro.training import TrainConfig, Trainer
from repro.training.checkpoint import restore_model, save_checkpoint

USERS = int(os.environ.get("REPRO_BENCH_EVAL_USERS", "300"))
ITEMS = int(os.environ.get("REPRO_BENCH_EVAL_ITEMS", "80"))
GROUPS = int(os.environ.get("REPRO_BENCH_EVAL_GROUPS", "1200"))
INSTANCES = int(os.environ.get("REPRO_BENCH_EVAL_INSTANCES", "120"))
FUSED_CHUNK = int(os.environ.get("REPRO_BENCH_EVAL_FUSED_CHUNK", "512"))
FUSED_PAIRS = int(os.environ.get("REPRO_BENCH_EVAL_FUSED_PAIRS", "11"))
DATA_SEED = 7
MODEL_SEED = 1

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_eval_throughput.json"

#: Ceilings on the backend calls of one warm fused 1:99 window of the
#: benchmark MGBR, per task: the values measured with live-head pruning
#: (the unpruned program made 74 matmuls and 4 concatenates per window).
WINDOW_OP_BOUNDS = {
    "items": {"matmul": 58, "concatenate": 2},
    "participants": {"matmul": 58, "concatenate": 3},
}


def _dataset():
    return generate_dataset(
        SyntheticConfig(n_users=USERS, n_items=ITEMS, n_groups=GROUPS), seed=DATA_SEED
    )


REPEATS = 3

#: Interleaved loop/``run()`` pass pairs per protocol cell.
PAIRS = 11


def _timed(fn, repeats: int = None):
    repeats = REPEATS if repeats is None else repeats
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return result, best


def _sampling_per_row_reference(dataset, n_negatives: int) -> float:
    """Time the seed's per-row candidate-list sampling loops."""
    groups = dataset.test
    sampler = NegativeSampler(dataset, seed=123, splits=("train", "validation", "test"))
    task_a = extract_task_a(groups)
    task_b = extract_task_b(groups)
    a_idx = np.arange(len(task_a))[:INSTANCES]
    b_idx = np.arange(len(task_b))[:INSTANCES]
    started = time.perf_counter()
    a_negs = np.empty((len(a_idx), n_negatives), dtype=np.int64)
    for row in range(len(a_idx)):
        a_negs[row] = sampler.sample_items(
            int(task_a.users[row]), n_negatives,
            extra_exclude=(int(task_a.items[row]),),
        )
    b_negs = np.empty((len(b_idx), n_negatives), dtype=np.int64)
    for row in range(len(b_idx)):
        group = groups[int(task_b.group_index[b_idx[row]])]
        b_negs[row] = sampler.sample_participants(
            int(task_b.users[row]), int(task_b.items[row]), n_negatives,
            extra_exclude=group.participants,
        )
    return time.perf_counter() - started


def _bench_sampling(dataset, n_negatives: int) -> dict:
    loop_seconds = min(_sampling_per_row_reference(dataset, n_negatives) for _ in range(3))

    def batched():
        protocol = EvalProtocol(
            dataset, n_negatives=n_negatives, cutoff=10, max_instances=INSTANCES
        )
        return protocol._candidate_lists()

    _, batch_seconds = _timed(batched)  # fresh protocol per call → no cache reuse
    return {
        "per_row_seconds": round(loop_seconds, 4),
        "batched_seconds": round(batch_seconds, 4),
        "speedup": round(loop_seconds / batch_seconds, 2),
    }


def _dedup_stats(protocol) -> dict:
    """Plan statistics for the protocol's Task-A/B candidate lists."""
    task_a, task_b = protocol._candidate_lists()
    plan_a = ScoringPlan.for_items(task_a["users"], task_a["candidates"])
    plan_b = ScoringPlan.for_participants(
        task_b["users"], task_b["items"], task_b["candidates"]
    )
    return {"task_a": plan_a.stats(), "task_b": plan_b.stats()}


def _paired_times(loop, run):
    """Seconds of :data:`PAIRS` interleaved ``(loop, run)`` pass pairs."""
    pairs = []
    for _ in range(PAIRS):
        started = time.perf_counter()
        loop()
        middle = time.perf_counter()
        run()
        pairs.append((middle - started, time.perf_counter() - middle))
    return pairs


def _bench_model(model, dataset) -> dict:
    planned = model._plans_scoring
    out = {}
    for n_neg, cutoff in ((9, 10), (99, 100)):
        protocol = EvalProtocol(
            dataset, n_negatives=n_neg, cutoff=cutoff, max_instances=INSTANCES
        )
        protocol._candidate_lists()  # shared lists, excluded from timings
        f32_protocol = EvalProtocol(
            dataset, n_negatives=n_neg, cutoff=cutoff, max_instances=INSTANCES,
            dtype="float32",
        )
        f32_protocol._cache = protocol._cache  # identical candidate lists
        n_instances = 2 * INSTANCES  # each run scores both tasks' lists

        looped = protocol.run_per_instance(model)  # warm-up + reference
        result = protocol.run(model)
        pairs = _paired_times(
            lambda: protocol.run_per_instance(model), lambda: protocol.run(model)
        )
        ratios = [loop / run for loop, run in pairs]
        loop_seconds = float(np.median([loop for loop, _ in pairs]))
        run_seconds = float(np.median([run for _, run in pairs]))
        f32, f32_seconds = _timed(lambda: f32_protocol.run(model))

        cell = {
            "cutoff": cutoff,
            "path": "planned" if planned else "flat",
            "paired_repeats": PAIRS,
            "per_instance_seconds": round(loop_seconds, 4),
            "run_seconds": round(run_seconds, 4),
            "float32_seconds": round(f32_seconds, 4),
            "per_instance_instances_per_sec": round(n_instances / loop_seconds, 2),
            "run_instances_per_sec": round(n_instances / run_seconds, 2),
            "float32_instances_per_sec": round(n_instances / f32_seconds, 2),
            # loop vs run(): median of the per-pair ratios.
            "speedup": round(float(np.median(ratios)), 2),
            "speedup_min": round(min(ratios), 2),
            "speedup_max": round(max(ratios), 2),
            "float32_speedup": round(loop_seconds / f32_seconds, 2),
            "metrics_identical_to_loop": result.flat() == looped.flat(),
            "float32_max_metric_delta": round(
                max(abs(f32.flat()[k] - result.flat()[k]) for k in result.flat()), 6
            ),
            "metrics": result.flat(),
        }
        if planned:
            cell["dedup"] = _dedup_stats(protocol)
        out[f"1:{n_neg}"] = cell
    return out


def _windows(dataset):
    """The 1:99 plans of both tasks, each cut into FUSED_CHUNK windows."""
    protocol = EvalProtocol(
        dataset, n_negatives=99, cutoff=100, max_instances=INSTANCES
    )
    task_a, task_b = protocol._candidate_lists()
    plans = {
        "items": ScoringPlan.for_items(task_a["users"], task_a["candidates"]),
        "participants": ScoringPlan.for_participants(
            task_b["users"], task_b["items"], task_b["candidates"]
        ),
    }
    return {
        task: [
            plan.pair_slice(slice(start, min(start + FUSED_CHUNK, plan.n_pairs)))
            for start in range(0, plan.n_pairs, FUSED_CHUNK)
        ]
        for task, plan in plans.items()
    }, plans


def _window_audit(model, dataset) -> dict:
    """Backend calls of one warm fused window per task (``CountingBackend``).

    Deterministic for a given model configuration: the counts depend on
    the program's structure, not on timing or window size.  Each window
    is scored once before counting so fold-cache builds stay out.
    """
    windows, _ = _windows(dataset)
    previous = model.executor
    model.executor = "fused"
    audit = {}
    try:
        with no_grad():
            model.refresh_cache()
            for task, subs in windows.items():
                scorer = (
                    model.score_item_plan if task == "items"
                    else model.score_participant_plan
                )
                scorer(subs[0])
                before = model.executor_stats()["fused_calls"]
                counting = CountingBackend()
                with backend_scope(counting):
                    scorer(subs[0])
                audit[task] = {
                    "nn_counts": dict(sorted(counting.counts.items())),
                    "copies": counting.copies,
                    "fused": model.executor_stats()["fused_calls"] == before + 1,
                }
    finally:
        model.executor = previous
    return audit


def _bench_fused(model, dataset) -> dict:
    """Fused no-tape executor vs the tape on 1:99 planned scoring.

    A single tape-vs-fused time comparison is unreliable on a shared
    box, so each repetition interleaves one full tape pass with one full
    fused pass (chunked planned scoring over both tasks' 1:99 lists,
    plan slicing excluded from the timed region) and the headline
    ``fused_speedup`` is the **median of per-repetition ratios** —
    co-tenant noise lands on both sides of each pair roughly equally.
    """
    windows, plans = _windows(dataset)
    jobs = [
        (model.score_item_plan, windows["items"]),
        (model.score_participant_plan, windows["participants"]),
    ]

    def one_pass(executor):
        model.executor = executor
        elapsed = 0.0
        scores = []
        with no_grad():
            model.refresh_cache()
            for scorer, subs in jobs:
                started = time.perf_counter()
                chunks = [scorer(sub) for sub in subs]
                elapsed += time.perf_counter() - started
                scores.append(np.concatenate(chunks))
        return scores, elapsed

    previous = model.executor
    try:
        tape_ref, _ = one_pass("tape")  # warm caches + parity reference
        fused_ref, _ = one_pass("fused")
        identical = all(np.array_equal(t, f) for t, f in zip(tape_ref, fused_ref))
        ratios, tape_times, fused_times = [], [], []
        for _ in range(FUSED_PAIRS):
            _, tape_seconds = one_pass("tape")
            _, fused_seconds = one_pass("fused")
            ratios.append(tape_seconds / fused_seconds)
            tape_times.append(tape_seconds)
            fused_times.append(fused_seconds)
        stats = model.executor_stats()
    finally:
        model.executor = previous
    n_pairs = sum(plan.n_pairs for plan in plans.values())
    tape_best, fused_best = min(tape_times), min(fused_times)
    return {
        "chunk": FUSED_CHUNK,
        "paired_repeats": FUSED_PAIRS,
        "pairs_scored_per_pass": n_pairs,
        "tape_seconds": round(tape_best, 4),
        "fused_seconds": round(fused_best, 4),
        "tape_pairs_per_sec": round(n_pairs / tape_best, 1),
        "fused_pairs_per_sec": round(n_pairs / fused_best, 1),
        "fused_speedup": round(float(np.median(ratios)), 2),
        "fused_speedup_min": round(float(min(ratios)), 2),
        "fused_speedup_max": round(float(max(ratios)), 2),
        "scores_identical_to_tape": identical,
        "executor_stats": stats,
        "window_audit": _window_audit(model, dataset),
    }


#: Documented accuracy bounds of quantised serving (max |Δ| over the
#: nDCG@K / MRR / HR@K panel vs the float baseline).  fp16 keeps 11
#: significand bits — score gaps between ranked candidates dwarf the
#: rounding, so metric *ordering* must be bitwise stable (Δ == 0).
#: int8 rounds each embedding element to within scale/2 (≈ row range /
#: 508); the induced metric drift on the Table-3-style synthetic
#: protocol stays within 0.05 absolute.
QUANT_METRIC_BOUNDS = {"fp16": 0.0, "int8": 0.05}

QUANT_DIM = 48  # dim >= 40 keeps int8's (dim+8)/4·dim under the 0.30 gate


def _bench_quantized_accuracy(dataset) -> dict:
    """Quantised serving accuracy: train float → restore into int8/fp16.

    The supported workflow (docs/quantization.md) is post-training
    quantisation: train the full-precision model, checkpoint it, restore
    into ``GBMF(quantize=...)`` layouts, and serve the same eval
    protocol.  Reports nDCG@K / MRR / HR@K deltas vs the float baseline
    plus the dequantise-on-gather QPS ratio per mode.
    """
    trained = GBMF(dataset.n_users, dataset.n_items, dim=QUANT_DIM, seed=MODEL_SEED)
    config = TrainConfig(
        epochs=1, batch_size=64, learning_rate=5e-3, train_negatives=3,
        aux_negatives=3, seed=0,
    )
    Trainer(trained, dataset, config).fit()
    protocol = EvalProtocol(
        dataset, n_negatives=9, cutoff=10, max_instances=INSTANCES
    )
    protocol._candidate_lists()  # one shared candidate cache for all modes
    gather_ids = np.arange(dataset.n_users, dtype=np.int64)
    out = {"dim": QUANT_DIM, "bounds": QUANT_METRIC_BOUNDS, "modes": {}}
    baseline = None
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(trained, Path(tmp) / "gbmf.npz", dtype="float32")
        for mode in (None, "fp16", "int8"):
            target = GBMF(dataset.n_users, dataset.n_items, dim=QUANT_DIM,
                          seed=MODEL_SEED + 1, quantize=mode)
            restore_model(target, path)
            metrics = protocol.run(target).flat()
            store = target.initiator_table.store

            def gather_pass():
                with no_grad():
                    for start in range(0, len(gather_ids), 512):
                        store.gather(gather_ids[start : start + 512])

            _, seconds = _timed(gather_pass)
            cell = {
                "metrics": metrics,
                "gather_rows_per_sec": round(len(gather_ids) / seconds, 1),
            }
            if baseline is None:
                baseline = cell
                out["modes"]["float32"] = cell
                continue
            cell["metric_deltas"] = {
                k: round(metrics[k] - baseline["metrics"][k], 6)
                for k in baseline["metrics"]
            }
            cell["max_abs_metric_delta"] = round(
                max(abs(d) for d in cell["metric_deltas"].values()), 6
            )
            cell["gather_qps_ratio_vs_float32"] = round(
                cell["gather_rows_per_sec"] / baseline["gather_rows_per_sec"], 3
            )
            out["modes"][mode] = cell
    return out


def run_benchmark() -> dict:
    """Measure both models on the 1:9 and 1:99 protocols."""
    dataset = _dataset()
    mgbr = MGBR(
        dataset.train, dataset.n_users, dataset.n_items,
        config=MGBRConfig.small(d=16, seed=MODEL_SEED),
    )
    gbmf = GBMF(dataset.n_users, dataset.n_items, dim=16, seed=MODEL_SEED)
    return {
        "dataset": {"users": USERS, "items": ITEMS, "groups": GROUPS},
        "max_instances": INSTANCES,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "blas_pinned": BLAS_PINNED,
        },
        "candidate_sampling": {
            "1:9": _bench_sampling(dataset, 9),
            "1:99": _bench_sampling(dataset, 99),
        },
        "models": {
            "MGBR": _bench_model(mgbr, dataset),
            "GBMF": _bench_model(gbmf, dataset),
        },
        # Fused no-tape executor vs the tape on the MGBR 1:99 lists.
        "fused_executor": _bench_fused(mgbr, dataset),
        # int8/fp16 serving vs the float baseline on the same weights.
        "quantized_accuracy": _bench_quantized_accuracy(dataset),
    }


def check_report(report: dict, smoke: bool = False) -> None:
    """The acceptance gates the CI smoke run also exercises.

    ``smoke=True`` keeps the correctness gates (loop/``run()`` metric
    parity, fused-vs-tape score parity, the per-window op audit,
    quantised metric bounds) but skips the speedup floors: at the
    seconds-scale configuration the timings sit too close to their
    floors to gate on shared runners.
    """
    for model, protocols in report["models"].items():
        for proto, stats in protocols.items():
            assert stats["metrics_identical_to_loop"], (
                f"{model} {proto}: run() metrics diverged from loop"
            )
    # The fused no-tape executor must be bit-identical to the tape.
    fused = report["fused_executor"]
    assert fused["scores_identical_to_tape"], (
        "fused executor scores diverged from the tape"
    )
    # One warm window per task: fused, copy-free, and no more matmuls or
    # concatenates than the live-head-pruned program makes.
    for task, bounds in WINDOW_OP_BOUNDS.items():
        cell = fused["window_audit"][task]
        assert cell["fused"], f"{task} window fell back to the tape"
        assert cell["copies"] == 0, f"{task} window made {cell['copies']} array copies"
        for prim, bound in bounds.items():
            count = cell["nn_counts"].get(prim, 0)
            assert count <= bound, f"{task} window made {count} {prim} calls > {bound}"
    # Quantised serving accuracy: fp16 must not move any eval metric
    # (bitwise-stable ranking), int8 drift stays within the documented
    # bound, and both deltas land in the artifact as numbers.
    quant = report["quantized_accuracy"]
    for mode, bound in quant["bounds"].items():
        cell = quant["modes"][mode]
        assert cell["max_abs_metric_delta"] <= bound, (
            f"{mode} serving moved eval metrics by "
            f"{cell['max_abs_metric_delta']} (> {bound})"
        )
        assert isinstance(cell["gather_qps_ratio_vs_float32"], float)
    if smoke:
        return
    # MGBR's run() (the planned path) must beat the per-instance loop:
    # median of interleaved pairs, BLAS pinned to one thread.
    mgbr = report["models"]["MGBR"]
    for proto, floor in (("1:9", 5.0), ("1:99", 2.0)):
        speedup = mgbr[proto]["speedup"]
        assert speedup >= floor, f"MGBR {proto} loop/run speedup {speedup}x < {floor}x"
    # The fused executor must beat the tape by ≥1.5× (median of
    # interleaved paired repeats) on the MGBR 1:99 planned-scoring cell.
    assert fused["fused_speedup"] >= 1.5, (
        f"fused-vs-tape median speedup {fused['fused_speedup']}x < 1.5x"
    )


def test_eval_throughput():
    """run() beats the loop; metrics bit-identical."""
    report = run_benchmark()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    check_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run (tiny dataset, 1 repeat); skips the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        USERS, ITEMS, GROUPS, INSTANCES, REPEATS = 120, 40, 400, 40, 1
        PAIRS = FUSED_PAIRS = 2
    result = run_benchmark()
    check_report(result, smoke=args.smoke)
    if not args.smoke:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
