"""Training-throughput benchmark: the planned optimisation step vs flat.

Times full training epochs of MGBR on the step the trainer picks for it
— the *planned* step (each step's positive + negative +
auxiliary-corruption requests compiled into one differentiable
:class:`repro.plan.PlannedBatch`, unique requests scored once through
the factorized expert/gate stack, scores scattered back to the loss
rows) — against the *flat* reference step (every (instance × negative)
loss row re-scored through the full model), reached through the
trainer's private ``_use_planned`` seam, at the paper's loop
hyper-parameters: batch 64, 1:9 negative sampling, |T| = 99 auxiliary
corruptions.  GBMF, whose near-free dot product trains flat, records
its own step.

Each engine reports steps/sec plus the per-phase wall-clock breakdown
(``sampling`` / ``forward`` / ``backward`` / ``optimizer``) surfaced by
:class:`repro.training.history.EpochRecord.phases`, and the first-epoch
losses of MGBR's two steps are compared — they agree to float
re-association; the strict gradient / post-Adam-weight parity
assertions live in tests/test_training.py.  MGBR also records a
deterministic allocation audit of one planned step (``step_audit``:
per-primitive ``CountingBackend`` counts, copies, and gradient-buffer
allocations), gated in :func:`check_report`.

The ``window_scaling`` cell times the planned step's window pool: whole
epochs at pool width 1 and at the host's width, in interleaved pairs,
at the repository benchmark's ``train-mgbr`` scale (``SCALING_DATA``:
there a step's plan holds about 11k unique rows, two windows of
``repro.training.trainer.ROWS``).  The full run gates its median ratio
``> 1.0`` on hosts whose pool has at least two CPUs; smoke runs record
it only.  BLAS is pinned to one thread, as in
``bench_eval_throughput.py``: a threaded BLAS competes with the windows
for the same cores, and the windows lose (docs/training.md,
"Window-parallel step").  The pin holds only if NumPy is not loaded yet,
so under pytest export ``OPENBLAS_NUM_THREADS=1`` (and the OMP/MKL
equivalents) in the shell; ``blas_pinned`` records whether it held.

Writes ``BENCH_train_throughput.json`` at the repository root.  Run
directly (``PYTHONPATH=src python benchmarks/bench_train_throughput.py``);
``--smoke`` runs a seconds-scale configuration and skips the artifact;
the full run's scale is the module constants ``USERS`` / ``ITEMS`` /
``GROUPS`` / ``EPOCHS``.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads for every timed cell; read once, when NumPy is imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_PINNED = "numpy" not in sys.modules or all(
    os.environ.get(var) == "1" for var in BLAS_ENV
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import json
import time
from pathlib import Path

import numpy as np

import repro.eval.windows as window_pool
from repro.baselines import GBMF
from repro.core import MGBR, MGBRConfig
from repro.data import GroupBuyingDataset, SyntheticConfig, generate_dataset
from repro.nn import CountingBackend, backend_scope
from repro.training import TrainConfig, Trainer
from repro.training.trainer import ROWS

USERS = 300
ITEMS = 120
GROUPS = 900
EPOCHS = 2

# Paper loop hyper-parameters (Table II): |B| = 64, 1:9, |T| = 99.
BATCH_SIZE = 64
TRAIN_NEGATIVES = 9
AUX_NEGATIVES = 99

DATA_SEED = 7
MODEL_SEED = 1

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_train_throughput.json"

#: Ceiling on ``zeros_like`` + ``empty_like`` calls in one planned MGBR
#: step: 71 measured in both the smoke and the full configuration (141
#: before the gather-adds and expert banks became single tape nodes, 108
#: before every fold of a weight unfolded into one buffer).
MAX_STEP_ALLOCATIONS = 71

#: The window-scaling cell's dataset (the ``train-mgbr`` workload's), the
#: training groups one timed epoch walks (nine steps; the graph spans the
#: whole training split), and its interleaved (width 1, host width) pairs.
SCALING_DATA = dict(n_users=1000, n_items=300, n_groups=4000)
SCALING_GROUPS = 240
SCALING_PAIRS = 7


def _dataset():
    return generate_dataset(
        SyntheticConfig(n_users=USERS, n_items=ITEMS, n_groups=GROUPS), seed=DATA_SEED
    )


def _build_mgbr(dataset):
    config = MGBRConfig.small(
        d=16,
        aux_negatives=AUX_NEGATIVES,
        train_negatives=TRAIN_NEGATIVES,
        batch_size=BATCH_SIZE,
        seed=MODEL_SEED,
    )
    return MGBR(dataset.train, dataset.n_users, dataset.n_items, config=config)


def _build_gbmf(dataset):
    return GBMF(dataset.n_users, dataset.n_items, dim=16, seed=MODEL_SEED)


def _train_config() -> TrainConfig:
    return TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        train_negatives=TRAIN_NEGATIVES,
        aux_negatives=AUX_NEGATIVES,
        learning_rate=5e-3,
        seed=0,
    )


def _steps_per_epoch(trainer: Trainer) -> int:
    cfg = trainer.config
    n_a = max(1, (len(trainer.task_a) + cfg.batch_size - 1) // cfg.batch_size)
    n_b = max(1, (len(trainer.task_b) + cfg.batch_size - 1) // cfg.batch_size)
    return max(n_a, n_b)


def _run_engine(build_model, dataset, flat_reference=False) -> dict:
    """Train ``EPOCHS`` epochs; report the best epoch's throughput.

    ``flat_reference`` switches the planned step off through the
    trainer's private ``_use_planned`` seam (tests use the same one).
    """
    trainer = Trainer(build_model(dataset), dataset, _train_config())
    if flat_reference:
        trainer._use_planned = False
    steps = _steps_per_epoch(trainer)
    records = [trainer.train_epoch() for _ in range(EPOCHS)]
    best = min(records, key=lambda r: r.seconds)
    return {
        "engine": "planned" if trainer._use_planned else "flat",
        "steps_per_epoch": steps,
        "epoch_seconds": round(best.seconds, 4),
        "steps_per_sec": round(steps / best.seconds, 3),
        "phase_seconds": best.phases,
        "first_epoch_losses": {k: v for k, v in records[0].losses.items()},
    }


def _plan_stats(build_model, dataset) -> dict:
    """Plan statistics for one representative training step's requests.

    Uses the trainer's own plan construction
    (:meth:`repro.training.Trainer._step_plan`), so the reported numbers
    describe exactly what the planned step scores, including its live
    rows: ``rows_a_only`` / ``rows_both`` / ``rows_b_only`` count the
    unique requests only head A's, both heads' or only head B's losses
    read (each head's last-layer work runs on its own rows only).
    """
    trainer = Trainer(build_model(dataset), dataset, _train_config())
    pair = next(iter(trainer._paired_batches()))
    draws = trainer._draw_negatives(pair["a"], pair["b"])
    return {"joint": trainer._step_plan(pair["a"], pair["b"], draws).stats()}


def _step_audit(build_model, dataset) -> dict:
    """Backend calls of one planned step, counted by ``CountingBackend``.

    Deterministic for a given configuration: the counts depend on the
    graph's structure, not on timing.  ``allocations`` sums the
    ``zeros_like`` and ``empty_like`` calls — the gradient buffers the
    tape could not adopt from a route (see docs/training.md,
    "Gradient buffers").
    """
    trainer = Trainer(build_model(dataset), dataset, _train_config())
    pair = next(iter(trainer._paired_batches()))
    counting = CountingBackend()
    with backend_scope(counting):
        trainer._step(pair["a"], pair["b"])
    counts = dict(sorted(counting.counts.items()))
    return {
        "nn_counts": counts,
        "copies": counting.copies,
        "allocations": counts.get("zeros_like", 0) + counts.get("empty_like", 0),
    }


def _window_scaling() -> dict:
    """Paired epochs at pool width 1 and at the host's width.

    Each pair trains one epoch from the same initial weights at width 1,
    then one at the host's width; ``speedup`` is the median of the
    per-pair ratios and ``wins`` counts the pairs the host width won.
    ``window_grid`` lists the unique rows of each window of the epoch's
    first step.
    """
    full = generate_dataset(SyntheticConfig(**SCALING_DATA), seed=DATA_SEED)
    dataset = GroupBuyingDataset(
        n_users=full.n_users, n_items=full.n_items,
        train=full.train[:SCALING_GROUPS], validation=full.validation, test=full.test,
    )
    model = _build_mgbr(full)
    initial = model.state_dict()
    host = window_pool._width()

    def epoch(width: int) -> float:
        model.load_state_dict(initial)
        model.invalidate_cache()
        trainer = Trainer(model, dataset, _train_config())
        window_pool._WIDTH = width
        try:
            started = time.perf_counter()
            trainer.train_epoch()
            return time.perf_counter() - started
        finally:
            window_pool._WIDTH = None

    epoch(host)  # warm-up: fold caches, pool threads, scatter operators
    pairs = [(epoch(1), epoch(host)) for _ in range(SCALING_PAIRS)]
    ratios = [one / wide for one, wide in pairs]
    trainer = Trainer(model, dataset, _train_config())
    pair = next(iter(trainer._paired_batches()))
    draws = trainer._draw_negatives(pair["a"], pair["b"])
    plan = trainer._step_plan(pair["a"], pair["b"], draws).plan
    return {
        "dataset": {"users": SCALING_DATA["n_users"], "items": SCALING_DATA["n_items"],
                    "groups": SCALING_DATA["n_groups"], "epoch_groups": SCALING_GROUPS},
        "cpu_count": os.cpu_count(),
        "pool_width": host,
        "blas_threads": os.environ.get(BLAS_ENV[0]),
        "blas_pinned": BLAS_PINNED,
        "rows_per_window": ROWS,
        "window_grid": [w.n_pairs for w in plan.windows(ROWS)],
        "pairs": SCALING_PAIRS,
        "epoch_seconds": {
            "width_1": round(float(np.median([one for one, _ in pairs])), 4),
            "host_width": round(float(np.median([wide for _, wide in pairs])), 4),
        },
        "speedup": round(float(np.median(ratios)), 3),
        "wins": sum(r > 1.0 for r in ratios),
    }


def _bench_mgbr(dataset) -> dict:
    flat = _run_engine(_build_mgbr, dataset, flat_reference=True)
    planned = _run_engine(_build_mgbr, dataset)
    loss_delta = max(
        abs(flat["first_epoch_losses"][k] - planned["first_epoch_losses"][k])
        for k in flat["first_epoch_losses"]
    )
    return {
        "flat": flat,
        "planned": planned,
        "planned_speedup": round(
            planned["steps_per_sec"] / flat["steps_per_sec"], 2
        ),
        "first_epoch_loss_max_abs_diff": loss_delta,
        "step_plan": _plan_stats(_build_mgbr, dataset),
        "step_audit": _step_audit(_build_mgbr, dataset),
    }


def run_benchmark() -> dict:
    dataset = _dataset()
    return {
        "dataset": {"users": USERS, "items": ITEMS, "groups": GROUPS},
        "loop": {
            "batch_size": BATCH_SIZE,
            "train_negatives": TRAIN_NEGATIVES,
            "aux_negatives": AUX_NEGATIVES,
            "epochs_timed": EPOCHS,
        },
        "models": {
            "MGBR": _bench_mgbr(dataset),
            "GBMF": {"flat": _run_engine(_build_gbmf, dataset)},
        },
        "window_scaling": _window_scaling(),
    }


def check_report(report: dict, smoke: bool = False) -> None:
    """The acceptance gates; the CI smoke run checks all but the
    window-scaling ratio, which a seconds-scale run cannot resolve."""
    mgbr = report["models"]["MGBR"]
    assert mgbr["planned_speedup"] >= 2.0, (
        f"planned step speedup {mgbr['planned_speedup']}x < 2x"
    )
    assert mgbr["planned"]["engine"] == "planned", "MGBR should train on the planned step"
    assert mgbr["first_epoch_loss_max_abs_diff"] < 1e-9, (
        f"planned losses diverged: {mgbr['first_epoch_loss_max_abs_diff']}"
    )
    audit = mgbr["step_audit"]
    assert audit["copies"] == 0, f"planned step made {audit['copies']} array copies"
    assert audit["allocations"] <= MAX_STEP_ALLOCATIONS, (
        f"planned step allocated {audit['allocations']} gradient-sized buffers "
        f"> {MAX_STEP_ALLOCATIONS}"
    )
    gbmf = report["models"]["GBMF"]
    assert gbmf["flat"]["engine"] == "flat", "GBMF should train on the flat step"
    scaling = report["window_scaling"]
    if not smoke and scaling["pool_width"] >= 2:
        assert scaling["speedup"] > 1.0, (
            f"window pool at width {scaling['pool_width']}: {scaling['speedup']}x "
            f"the width-1 epoch ({scaling['wins']}/{scaling['pairs']} pairs won)"
        )


def test_train_throughput():
    """Planned step ≥2× flat for MGBR; losses agree; each model trains on
    its own step; one planned step stays within its allocation budget."""
    report = run_benchmark()
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    check_report(report)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run (tiny dataset, 1 epoch); skips the JSON artifact",
    )
    args = parser.parse_args()
    if args.smoke:
        USERS, ITEMS, GROUPS, EPOCHS = 100, 40, 240, 1
        AUX_NEGATIVES = 19
        SCALING_GROUPS, SCALING_PAIRS = 64, 1
    result = run_benchmark()
    check_report(result, smoke=args.smoke)
    if not args.smoke:
        OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
