"""Golden float64 planned scores, and the script that writes them.

``golden_scores.npz`` holds, for every case in :data:`CASES` and both
tasks, the float64 unique-request logits ``score_item_plan`` /
``score_participant_plan`` return for the fixed plans of :func:`plans`
over the shared tiny dataset.  The cases cover every MGBR ablation
variant, every baseline, the live-head stack configurations and raw
(unsoftmaxed) gate weights.  The planned-scoring tests compare against
these arrays byte for byte, so any change to the arithmetic of the
scoring program shows up as a failure.  The stored arrays were written
by this script while planned scoring still ran on a separate fused
no-tape executor; the tape program reproduces them exactly.

Regenerate (only for a change meant to move scores)::

    PYTHONPATH=src:. python tests/golden_scores.py
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from repro.baselines import GBMF
from repro.cli import build_model
from repro.core import MGBR, MGBRConfig
from repro.core.variants import VARIANTS
from repro.data import SyntheticConfig, generate_dataset
from repro.nn import no_grad
from repro.plan import ScoringPlan

PATH = Path(__file__).with_suffix(".npz")

#: The ``tiny_dataset`` fixture's recipe (tests/conftest.py).
DATASET = SyntheticConfig(n_users=80, n_items=30, n_groups=300, min_interactions=3)
DATASET_SEED = 11

BASELINES = ("DeepMF", "DiffNet", "EATNN", "GBGCN", "GBMF", "NGCF")

#: The live-head stack configurations (tests/test_live_heads.py).
LIVE_CONFIGS = {
    "default": {},
    "no-shared": {"use_shared_experts": False},
    "no-adjusted": {"use_adjusted_gates": False},
    "layers-1": {"mtl_layers": 1},
    "layers-3": {"mtl_layers": 3},
    "compact": {"first_layer_compact": True},
}


def dataset():
    return generate_dataset(DATASET, seed=DATASET_SEED)


def _mgbr(data, config, seed=None):
    return MGBR(data.train, data.n_users, data.n_items, config=config, seed=seed)


def _cases():
    cases = {}
    for name in sorted(VARIANTS) + list(BASELINES):
        cases[f"model/{name}"] = lambda data, name=name: build_model(
            name, data, dim=8, seed=3
        )
    cases["mgbr-small"] = lambda data: _mgbr(
        data, MGBRConfig.small(d=8, n_experts=2, mtl_layers=2), seed=3
    )
    cases["gbmf"] = lambda data: GBMF(data.n_users, data.n_items, dim=8, seed=3)
    base = MGBRConfig.small(d=8, seed=3)
    for name, over in LIVE_CONFIGS.items():
        cases[f"live/{name}"] = lambda data, over=over: _mgbr(
            data, dataclasses.replace(base, **over)
        )
    for shared in (True, False):
        cases[f"raw-gates/{'shared' if shared else 'solo'}"] = lambda data, s=shared: _mgbr(
            data, dataclasses.replace(base, gate_softmax=False, use_shared_experts=s)
        )
    return cases


#: Case name -> ``builder(dataset) -> model``.
CASES = _cases()


def plans(data):
    """``{"items": pair plan, "participants": triple plan}``: 80 random
    requests each (with repeats, so the plans deduplicate)."""
    rng = np.random.default_rng(2024)
    users = rng.integers(0, data.n_users, size=80)
    items = rng.integers(0, data.n_items, size=80)
    participants = rng.integers(0, data.n_users, size=80)
    return {
        "items": ScoringPlan.from_item_pairs(users, items),
        "participants": ScoringPlan.from_triples(users, items, participants),
    }


def score(model, plan, task) -> np.ndarray:
    """``model``'s float64 planned logits for ``plan``."""
    scorer = model.score_item_plan if task == "items" else model.score_participant_plan
    with no_grad():
        return scorer(plan)


def expected(case: str, task: str) -> np.ndarray:
    """The stored golden for ``case`` on ``task``."""
    with np.load(PATH) as goldens:
        return goldens[f"{case}:{task}"]


def main() -> None:
    data = dataset()
    task_plans = plans(data)
    out = {}
    for case, build in CASES.items():
        model = build(data)
        for task, plan in task_plans.items():
            out[f"{case}:{task}"] = score(model, plan, task)
    np.savez_compressed(PATH, **out)
    print(f"wrote {len(out)} score vectors to {PATH}")


if __name__ == "__main__":
    main()
