"""Shared infrastructure for the experiment benchmarks.

Each ``bench_table*.py`` / ``bench_fig*.py`` regenerates one table or
figure of the paper on the synthetic Beibei-style dataset (see
:mod:`repro.data.synthetic`).  All experiments share
one dataset and one training budget so their numbers are comparable the
way the paper's are; candidate lists use a fixed seed so every model is
ranked on identical instances.  The scale and budget are the module
constants below; ``benchmarks/results/table1_dataset.txt`` fingerprints
the dataset they generate.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines import EATNN, GBGCN, GBMF, NGCF, DeepMF, DiffNet
from repro.core import MGBR, MGBRConfig, build_variant
from repro.data import SyntheticConfig, generate_dataset
from repro.eval import evaluate_model
from repro.training import TrainConfig, Trainer

BENCH_EPOCHS = 18
BENCH_USERS = 150
BENCH_ITEMS = 50
BENCH_GROUPS = 800
DATA_SEED = 7
MODEL_SEED = 1
EVAL_MAX = 150
DIM = 16

RESULTS_DIR = Path(__file__).parent / "results"


def mgbr_bench_config(**overrides) -> MGBRConfig:
    """The MGBR profile every benchmark uses (scaled Table II)."""
    base = dict(
        d=DIM,
        learning_rate=5e-3,
        gcn_gain=10.0,
        aux_a_mode="listnet",
        aux_negatives=8,
        train_negatives=9,
        batch_size=32,
        seed=MODEL_SEED,
    )
    base.update(overrides)
    return MGBRConfig.small(**base)


def baseline_train_config(**overrides) -> TrainConfig:
    """Uniform loop settings for the six baselines."""
    base = dict(
        epochs=BENCH_EPOCHS,
        batch_size=32,
        learning_rate=5e-3,
        train_negatives=9,
        eval_every=4,
        restore_best=True,
        eval_max_instances=100,
        seed=MODEL_SEED,
    )
    base.update(overrides)
    return TrainConfig(**base)


def build_model(name: str, dataset):
    """Instantiate any Table III/IV model by its paper name."""
    graph_kwargs = dict(dim=DIM, seed=MODEL_SEED)
    if name in ("MGBR", "MGBR-M", "MGBR-R", "MGBR-M-R", "MGBR-G", "MGBR-D"):
        return build_variant(
            name, dataset.train, dataset.n_users, dataset.n_items,
            base=mgbr_bench_config(),
        )
    builders = {
        "DeepMF": lambda: DeepMF(dataset.n_users, dataset.n_items, **graph_kwargs),
        "NGCF": lambda: NGCF(dataset.train, dataset.n_users, dataset.n_items, **graph_kwargs),
        "DiffNet": lambda: DiffNet(dataset.train, dataset.n_users, dataset.n_items, **graph_kwargs),
        "EATNN": lambda: EATNN(dataset.n_users, dataset.n_items, **graph_kwargs),
        "GBGCN": lambda: GBGCN(dataset.train, dataset.n_users, dataset.n_items, **graph_kwargs),
        "GBMF": lambda: GBMF(dataset.n_users, dataset.n_items, **graph_kwargs),
    }
    return builders[name]()


def train_and_evaluate(name: str, dataset, epochs: int = None):
    """Full train → best-epoch restore → @10 and @100 evaluation."""
    epochs = epochs or BENCH_EPOCHS
    model = build_model(name, dataset)
    if name.startswith("MGBR"):
        config = model.config
        tc = TrainConfig.from_mgbr(
            config, epochs=epochs,
            eval_every=4, restore_best=True, eval_max_instances=100,
        )
    else:
        tc = baseline_train_config(epochs=epochs)
    Trainer(model, dataset, tc).fit()
    results = evaluate_model(
        model, dataset, protocols=((9, 10), (99, 100)), max_instances=EVAL_MAX
    )
    return model, results


def metrics_row(name: str, results) -> str:
    """One Table III/IV row: tasks × {MRR@10, NDCG@10, MRR@100, NDCG@100}."""
    r10, r100 = results["@10"], results["@100"]
    return (
        f"{name:10s} "
        f"A: {r10.task_a['MRR@10']:.4f} {r10.task_a['NDCG@10']:.4f} "
        f"{r100.task_a['MRR@100']:.4f} {r100.task_a['NDCG@100']:.4f}  "
        f"B: {r10.task_b['MRR@10']:.4f} {r10.task_b['NDCG@10']:.4f} "
        f"{r100.task_b['MRR@100']:.4f} {r100.task_b['NDCG@100']:.4f}"
    )


def write_result(filename: str, text: str) -> Path:
    """Persist a benchmark artifact under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def bench_dataset():
    """The shared synthetic Beibei-style dataset for all experiments."""
    return generate_dataset(
        SyntheticConfig(n_users=BENCH_USERS, n_items=BENCH_ITEMS, n_groups=BENCH_GROUPS),
        seed=DATA_SEED,
    )
