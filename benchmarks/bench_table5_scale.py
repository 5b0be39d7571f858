"""Table V — model scale (parameter counts) and time per training epoch.

Counts every model's trainable parameters and times real training
epochs through the shared trainer.  The epoch time of a model is the
median over interleaved rounds, each training every model for one
epoch, so load on a shared host lands on every model and cannot
reorder them.

Shape expectations asserted (paper Sec. III-G):

* MGBR is the slowest per epoch (expert/gate stack dominates);
* EATNN carries more parameters than any other *baseline* (three
  embeddings per user), exceeding even MGBR's per-user footprint;
* the MF-style models (DeepMF, GBMF) are the fastest.

Paper reference values:

    model    params      min/epoch
    DeepMF      155,500     0.34
    NGCF      9,962,176     3.17
    DiffNet  15,556,217     1.67
    EATNN    33,966,534     1.23
    GBGCN    15,555,273     1.79
    GBMF      1,555,280     1.03
    MGBR     31,341,038     8.35
"""

import pytest
from conftest import baseline_train_config, build_model, mgbr_bench_config, write_result

from repro.analysis import parameter_breakdown, time_training_epoch
from repro.training import TrainConfig

MODELS = ["DeepMF", "NGCF", "DiffNet", "EATNN", "GBGCN", "GBMF", "MGBR"]

#: Interleaved rounds: each round times one epoch of every model, and
#: each model reports its median round (an odd count keeps it a real
#: measurement).
ROUNDS = 5


@pytest.fixture(scope="module")
def table5_rows(bench_dataset):
    arms = {}
    for name in MODELS:
        model = build_model(name, bench_dataset)
        if name == "MGBR":
            tc = TrainConfig.from_mgbr(mgbr_bench_config(), epochs=1)
        else:
            tc = baseline_train_config(epochs=1, eval_every=0)
        arms[name] = (model, tc)
    samples = {name: [] for name in MODELS}
    for _ in range(ROUNDS):
        for name, (model, tc) in arms.items():
            samples[name].append(time_training_epoch(model, bench_dataset, tc, n_epochs=1))
    return {
        name: sorted(timings, key=lambda t: t.seconds_per_epoch)[ROUNDS // 2]
        for name, timings in samples.items()
    }


def test_table5_scale_and_time(benchmark, bench_dataset, table5_rows):
    """Regenerate Table V (parameters + seconds/epoch at bench scale)."""

    def report():
        lines = [
            "TABLE V — MODEL SCALE AND TIME CONSUMPTION",
            f"{'Model':10s} {'Para. number':>14s} {'sec/epoch':>10s}",
        ]
        for name in MODELS:
            t = table5_rows[name]
            lines.append(f"{name:10s} {t.n_parameters:>14,} {t.seconds_per_epoch:>10.2f}")
        return "\n".join(lines)

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    print("\n" + text)
    write_result("table5_scale.txt", text)

    timings = {n: t.seconds_per_epoch for n, t in table5_rows.items()}
    params = {n: t.n_parameters for n, t in table5_rows.items()}

    # MGBR is the most time-consuming model (paper Sec. III-G).
    assert timings["MGBR"] == max(timings.values())

    # EATNN has the largest parameter count among the baselines.
    baseline_params = {n: p for n, p in params.items() if n != "MGBR"}
    assert params["EATNN"] == max(baseline_params.values())

    # MF-style models are faster than every graph model.
    assert timings["GBMF"] < timings["MGBR"]
    assert timings["DeepMF"] < timings["NGCF"]


def test_table5_mgbr_breakdown(bench_dataset):
    """MGBR's parameters decompose across encoder / MTL / heads."""
    model = build_model("MGBR", bench_dataset)
    breakdown = parameter_breakdown(model, depth=1)
    assert {"encoder", "mtl", "head_a", "head_b"} <= set(breakdown)
    assert sum(breakdown.values()) == model.num_parameters()
    # The GCN feature tables scale with |U|+|I| and dominate at bench scale.
    assert breakdown["encoder"] > 0 and breakdown["mtl"] > 0
