"""Table III — overall performance comparison on Task A and Task B.

Trains MGBR and the six baselines with identical budgets on the shared
synthetic dataset and reports MRR@10 / NDCG@10 (1:9 lists) and
MRR@100 / NDCG@100 (1:99 lists) for both sub-tasks — the full grid of
the paper's Table III.

Shape expectations asserted (paper Sec. III-E):

* MGBR posts the best Task-B metrics, and its Task-B margin over the
  strongest baseline exceeds its Task-A margin (no baseline has an
  item-aware participant head);
* MGBR is at least competitive on Task A (best or within a small gap).

Paper reference values (Beibei), for side-by-side shape comparison:

    model    A-MRR@10  A-NDCG@10  B-MRR@10  B-NDCG@10
    DeepMF     0.3763     0.5183    0.3070     0.4656
    NGCF       0.5607     0.6617    0.3778     0.5211
    DiffNet    0.3780     0.5206    0.3314     0.4844
    EATNN      0.5827     0.6807    0.3404     0.4929
    GBGCN      0.5095     0.6231    0.3668     0.5127
    GBMF       0.3718     0.5135    0.3254     0.4794
    MGBR       0.6401     0.7292    0.6484     0.7327
"""

import pytest
from conftest import metrics_row, train_and_evaluate, write_result

MODELS = ["DeepMF", "NGCF", "DiffNet", "EATNN", "GBGCN", "GBMF", "MGBR"]


@pytest.fixture(scope="module")
def table3_results(bench_dataset):
    """Train every model once; later tests reuse the grid."""
    results = {}
    for name in MODELS:
        _, results[name] = train_and_evaluate(name, bench_dataset)
    return results


def test_table3_overall_comparison(benchmark, bench_dataset, table3_results):
    """Regenerate Table III and check the winner structure."""

    def report():
        lines = [
            "TABLE III — OVERALL PERFORMANCE COMPARISONS",
            "(per task: MRR@10 NDCG@10 MRR@100 NDCG@100)",
        ]
        lines += [metrics_row(name, table3_results[name]) for name in MODELS]
        best_baseline_b = max(
            (n for n in MODELS if n != "MGBR"),
            key=lambda n: table3_results[n]["@10"].task_b["MRR@10"],
        )
        mgbr_b = table3_results["MGBR"]["@10"].task_b["MRR@10"]
        base_b = table3_results[best_baseline_b]["@10"].task_b["MRR@10"]
        lines.append(
            f"\nTask-B improvement over strongest baseline ({best_baseline_b}): "
            f"{100 * (mgbr_b - base_b) / base_b:+.2f}%"
        )
        return "\n".join(lines)

    text = benchmark.pedantic(report, rounds=1, iterations=1)
    print("\n" + text)
    write_result("table3_overall.txt", text)

    mgbr = table3_results["MGBR"]["@10"]
    baselines = {n: table3_results[n]["@10"] for n in MODELS if n != "MGBR"}

    # MGBR wins Task B outright (the paper's headline result).
    best_b = max(r.task_b["MRR@10"] for r in baselines.values())
    assert mgbr.task_b["MRR@10"] > best_b, "MGBR must win Task B"

    # Task-B relative margin exceeds the Task-A one.
    best_a = max(r.task_a["MRR@10"] for r in baselines.values())
    margin_a = (mgbr.task_a["MRR@10"] - best_a) / best_a
    margin_b = (mgbr.task_b["MRR@10"] - best_b) / best_b
    assert margin_b > margin_a, "Task-B margin should dominate (paper Sec. III-E.1)"

    # MGBR competitive on Task A: best, or within 10% of the best
    # baseline.  (On Beibei MGBR wins Task A by ~10%; on the synthetic
    # world Task A sits near its learnability ceiling for all models, so
    # the spread is compressed.)
    assert mgbr.task_a["MRR@10"] > 0.90 * best_a


def test_table3_group_buying_baselines_ordering(table3_results):
    """GBGCN (graph propagation) at least matches GBMF (plain MF) on
    Task A — paper Sec. III-E.2 ("GBGCN has better performance")."""
    gbgcn = table3_results["GBGCN"]["@10"]
    gbmf = table3_results["GBMF"]["@10"]
    assert gbgcn.task_a["MRR@10"] > 0.97 * gbmf.task_a["MRR@10"]


def test_table3_all_models_beat_random_on_task_a(table3_results):
    """Sanity: every trained model learned something on Task A."""
    random_mrr = sum(1.0 / r for r in range(1, 11)) / 10
    for name in MODELS:
        assert table3_results[name]["@10"].task_a["MRR@10"] > random_mrr, name
