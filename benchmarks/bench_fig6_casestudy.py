"""Fig. 6 — case study of representation learning (PCA of group embeddings).

Trains full MGBR and MGBR-M-R, projects the embeddings of sampled deal
groups (initiator + item + participants) to 2-D with PCA, and compares
within-group tightness.

Shape expectation (paper Sec. III-I): under full MGBR the members of
one group are more concentrated relative to the spread between groups —
a *lower* dispersion ratio — than under MGBR-M-R, because the shared
experts and auxiliary losses pull co-group objects together.

This claim is the embedding-level signature of the -M-R ablation.  At
this reproduction's dense synthetic scale the -M family does not
collapse (see ``bench_table4_ablation.py``'s shape notes), so the tightness gap is
not guaranteed either; the bench asserts the study's structure and
*records* the ratio comparison with an explicit CONFIRMED /
NOT-REPRODUCED verdict instead of hard-failing on the sign.
"""

from conftest import BENCH_EPOCHS, bench_dataset, build_model, mgbr_bench_config, write_result

from repro.eval import run_case_study
from repro.training import TrainConfig, Trainer

N_GROUPS = 6
STUDY_SEED = 3


def _train(name, dataset):
    model = build_model(name, dataset)
    tc = TrainConfig.from_mgbr(
        model.config, epochs=BENCH_EPOCHS,
        eval_every=4, restore_best=True, eval_max_instances=100,
    )
    Trainer(model, dataset, tc).fit()
    from repro.nn import no_grad

    with no_grad():
        model.refresh_cache()
    return model


def test_fig6_embedding_case_study(benchmark, bench_dataset):
    """Regenerate Fig. 6's tightness comparison."""

    def run():
        studies = {}
        for name in ("MGBR", "MGBR-M-R"):
            model = _train(name, bench_dataset)
            studies[name] = run_case_study(
                model, bench_dataset.train, n_groups=N_GROUPS, seed=STUDY_SEED
            )
        return studies

    studies = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["FIG. 6 — OBJECT EMBEDDING CASE STUDY (PCA, 2-D)"]
    for name, study in studies.items():
        lines.append(
            f"{name:10s} dispersion ratio (within/between): {study.dispersion_ratio:.4f}   "
            f"explained variance: {study.explained_variance.round(3).tolist()}"
        )
    ratio_full = studies["MGBR"].dispersion_ratio
    ratio_ablated = studies["MGBR-M-R"].dispersion_ratio
    lines.append(
        f"\npaper claim: MGBR groups tighter than MGBR-M-R -> "
        f"{ratio_full:.4f} < {ratio_ablated:.4f} "
        f"({'CONFIRMED' if ratio_full < ratio_ablated else 'NOT REPRODUCED'})"
    )
    text = "\n".join(lines)
    print("\n" + text)
    write_result("fig6_casestudy.txt", text)

    # Same groups, same PCA pipeline, both studies complete and sane.
    for study in studies.values():
        assert study.points.shape[1] == 2
        assert study.points.shape[0] == len(study.labels)
        assert 0 < study.dispersion_ratio < 100
        assert {"initiator", "item", "participant"} == set(study.roles)
    # Both studies projected the same sampled groups (paired comparison).
    import numpy as np

    np.testing.assert_array_equal(
        studies["MGBR"].labels, studies["MGBR-M-R"].labels
    )
