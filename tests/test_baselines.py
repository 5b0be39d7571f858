"""Tests for the six baselines: shapes, gradients, tailoring contracts."""

import numpy as np
import pytest

from repro.baselines import EATNN, GBGCN, GBMF, NGCF, DeepMF, DiffNet
from repro.baselines.base import EmbeddingBundle, GroupBuyingRecommender


def _build_all(dataset, dim=8, seed=1):
    """One instance of every baseline over the dataset's train split."""
    return {
        "DeepMF": DeepMF(dataset.n_users, dataset.n_items, dim=dim, seed=seed),
        "NGCF": NGCF(dataset.train, dataset.n_users, dataset.n_items, dim=dim, seed=seed),
        "DiffNet": DiffNet(dataset.train, dataset.n_users, dataset.n_items, dim=dim, seed=seed),
        "EATNN": EATNN(dataset.n_users, dataset.n_items, dim=dim, seed=seed),
        "GBGCN": GBGCN(dataset.train, dataset.n_users, dataset.n_items, dim=dim, seed=seed),
        "GBMF": GBMF(dataset.n_users, dataset.n_items, dim=dim, seed=seed),
    }


class TestCommonContract:
    def test_all_models_score_both_tasks(self, tiny_dataset):
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        parts = np.array([3, 4, 5])
        for name, model in _build_all(tiny_dataset).items():
            emb = model.compute_embeddings()
            s_a = model.score_items_from(emb, users, items)
            s_b = model.score_participants_from(emb, users, items, parts)
            assert s_a.shape == (3,), name
            assert s_b.shape == (3,), name
            assert np.all((s_a.data > 0) & (s_a.data < 1)), name
            assert np.all((s_b.data > 0) & (s_b.data < 1)), name

    def test_raw_flag_returns_logits(self, tiny_dataset):
        users, items, parts = np.array([0]), np.array([0]), np.array([1])
        for name, model in _build_all(tiny_dataset).items():
            emb = model.compute_embeddings()
            raw = model.score_items_from(emb, users, items, raw=True).data
            prob = model.score_items_from(emb, users, items).data
            np.testing.assert_allclose(1 / (1 + np.exp(-raw)), prob, atol=1e-12, err_msg=name)

    def test_gradients_flow_everywhere(self, tiny_dataset):
        users = np.array([0, 1])
        items = np.array([0, 1])
        parts = np.array([2, 3])
        for name, model in _build_all(tiny_dataset).items():
            emb = model.compute_embeddings()
            loss = (
                model.score_items_from(emb, users, items, raw=True).sum()
                + model.score_participants_from(emb, users, items, parts, raw=True).sum()
            )
            loss.backward()
            with_grads = sum(
                1 for p in model.parameters()
                if p.grad is not None and np.abs(p.grad).sum() > 0
            )
            assert with_grads > 0, name

    def test_no_baseline_supports_aux_losses(self, tiny_dataset):
        for name, model in _build_all(tiny_dataset).items():
            assert not model.supports_aux_losses, name

    def test_entity_embeddings_keys(self, tiny_dataset):
        for name, model in _build_all(tiny_dataset).items():
            tables = model.entity_embeddings()
            assert set(tables) == {"initiator", "item", "participant"}, name
            assert tables["initiator"].shape[0] == tiny_dataset.n_users, name

    def test_invalid_entity_counts(self):
        with pytest.raises(ValueError):
            DeepMF(0, 5)


class TestTaskBTailoring:
    def test_tailoring_ignores_item_for_all_baselines(self, tiny_dataset):
        # Sec. III-B: every baseline scores Task B by the u-p inner
        # product only; swapping the item must not change the score.
        # This is precisely the capability gap Table III measures.
        for name in ("DeepMF", "NGCF", "DiffNet", "EATNN", "GBGCN", "GBMF"):
            model = _build_all(tiny_dataset)[name]
            emb = model.compute_embeddings()
            u, p = np.array([0, 0]), np.array([4, 4])
            s = model.score_participants_from(emb, u, np.array([0, 1]), p).data
            assert s[0] == pytest.approx(s[1]), name

    def test_gbmf_task_b_uses_role_tables(self, tiny_dataset):
        # GBMF's Task-B inner product pairs the participant-role table
        # with the initiator-role table (they are independent).
        model = _build_all(tiny_dataset)["GBMF"]
        emb = model.compute_embeddings()
        u, i = np.array([0]), np.array([0])
        s = model.score_participants_from(emb, u, i, np.array([4])).data
        manual = 1 / (1 + np.exp(-(emb.user.data[0] * emb.participant.data[4]).sum()))
        assert s[0] == pytest.approx(manual)

    def test_eatnn_uses_social_domain_for_task_b(self, tiny_dataset):
        model = _build_all(tiny_dataset)["EATNN"]
        emb = model.compute_embeddings()
        # Task B scoring must use the social view (participant table).
        u, i = np.array([0]), np.array([0])
        s1 = model.score_participants_from(emb, u, i, np.array([1])).data
        manual = float(
            1 / (1 + np.exp(-(emb.participant.data[0] * emb.participant.data[1]).sum()))
        )
        assert s1[0] == pytest.approx(manual)


class TestRoleSeparation:
    def test_gbmf_role_tables_independent(self, tiny_dataset):
        model = _build_all(tiny_dataset)["GBMF"]
        emb = model.compute_embeddings()
        assert not np.allclose(emb.user.data, emb.participant.data)

    def test_gbgcn_roles_share_full_representation(self, tiny_dataset):
        # GBGCN stacks both role views into one user representation.
        model = _build_all(tiny_dataset)["GBGCN"]
        emb = model.compute_embeddings()
        assert emb.user.shape[1] == emb.item.shape[1]

    def test_deepmf_towers_change_dimensions(self, tiny_dataset):
        model = DeepMF(tiny_dataset.n_users, tiny_dataset.n_items, dim=12, out_dim=5, seed=0)
        emb = model.compute_embeddings()
        assert emb.user.shape[1] == 5
        assert emb.item.shape[1] == 5


class TestParameterScale:
    def test_eatnn_has_most_user_parameters(self, tiny_dataset):
        # Table V's narrative: EATNN's triple user tables dominate.
        models = _build_all(tiny_dataset)
        assert models["EATNN"].num_parameters() > models["DeepMF"].num_parameters()
        assert models["EATNN"].num_parameters() > models["GBMF"].num_parameters()

    def test_gbmf_larger_than_deepmf_tables(self, tiny_dataset):
        # GBMF has two user tables vs DeepMF's one (plus towers).
        models = _build_all(tiny_dataset)
        gbmf_tables = models["GBMF"].num_parameters()
        assert gbmf_tables > 0

    def test_deterministic_construction(self, tiny_dataset):
        a = NGCF(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=7)
        b = NGCF(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items, dim=8, seed=7)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestDiffNetStructure:
    def test_social_diffusion_uses_cogroup_graph(self, tiny_dataset):
        model = _build_all(tiny_dataset)["DiffNet"]
        # Row-stochastic social operator.
        sums = np.asarray(model.social_mean.sum(axis=1)).ravel()
        nonzero = sums[sums > 0]
        np.testing.assert_allclose(nonzero, 1.0)

    def test_interest_mean_rows_normalized(self, tiny_dataset):
        model = _build_all(tiny_dataset)["DiffNet"]
        sums = np.asarray(model.interest_mean.sum(axis=1)).ravel()
        nonzero = sums[sums > 0]
        np.testing.assert_allclose(nonzero, 1.0)
