"""Tests for the assembled MGBR model and its ablation variants."""

import numpy as np
import pytest

from repro.core import MGBR, MGBRConfig, build_variant
from repro.core.views import HINEmbedding, MultiViewEmbedding
from repro.nn import no_grad


class TestEmbeddings:
    def test_bundle_shapes(self, tiny_dataset, tiny_mgbr, small_config):
        emb = tiny_mgbr.compute_embeddings()
        vd = small_config.view_dim
        assert emb.user.shape == (tiny_dataset.n_users, vd)
        assert emb.item.shape == (tiny_dataset.n_items, vd)
        assert emb.participant.shape == (tiny_dataset.n_users, vd)

    def test_user_and_participant_views_differ(self, tiny_mgbr):
        emb = tiny_mgbr.compute_embeddings()
        # e_u = UI||UP while e_p = PI||UP: first halves differ.
        d = emb.user.shape[1] // 2
        assert not np.allclose(emb.user.data[:, :d], emb.participant.data[:, :d])

    def test_shared_social_half(self, tiny_mgbr):
        emb = tiny_mgbr.compute_embeddings()
        d = emb.user.shape[1] // 2
        # Both roles share the UP view in their second half (Eq. 4/6).
        np.testing.assert_allclose(emb.user.data[:, d:], emb.participant.data[:, d:])

    def test_hin_variant_single_embedding(self, tiny_dataset, small_config):
        model = build_variant(
            "MGBR-D", tiny_dataset.train, tiny_dataset.n_users,
            tiny_dataset.n_items, base=small_config,
        )
        emb = model.compute_embeddings()
        assert isinstance(model.encoder, HINEmbedding)
        # Under the HIN both roles are literally the same tensor.
        np.testing.assert_array_equal(emb.user.data, emb.participant.data)

    def test_multiview_encoder_for_full_model(self, tiny_mgbr):
        assert isinstance(tiny_mgbr.encoder, MultiViewEmbedding)


class TestScoring:
    def test_score_ranges(self, tiny_mgbr):
        emb = tiny_mgbr.compute_embeddings()
        users = np.array([0, 1, 2])
        items = np.array([0, 1, 2])
        scores = tiny_mgbr.score_items_from(emb, users, items)
        assert scores.shape == (3,)
        assert np.all(scores.data > 0) and np.all(scores.data < 1)

    def test_raw_scores_are_logits(self, tiny_mgbr):
        emb = tiny_mgbr.compute_embeddings()
        users, items = np.array([0, 1]), np.array([0, 1])
        raw = tiny_mgbr.score_items_from(emb, users, items, raw=True)
        prob = tiny_mgbr.score_items_from(emb, users, items)
        np.testing.assert_allclose(1 / (1 + np.exp(-raw.data)), prob.data, atol=1e-12)

    def test_task_a_averaged_participant_slot(self, tiny_mgbr):
        # With participants=None every sample shares the same e_p; passing
        # an explicit participant changes the score.
        emb = tiny_mgbr.compute_embeddings()
        users, items = np.array([0]), np.array([0])
        averaged = tiny_mgbr.score_items_from(emb, users, items).data
        explicit = tiny_mgbr.score_items_from(
            emb, users, items, participants=np.array([3])
        ).data
        assert not np.allclose(averaged, explicit)

    def test_task_b_depends_on_participant(self, tiny_mgbr):
        emb = tiny_mgbr.compute_embeddings()
        u, i = np.array([0, 0]), np.array([0, 0])
        scores = tiny_mgbr.score_participants_from(emb, u, i, np.array([1, 2]))
        assert scores.data[0] != scores.data[1]

    def test_task_b_depends_on_item(self, tiny_mgbr):
        emb = tiny_mgbr.compute_embeddings()
        u, p = np.array([0, 0]), np.array([5, 5])
        scores = tiny_mgbr.score_participants_from(emb, u, np.array([0, 1]), p)
        assert scores.data[0] != scores.data[1]

    def test_public_scoring_uses_cache(self, tiny_dataset, small_config):
        model = MGBR(
            tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
            config=small_config,
        )
        with no_grad():
            model.refresh_cache()
            first = model.score_items(np.array([0]), np.array([0])).data.copy()
        # Mutate a GCN feature; the cached pass must keep old scores until
        # invalidated.
        model.encoder.gcn_ui.features.weight.data += 1.0
        with no_grad():
            again = model.score_items(np.array([0]), np.array([0])).data
            np.testing.assert_array_equal(first, again)
            model.invalidate_cache()
            changed = model.score_items(np.array([0]), np.array([0])).data
        assert not np.allclose(first, changed)


class TestVariantsBehaviour:
    def test_m_variant_has_fewer_parameters(self, tiny_dataset, small_config):
        full = build_variant("MGBR", tiny_dataset.train, tiny_dataset.n_users,
                             tiny_dataset.n_items, base=small_config)
        m = build_variant("MGBR-M", tiny_dataset.train, tiny_dataset.n_users,
                          tiny_dataset.n_items, base=small_config)
        assert m.num_parameters() < full.num_parameters()

    def test_g_variant_has_fewer_parameters(self, tiny_dataset, small_config):
        full = build_variant("MGBR", tiny_dataset.train, tiny_dataset.n_users,
                             tiny_dataset.n_items, base=small_config)
        g = build_variant("MGBR-G", tiny_dataset.train, tiny_dataset.n_users,
                          tiny_dataset.n_items, base=small_config)
        assert g.num_parameters() < full.num_parameters()

    def test_r_variant_same_architecture(self, tiny_dataset, small_config):
        full = build_variant("MGBR", tiny_dataset.train, tiny_dataset.n_users,
                             tiny_dataset.n_items, base=small_config)
        r = build_variant("MGBR-R", tiny_dataset.train, tiny_dataset.n_users,
                          tiny_dataset.n_items, base=small_config)
        assert r.num_parameters() == full.num_parameters()
        assert not r.supports_aux_losses
        assert full.supports_aux_losses

    def test_all_variants_forward_and_backward(self, tiny_dataset, small_config):
        users = np.array([0, 1])
        items = np.array([0, 1])
        parts = np.array([2, 3])
        for name in ("MGBR", "MGBR-M", "MGBR-R", "MGBR-M-R", "MGBR-G", "MGBR-D"):
            model = build_variant(
                name, tiny_dataset.train, tiny_dataset.n_users,
                tiny_dataset.n_items, base=small_config,
            )
            emb = model.compute_embeddings()
            s_a = model.score_items_from(emb, users, items, raw=True)
            s_b = model.score_participants_from(emb, users, items, parts, raw=True)
            (s_a.sum() + s_b.sum()).backward()
            grads = [p for p in model.parameters() if p.grad is not None]
            assert grads, f"{name}: no gradients"

    def test_entity_embeddings_hook(self, tiny_mgbr):
        tables = tiny_mgbr.entity_embeddings()
        assert set(tables) == {"initiator", "item", "participant"}
        assert tables["initiator"].shape[0] == tiny_mgbr.n_users


class TestModelValidation:
    def test_bad_entity_counts(self, tiny_dataset, small_config):
        with pytest.raises(ValueError):
            MGBR(tiny_dataset.train, 0, 5, config=small_config)

    def test_seed_reproducibility(self, tiny_dataset, small_config):
        a = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                 config=small_config, seed=9)
        b = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                 config=small_config, seed=9)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self, tiny_dataset, small_config):
        a = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                 config=small_config, seed=1)
        b = MGBR(tiny_dataset.train, tiny_dataset.n_users, tiny_dataset.n_items,
                 config=small_config, seed=2)
        same = all(
            np.allclose(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )
        assert not same
