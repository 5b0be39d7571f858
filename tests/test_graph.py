"""Unit tests for the graph substrate: adjacencies, views, GCN, HIN."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data.schema import DealGroup
from repro.graph import (
    GCN,
    GCNLayer,
    build_hin_adjacency,
    build_views,
    degree_vector,
    edges_to_adjacency,
    normalized_adjacency,
)
from repro.nn import tensor


class TestEdgesToAdjacency:
    def test_symmetric_insertion(self):
        adj = edges_to_adjacency([(0, 1)], 3)
        assert adj[0, 1] == 1 and adj[1, 0] == 1

    def test_directed_mode(self):
        adj = edges_to_adjacency([(0, 1)], 3, symmetric=False)
        assert adj[0, 1] == 1 and adj[1, 0] == 0

    def test_duplicate_edges_binary(self):
        adj = edges_to_adjacency([(0, 1), (0, 1), (1, 0)], 2)
        assert adj[0, 1] == 1.0

    def test_weighted_edges_sum(self):
        adj = edges_to_adjacency([(0, 1), (0, 1)], 2, weights=[0.5, 0.25])
        assert adj[0, 1] == pytest.approx(0.75)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            edges_to_adjacency([(0, 5)], 3)

    def test_empty_edges(self):
        adj = edges_to_adjacency([], 4)
        assert adj.nnz == 0
        assert adj.shape == (4, 4)

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            edges_to_adjacency([(0, 1)], 2, weights=[1.0, 2.0])

    def test_invalid_n_nodes(self):
        with pytest.raises(ValueError):
            edges_to_adjacency([], 0)


class TestNormalizedAdjacency:
    def test_row_sums_with_self_loops(self):
        # For a regular graph, D^{-1/2}(A+I)D^{-1/2} has rows summing to 1.
        ring = edges_to_adjacency([(0, 1), (1, 2), (2, 0)], 3)
        norm = normalized_adjacency(ring)
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), np.ones(3))

    def test_symmetric_output(self):
        adj = edges_to_adjacency([(0, 1), (1, 2)], 4)
        norm = normalized_adjacency(adj).toarray()
        np.testing.assert_allclose(norm, norm.T)

    def test_isolated_node_keeps_self_loop(self):
        adj = edges_to_adjacency([(0, 1)], 3)
        norm = normalized_adjacency(adj)
        assert norm[2, 2] == pytest.approx(1.0)

    def test_no_self_loops_zero_degree_row(self):
        adj = edges_to_adjacency([(0, 1)], 3)
        norm = normalized_adjacency(adj, add_self_loops=False)
        assert norm[2, 2] == 0.0
        assert np.all(np.isfinite(norm.toarray()))

    def test_spectral_radius_at_most_one(self):
        adj = edges_to_adjacency([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4)
        norm = normalized_adjacency(adj).toarray()
        eigvals = np.linalg.eigvalsh(norm)
        assert eigvals.max() <= 1.0 + 1e-9

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            normalized_adjacency(sp.csr_matrix((2, 3)))


class TestBuildViews:
    def test_view_shapes(self, handmade_groups):
        views = build_views(handmade_groups, n_users=4, n_items=3)
        assert views.a_ui.shape == (7, 7)
        assert views.a_pi.shape == (7, 7)
        assert views.a_up.shape == (4, 4)
        assert views.n_nodes_bipartite == 7

    def test_ui_edges_only_initiators(self, handmade_groups):
        views = build_views(handmade_groups, 4, 3)
        # User 1 never initiates: its only UI-graph mass is the self-loop.
        row = views.a_ui[1].toarray().ravel()
        assert row[1] > 0
        assert np.count_nonzero(row) == 1

    def test_pi_edges_only_participants(self, handmade_groups):
        views = build_views(handmade_groups, 4, 3)
        # User 3 only initiates; in PI space just the self-loop remains.
        row = views.a_pi[3].toarray().ravel()
        assert np.count_nonzero(row) == 1

    def test_up_connects_initiator_to_participants(self, handmade_groups):
        views = build_views(handmade_groups, 4, 3)
        assert views.a_up[0, 1] > 0
        assert views.a_up[0, 2] > 0

    def test_no_participant_participant_edges_by_default(self, handmade_groups):
        views = build_views(handmade_groups, 4, 3)
        # Users 1 and 2 co-participate in group 0 but must not connect.
        assert views.a_up[1, 2] == 0.0

    def test_participant_edges_variant(self, handmade_groups):
        views = build_views(handmade_groups, 4, 3, include_participant_edges=True)
        assert views.a_up[1, 2] > 0.0

    def test_item_node_mapping(self, handmade_groups):
        views = build_views(handmade_groups, 4, 3)
        assert views.item_node(0) == 4
        assert views.item_node(2) == 6


class TestGCN:
    def test_layer_shapes(self, rng):
        layer = GCNLayer(8, 8, seed=0)
        adj = normalized_adjacency(edges_to_adjacency([(0, 1), (1, 2)], 5))
        out = layer(adj, tensor(rng.normal(size=(5, 8))))
        assert out.shape == (5, 8)

    def test_sigmoid_activation_range(self, rng):
        layer = GCNLayer(4, 4, activation="sigmoid", seed=0)
        adj = normalized_adjacency(edges_to_adjacency([(0, 1)], 3))
        out = layer(adj, tensor(rng.normal(size=(3, 4))))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_stack_output_and_grads(self, rng):
        adj = normalized_adjacency(edges_to_adjacency([(0, 1), (1, 2), (2, 3)], 6))
        gcn = GCN(6, 4, n_layers=2, seed=0)
        out = gcn(adj)
        assert out.shape == (6, 4)
        out.sum().backward()
        assert all(p.grad is not None for p in gcn.parameters())

    def test_wrong_adjacency_size(self, rng):
        gcn = GCN(5, 3, seed=0)
        with pytest.raises(ValueError):
            gcn(sp.identity(4, format="csr"))

    def test_at_least_one_layer(self):
        with pytest.raises(ValueError):
            GCN(4, 3, n_layers=0)

    def test_isolated_node_embedding_depends_only_on_self(self):
        # Node 3 is isolated: changing node 0's features must not move it.
        adj = normalized_adjacency(edges_to_adjacency([(0, 1), (1, 2)], 4))
        gcn = GCN(4, 3, n_layers=2, seed=0)
        before = np.array(gcn(adj).data[3])
        gcn.features.weight.data[0] += 10.0
        after = np.array(gcn(adj).data[3])
        np.testing.assert_allclose(before, after)


class TestHIN:
    def test_contains_all_relations(self, handmade_groups):
        hin = build_hin_adjacency(handmade_groups, 4, 3)
        assert hin.shape == (7, 7)
        assert hin[0, 4] > 0  # u0 - item0 (launch)
        assert hin[1, 4] > 0  # u1 - item0 (join)
        assert hin[0, 1] > 0  # u0 - u1 (social)

    def test_symmetric(self, handmade_groups):
        hin = build_hin_adjacency(handmade_groups, 4, 3).toarray()
        np.testing.assert_allclose(hin, hin.T)

    def test_degree_vector(self):
        adj = edges_to_adjacency([(0, 1), (0, 2)], 3)
        np.testing.assert_allclose(degree_vector(adj), [2, 1, 1])
