import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from splda.labeling import (
    ClusterSet,
    PrototypeSet,
    _distance_table,
    _squared_distances,
    compute_prototypes,
    fuse_and_label,
    kmeans_clusters,
    match_clusters,
    ncp_probabilities,
    sp_probabilities,
)
from splda.preprocess import ZeroVectorWarning

from conftest import brute_force_assignment, reference_kmeans


def mp_softmax_rows(dists):
    """exp(-d)/sum oracle at 50 significant digits."""
    with mpmath.workdps(50):
        out = np.empty(dists.shape)
        for i, row in enumerate(dists):
            exps = [mpmath.exp(-mpmath.mpf(float(d))) for d in row]
            total = mpmath.fsum(exps)
            out[i] = [float(e / total) for e in exps]
    return out


def euclidean_rows(points, centers):
    return np.sqrt(((points.T[:, None, :] - centers.T[None, :, :]) ** 2).sum(-1))


class TestComputePrototypes:
    def test_single_sample_per_class(self):
        x = np.array([[3.0, 0.0], [4.0, 2.0]])
        protos = compute_prototypes(x, [0, 1])
        np.testing.assert_allclose(protos.vectors[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(protos.vectors[:, 1], [0.0, 1.0])

    def test_antipodal_cancellation_warns(self):
        x = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.warns(ZeroVectorWarning):
            protos = compute_prototypes(x, [0, 0, 1])
        np.testing.assert_allclose(protos.vectors[:, 0], [0.0, 0.0])

    def test_matches_mean_then_normalize_oracle(self, rng):
        x = rng.normal(size=(6, 30))
        labels = rng.integers(0, 3, size=30)
        protos = compute_prototypes(x, labels, 3)
        for c in range(3):
            mean = x[:, labels == c].mean(axis=1)
            np.testing.assert_allclose(protos.vectors[:, c],
                                       mean / np.linalg.norm(mean), atol=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match=r"class\(es\) \[2\]"):
            compute_prototypes(np.ones((2, 3)), [0, 1, 1], 3)


class TestNcpProbabilities:
    def test_equidistant_gives_uniform(self):
        protos = PrototypeSet(vectors=np.eye(4))
        z = np.zeros((4, 2))
        table = ncp_probabilities(z, protos)
        np.testing.assert_allclose(table, 0.25, atol=1e-12)

    def test_sample_at_prototype_wins(self):
        protos = PrototypeSet(vectors=np.eye(3))
        z = np.eye(3)[:, [2]]
        assert np.argmax(ncp_probabilities(z, protos)[0]) == 2

    def test_rows_sum_to_one_and_match_high_precision_oracle(self, rng):
        z = rng.normal(size=(5, 20))
        protos = PrototypeSet(vectors=rng.normal(size=(5, 4)))
        table = ncp_probabilities(z, protos)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)
        oracle = mp_softmax_rows(euclidean_rows(z, protos.vectors))
        np.testing.assert_allclose(table, oracle, atol=1e-10)

    def test_entries_strictly_inside_unit_interval(self, rng):
        table = ncp_probabilities(rng.normal(size=(3, 50)),
                                  PrototypeSet(vectors=rng.normal(size=(3, 5))))
        assert table.min() > 0.0 and table.max() < 1.0


def distance_cases():
    """(points, centers) pairs: random, duplicated points, points on centers,
    and zero columns on either side."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(16, 300)) * 3.0
    c = rng.normal(size=(16, 12))
    yield x, c
    yield x[:, rng.integers(0, 300, size=300)], c
    on_centers = x.copy()
    on_centers[:, :36] = np.tile(c, 3)
    yield on_centers, c
    zeros = x.copy()
    zeros[:, ::7] = 0.0
    zero_centers = c.copy()
    zero_centers[:, 4] = 0.0
    yield zeros, zero_centers
    yield 1e-3 * x, 1e3 * c


class TestDistanceTable:
    @pytest.mark.parametrize("case", list(distance_cases()))
    def test_matches_cdist(self, case):
        x, c = case
        oracle = cdist(x.T, c.T)
        # rounding of the one-product form is relative to the norms involved
        scale = (x * x).sum(axis=0)[:, None] + (c * c).sum(axis=0)
        np.testing.assert_array_less(np.abs(_squared_distances(x, c) - oracle ** 2),
                                     1e-12 * scale + 1e-300)
        # away from coincident columns the distances agree to 1e-12 relative
        apart = oracle ** 2 > 1e-2 * scale
        np.testing.assert_allclose(_distance_table(x, c)[apart], oracle[apart], rtol=1e-12)
        np.testing.assert_array_equal(np.argmin(_distance_table(x, c), axis=1),
                                      np.argmin(oracle, axis=1))

    def test_nonnegative_at_coincident_columns(self):
        c = np.random.default_rng(2).normal(size=(5, 4)) * 1e3
        assert (_squared_distances(c, c) >= 0.0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            _distance_table(np.ones((3, 2)), np.ones((4, 2)))


class TestKmeans:
    def test_samples_already_at_prototypes(self):
        protos = PrototypeSet(vectors=np.eye(3))
        x = np.eye(3)[:, [0, 0, 1, 2, 2]]
        clusters = kmeans_clusters(x, protos)
        np.testing.assert_allclose(clusters.centers, protos.vectors, atol=1e-12)
        assert clusters.membership.tolist() == [0, 0, 1, 2, 2]

    def test_sse_monotone_in_sweeps(self, rng):
        x = rng.normal(size=(4, 60))
        protos = PrototypeSet(vectors=rng.normal(size=(4, 5)))

        def sse(cs):
            return sum(((x[:, cs.membership == c] - cs.centers[:, [c]]) ** 2).sum()
                       for c in range(5))

        values = [sse(kmeans_clusters(x, protos, max_iter=i)) for i in range(1, 7)]
        assert np.all(np.diff(values) <= 1e-9)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 30)) + np.array([[30.0], [0.0], [0.0]])
        b = rng.normal(size=(3, 30)) - np.array([[30.0], [0.0], [0.0]])
        x = np.hstack([a, b])
        protos = PrototypeSet(
            vectors=np.array([[25.0, -25.0], [0.0, 0.0], [0.0, 0.0]]))
        clusters = kmeans_clusters(x, protos)
        assert clusters.membership.tolist() == [0] * 30 + [1] * 30

    def test_empty_cluster_reseeded(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 20))
        # third center is absurdly far away and would stay empty
        protos = PrototypeSet(vectors=np.array([[0.0, 1.0, 500.0],
                                                [0.0, 1.0, 500.0]]))
        clusters = kmeans_clusters(x, protos)
        counts = np.bincount(clusters.membership, minlength=3)
        assert (counts > 0).all()
        assert counts.sum() == 20

    def test_deterministic(self, rng):
        x = rng.normal(size=(3, 40))
        protos = PrototypeSet(vectors=rng.normal(size=(3, 4)))
        first = kmeans_clusters(x, protos)
        second = kmeans_clusters(x, protos)
        np.testing.assert_array_equal(first.membership, second.membership)
        np.testing.assert_array_equal(first.centers, second.centers)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_mean_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = 6
        x = rng.normal(size=(8, 90)) + np.repeat(rng.normal(size=(8, k)) * 2.0, 15, axis=1)
        protos = PrototypeSet(vectors=rng.normal(size=(8, k)))
        for max_iter in (1, 2, 100):
            clusters = kmeans_clusters(x, protos, max_iter=max_iter)
            centers, membership = reference_kmeans(x, protos.vectors, max_iter)
            np.testing.assert_array_equal(clusters.membership, membership)
            np.testing.assert_allclose(clusters.centers, centers, rtol=1e-12, atol=1e-14)

    def test_reseeded_cluster_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 20))
        protos = PrototypeSet(vectors=np.array([[0.0, 1.0, 500.0],
                                                [0.0, 1.0, 500.0]]))
        clusters = kmeans_clusters(x, protos)
        centers, membership = reference_kmeans(x, protos.vectors, 100)
        np.testing.assert_array_equal(clusters.membership, membership)
        np.testing.assert_allclose(clusters.centers, centers, rtol=1e-12, atol=1e-14)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_clusters(np.ones((2, 2)), PrototypeSet(vectors=np.ones((2, 3))))


class TestMatchClusters:
    def test_identity_when_aligned(self, rng):
        protos = PrototypeSet(vectors=np.eye(4))
        clusters = ClusterSet(centers=np.eye(4), membership=np.array([0, 1, 2, 3]))
        matched = match_clusters(clusters, protos)
        np.testing.assert_allclose(matched.centers, np.eye(4))
        assert matched.membership.tolist() == [0, 1, 2, 3]

    def test_permutation_recovered(self):
        protos = PrototypeSet(vectors=np.eye(3))
        perm = [2, 0, 1]  # cluster i sits at prototype perm[i]
        centers = np.eye(3)[:, perm].astype(float)
        clusters = ClusterSet(centers=centers, membership=np.array([0, 1, 2, 0]))
        matched = match_clusters(clusters, protos)
        np.testing.assert_allclose(matched.centers, np.eye(3))
        assert matched.membership.tolist() == [2, 0, 1, 2]

    def test_total_cost_is_brute_force_minimum(self, rng):
        centers = rng.normal(size=(4, 5))
        protos = PrototypeSet(vectors=rng.normal(size=(4, 5)))
        cost = euclidean_rows(centers, protos.vectors)
        _, best = brute_force_assignment(cost)
        matched = match_clusters(
            ClusterSet(centers=centers, membership=np.zeros(10, dtype=int)), protos)
        achieved = 0.0
        for c in range(5):
            achieved += np.linalg.norm(matched.centers[:, c] - protos.vectors[:, c])
        assert achieved == pytest.approx(best, abs=1e-10)

    def test_invariant_to_cluster_ordering(self, rng):
        centers = rng.normal(size=(3, 4))
        protos = PrototypeSet(vectors=rng.normal(size=(3, 4)))
        membership = rng.integers(0, 4, size=12)
        matched = match_clusters(ClusterSet(centers=centers, membership=membership),
                                 protos)
        shuffle = np.array([3, 0, 2, 1])
        inverse = np.argsort(shuffle)
        reordered = ClusterSet(centers=centers[:, shuffle],
                               membership=inverse[membership])
        matched_again = match_clusters(reordered, protos)
        np.testing.assert_allclose(matched.centers, matched_again.centers)
        np.testing.assert_array_equal(matched.membership, matched_again.membership)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            match_clusters(ClusterSet(centers=np.ones((2, 3)),
                                      membership=np.zeros(3, dtype=int)),
                           PrototypeSet(vectors=np.ones((2, 4))))


class TestSpProbabilities:
    def test_sample_at_center_wins(self):
        matched = ClusterSet(centers=np.eye(3), membership=np.zeros(3, dtype=int))
        z = np.eye(3)[:, [1]]
        assert np.argmax(sp_probabilities(z, matched)[0]) == 1

    def test_equidistant_uniform(self):
        matched = ClusterSet(centers=np.eye(5), membership=np.zeros(5, dtype=int))
        table = sp_probabilities(np.zeros((5, 3)), matched)
        np.testing.assert_allclose(table, 0.2, atol=1e-12)

    def test_rows_sum_to_one_vs_oracle(self, rng):
        z = rng.normal(size=(4, 15))
        matched = ClusterSet(centers=rng.normal(size=(4, 3)),
                             membership=np.zeros(15, dtype=int))
        table = sp_probabilities(z, matched)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)
        oracle = mp_softmax_rows(euclidean_rows(z, matched.centers))
        np.testing.assert_allclose(table, oracle, atol=1e-10)


class TestFuseAndLabel:
    def test_elementwise_max_example(self):
        pl = fuse_and_label(np.array([[0.7, 0.3]]), np.array([[0.2, 0.8]]), "fused")
        assert pl.classes.tolist() == [1]
        assert pl.confidences.tolist() == [0.8]

    def test_identical_tables_match_single_modes(self, rng):
        p = rng.dirichlet(np.ones(4), size=10)
        fused = fuse_and_label(p, p, "fused")
        ncp = fuse_and_label(p, None, "ncp")
        sp = fuse_and_label(None, p, "sp")
        np.testing.assert_array_equal(fused.classes, ncp.classes)
        np.testing.assert_array_equal(fused.classes, sp.classes)
        np.testing.assert_array_equal(fused.confidences, ncp.confidences)

    def test_fused_argmax_equals_concatenated_argmax(self, rng):
        p1 = rng.dirichlet(np.ones(5), size=30)
        p2 = rng.dirichlet(np.ones(5), size=30)
        fused = fuse_and_label(p1, p2, "fused")
        stacked = np.hstack([p1, p2])
        expected = np.argmax(stacked, axis=1) % 5
        np.testing.assert_array_equal(fused.classes, expected)

    def test_fused_confidence_dominates_both_modes(self, rng):
        p1 = rng.dirichlet(np.ones(3), size=20)
        p2 = rng.dirichlet(np.ones(3), size=20)
        fused = fuse_and_label(p1, p2, "fused")
        assert np.all(fused.confidences >= fuse_and_label(p1, None, "ncp").confidences)
        assert np.all(fused.confidences >= fuse_and_label(None, p2, "sp").confidences)

    def test_tie_goes_to_smaller_class(self):
        pl = fuse_and_label(np.array([[0.5, 0.5]]), None, "ncp")
        assert pl.classes.tolist() == [0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="labeling mode"):
            fuse_and_label(np.ones((1, 2)), np.ones((1, 2)), "vote")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fuse_and_label(np.ones((2, 2)) / 2, np.ones((2, 3)) / 3, "fused")
