import mpmath
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from splda.labeling import (
    KMEANS_MAX_ITER,
    _probabilities,
    _squared_distances,
    compute_prototypes,
    kmeans_clusters,
    match_clusters,
    pseudo_label,
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
        protos = compute_prototypes(x, [0, 1], 2)
        np.testing.assert_allclose(protos[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(protos[:, 1], [0.0, 1.0])

    def test_antipodal_cancellation_warns(self):
        x = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.warns(ZeroVectorWarning):
            protos = compute_prototypes(x, [0, 0, 1], 2)
        np.testing.assert_allclose(protos[:, 0], [0.0, 0.0])

    def test_matches_mean_then_normalize_oracle(self, rng):
        x = rng.normal(size=(6, 30))
        labels = rng.integers(0, 3, size=30)
        protos = compute_prototypes(x, labels, 3)
        for c in range(3):
            mean = x[:, labels == c].mean(axis=1)
            np.testing.assert_allclose(protos[:, c],
                                       mean / np.linalg.norm(mean), atol=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match=r"class\(es\) \[2\]"):
            compute_prototypes(np.ones((2, 3)), [0, 1, 1], 3)


class TestNcpProbabilities:
    """The table ``ncp`` reads: one row per target, one column per prototype."""

    def test_equidistant_gives_uniform(self):
        table = _probabilities(np.zeros((4, 2)), np.eye(4))
        np.testing.assert_allclose(table, 0.25, atol=1e-12)

    def test_sample_at_prototype_wins(self):
        z = np.eye(3)[:, [2]]
        assert np.argmax(_probabilities(z, np.eye(3))[0]) == 2

    def test_rows_sum_to_one_and_match_high_precision_oracle(self, rng):
        z = rng.normal(size=(5, 20))
        protos = rng.normal(size=(5, 4))
        table = _probabilities(z, protos)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)
        oracle = mp_softmax_rows(euclidean_rows(z, protos))
        np.testing.assert_allclose(table, oracle, atol=1e-10)

    def test_entries_strictly_inside_unit_interval(self, rng):
        table = _probabilities(rng.normal(size=(3, 50)), rng.normal(size=(3, 5)))
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
        dists = np.sqrt(_squared_distances(x, c))
        np.testing.assert_allclose(dists[apart], oracle[apart], rtol=1e-12)
        np.testing.assert_array_equal(np.argmin(dists, axis=1), np.argmin(oracle, axis=1))

    def test_nonnegative_at_coincident_columns(self):
        c = np.random.default_rng(2).normal(size=(5, 4)) * 1e3
        assert (_squared_distances(c, c) >= 0.0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            _squared_distances(np.ones((3, 2)), np.ones((4, 2)))


class TestKmeans:
    def test_samples_already_at_prototypes(self):
        protos = np.eye(3)
        x = np.eye(3)[:, [0, 0, 1, 2, 2]]
        centers, membership = kmeans_clusters(x, protos)
        np.testing.assert_allclose(centers, protos, atol=1e-12)
        assert membership.tolist() == [0, 0, 1, 2, 2]

    def test_sse_monotone_in_sweeps(self, rng):
        x = rng.normal(size=(4, 60))
        protos = rng.normal(size=(4, 5))

        def sse(centers, membership):
            return sum(((x[:, membership == c] - centers[:, [c]]) ** 2).sum()
                       for c in range(5))

        values = [sse(*kmeans_clusters(x, protos, max_iter=i)) for i in range(1, 7)]
        assert np.all(np.diff(values) <= 1e-9)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 30)) + np.array([[30.0], [0.0], [0.0]])
        b = rng.normal(size=(3, 30)) - np.array([[30.0], [0.0], [0.0]])
        x = np.hstack([a, b])
        protos = np.array([[25.0, -25.0], [0.0, 0.0], [0.0, 0.0]])
        _, membership = kmeans_clusters(x, protos)
        assert membership.tolist() == [0] * 30 + [1] * 30

    def test_empty_cluster_reseeded(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 20))
        # third center is absurdly far away and would stay empty
        protos = np.array([[0.0, 1.0, 500.0],
                           [0.0, 1.0, 500.0]])
        _, membership = kmeans_clusters(x, protos)
        counts = np.bincount(membership, minlength=3)
        assert (counts > 0).all()
        assert counts.sum() == 20

    def test_deterministic(self, rng):
        x = rng.normal(size=(3, 40))
        protos = rng.normal(size=(3, 4))
        first_centers, first_membership = kmeans_clusters(x, protos)
        second_centers, second_membership = kmeans_clusters(x, protos)
        np.testing.assert_array_equal(first_membership, second_membership)
        np.testing.assert_array_equal(first_centers, second_centers)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_mean_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = 6
        x = rng.normal(size=(8, 90)) + np.repeat(rng.normal(size=(8, k)) * 2.0, 15, axis=1)
        protos = rng.normal(size=(8, k))
        for max_iter in (1, 2, 100):
            got_centers, got_membership = kmeans_clusters(x, protos, max_iter=max_iter)
            centers, membership = reference_kmeans(x, protos, max_iter)
            np.testing.assert_array_equal(got_membership, membership)
            np.testing.assert_allclose(got_centers, centers, rtol=1e-12, atol=1e-14)

    def test_reseeded_cluster_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 20))
        protos = np.array([[0.0, 1.0, 500.0],
                           [0.0, 1.0, 500.0]])
        got_centers, got_membership = kmeans_clusters(x, protos)
        centers, membership = reference_kmeans(x, protos, 100)
        np.testing.assert_array_equal(got_membership, membership)
        np.testing.assert_allclose(got_centers, centers, rtol=1e-12, atol=1e-14)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_clusters(np.ones((2, 2)), np.ones((2, 3)))


class TestMatchClusters:
    def test_identity_when_aligned(self):
        np.testing.assert_allclose(match_clusters(np.eye(4), np.eye(4)), np.eye(4))

    def test_permutation_recovered(self):
        protos = np.eye(3)
        perm = [2, 0, 1]  # cluster i sits at prototype perm[i]
        centers = np.eye(3)[:, perm].astype(float)
        np.testing.assert_allclose(match_clusters(centers, protos), np.eye(3))

    def test_total_cost_is_brute_force_minimum(self, rng):
        centers = rng.normal(size=(4, 5))
        protos = rng.normal(size=(4, 5))
        cost = euclidean_rows(centers, protos)
        _, best = brute_force_assignment(cost)
        matched = match_clusters(centers, protos)
        achieved = 0.0
        for c in range(5):
            achieved += np.linalg.norm(matched[:, c] - protos[:, c])
        assert achieved == pytest.approx(best, abs=1e-10)

    def test_invariant_to_cluster_ordering(self, rng):
        centers = rng.normal(size=(3, 4))
        protos = rng.normal(size=(3, 4))
        shuffle = np.array([3, 0, 2, 1])
        np.testing.assert_allclose(match_clusters(centers, protos),
                                   match_clusters(centers[:, shuffle], protos))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            match_clusters(np.ones((2, 3)), np.ones((2, 4)))


def labeling_tables(z, protos):
    """The ncp table and the table of the matched k-means centers."""
    centers, _ = kmeans_clusters(z, protos)
    return {"ncp": _probabilities(z, protos),
            "sp": _probabilities(z, match_clusters(centers, protos))}


def clustered_targets(rng):
    z = rng.normal(size=(4, 40)) + np.repeat(rng.normal(size=(4, 5)) * 2.0, 8, axis=1)
    return z, rng.normal(size=(4, 5))


class TestSpProbabilities:
    """The table ``sp`` reads: the targets against the k-means centers run
    from the prototypes and matched to the classes."""

    def test_sample_at_center_wins(self):
        # k-means moves the centers from the prototypes onto the samples
        z, protos = np.eye(3)[:, [0, 1, 2, 1]], 0.9 * np.eye(3)
        table = labeling_tables(z, protos)["sp"]
        np.testing.assert_array_equal(np.argmax(table, axis=1), [0, 1, 2, 1])
        classes, _ = pseudo_label(z, protos, "sp")
        assert classes.tolist() == [0, 1, 2, 1]

    def test_equidistant_uniform(self):
        table = labeling_tables(np.zeros((5, 5)), np.eye(5))["sp"]
        np.testing.assert_allclose(table, 0.2, atol=1e-12)

    def test_rows_sum_to_one_vs_oracle(self, rng):
        z, protos = clustered_targets(rng)
        centers, _ = reference_kmeans(z, protos, KMEANS_MAX_ITER)
        order, _ = brute_force_assignment(cdist(centers.T, protos.T))
        matched = np.empty_like(centers)
        matched[:, order] = centers
        table = labeling_tables(z, protos)["sp"]
        np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)
        oracle = mp_softmax_rows(euclidean_rows(z, matched))
        np.testing.assert_allclose(table, oracle, atol=1e-10)
        _, confidences = pseudo_label(z, protos, "sp")
        np.testing.assert_allclose(confidences, oracle.max(axis=1), atol=1e-10)


class TestFuseAndLabel:
    """The fusion rule of :func:`pseudo_label`, on the same targets and
    prototypes in every mode."""

    # on a line, prototypes at -1 and 1 and k-means centers at 0 and 2: the
    # sample at 0.5 is 0.5 from prototype 1 and from center 0, so the two
    # tables give it the same winning probability for different classes
    LINE = np.array([[-0.5, 0.5, 1.5, 2.5]]), np.array([[-1.0, 1.0]])

    def test_elementwise_max_example(self):
        z, protos = self.LINE
        np.testing.assert_array_equal(labeling_tables(z, protos)["sp"],
                                      _probabilities(z, np.array([[0.0, 2.0]])))
        classes, confidences = pseudo_label(z, protos, "fused")
        near, far = 1 / (1 + np.exp(-1.0)), 1 / (1 + np.exp(-2.0))
        assert classes.tolist() == [0, 0, 1, 1]
        np.testing.assert_allclose(confidences, [far, near, far, far], rtol=1e-15)

    def test_identical_tables_match_single_modes(self):
        # samples on the prototypes: k-means keeps them as its centers
        z, protos = np.eye(3)[:, [0, 0, 1, 2, 2]], np.eye(3)
        fused = pseudo_label(z, protos, "fused")
        for mode in ("ncp", "sp"):
            single = pseudo_label(z, protos, mode)
            np.testing.assert_array_equal(fused[0], single[0])
            np.testing.assert_array_equal(fused[1], single[1])

    def test_fused_argmax_equals_concatenated_argmax(self, rng):
        z, protos = clustered_targets(rng)
        tables = labeling_tables(z, protos)
        classes, confidences = pseudo_label(z, protos, "fused")
        stacked = np.hstack([tables["ncp"], tables["sp"]])
        np.testing.assert_array_equal(classes, np.argmax(stacked, axis=1) % 5)
        np.testing.assert_array_equal(confidences, stacked.max(axis=1))

    def test_fused_confidence_dominates_both_modes(self, rng):
        z, protos = clustered_targets(rng)
        _, fused = pseudo_label(z, protos, "fused")
        assert np.all(fused >= pseudo_label(z, protos, "ncp")[1])
        assert np.all(fused >= pseudo_label(z, protos, "sp")[1])

    def test_tie_goes_to_smaller_class(self):
        # targets equidistant from every prototype and center: uniform tables
        for mode in ("ncp", "sp", "fused"):
            classes, _ = pseudo_label(np.zeros((4, 4)), np.eye(4), mode)
            assert classes.tolist() == [0, 0, 0, 0]
        # a tie made by the fusion: ncp says class 1 and sp class 0, equally sure
        z, protos = self.LINE
        ncp = pseudo_label(z, protos, "ncp")
        fused = pseudo_label(z, protos, "fused")
        assert ncp[0][1] == 1 and fused[0][1] == 0
        assert ncp[1][1] == fused[1][1]


class TestPseudoLabel:
    @pytest.mark.parametrize("mode, read", [("ncp", ["ncp"]), ("sp", ["sp"]),
                                            ("fused", ["ncp", "sp"])])
    def test_labels_from_the_tables_the_mode_reads(self, rng, mode, read):
        z, protos = clustered_targets(rng)
        tables = labeling_tables(z, protos)
        table = np.maximum.reduce([tables[name] for name in read])
        classes, confidences = pseudo_label(z, protos, mode)
        np.testing.assert_array_equal(classes, np.argmax(table, axis=1))
        np.testing.assert_array_equal(confidences, table.max(axis=1))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="labeling mode"):
            pseudo_label(np.eye(2), np.eye(2), "vote")
