import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from splda import subspace
from splda.preprocess import RankTruncationWarning, ZeroVectorWarning, l2_normalize_columns
from splda.subspace import _pencil, embed, slpp_fit

from conftest import reference_pencil


def build_graph(labels):
    """Dense label-equality graph: the reference the closed-form pencil must match.

    Returns the m x m adjacency (1 iff labels match), the degree vector and
    the Laplacian ``diag(degree) - adjacency``.
    """
    labels = np.asarray(labels, dtype=int)
    adjacency = (labels[:, None] == labels[None, :]).astype(float)
    degree = adjacency.sum(axis=1)
    return adjacency, degree, np.diag(degree) - adjacency


def as_parts(data, labels, n_source, rng):
    """``data``'s first ``n_source`` columns as the source, the rest as target columns.

    Returns ``(source, labels, target, chosen, target_labels)``: the rest
    sit at shuffled ``chosen`` positions of a target with 5 more random
    columns, so the labeled columns are ``data``'s in order.
    """
    rest = data.shape[1] - n_source
    target = rng.normal(size=(data.shape[0], rest + 5))
    chosen = rng.permutation(rest + 5)[:rest]
    target[:, chosen] = data[:, n_source:]
    return data[:, :n_source], labels[:n_source], target, chosen, labels[n_source:]


def pencil_matrices(data, labels):
    _, degree, laplacian = build_graph(labels)
    a = (data * degree) @ data.T
    b = data @ laplacian @ data.T + np.eye(data.shape[0])
    return 0.5 * (a + a.T), 0.5 * (b + b.T)


class TestBuildGraph:
    def test_three_labels(self):
        adjacency, degree, _ = build_graph([0, 0, 1])
        np.testing.assert_array_equal(adjacency, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(degree, [2, 2, 1])

    def test_all_equal_labels(self):
        n = 5
        adjacency, _, laplacian = build_graph(np.zeros(n, dtype=int))
        np.testing.assert_array_equal(adjacency, np.ones((n, n)))
        np.testing.assert_array_equal(laplacian, n * np.eye(n) - np.ones((n, n)))

    def test_laplacian_rows_sum_to_zero(self, rng):
        labels = rng.integers(0, 4, size=30)
        _, _, laplacian = build_graph(labels)
        np.testing.assert_allclose(laplacian @ np.ones(30), 0.0, atol=1e-12)


class TestSlppFit:
    def test_closed_form_pencil_matches_dense_graph(self, rng):
        for trial in range(5):
            data = rng.normal(size=(9, 60))
            # sparse and negative ids, including singleton classes
            labels = rng.choice([-40, -3, 0, 2, 17, 10**6], size=60)
            labels[:2] = [-99, 123]
            for ours, oracle in zip(_pencil(*as_parts(data, labels, 15 * trial, rng)),
                                    pencil_matrices(data, labels)):
                err = np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)
                assert err <= 1e-12, (trial, err)

    @pytest.mark.parametrize("n_source", [0, 300, 700])
    def test_pencil_from_parts_matches_one_product_oracle(self, rng, n_source):
        # 700 labeled columns take several 256-column blocks, one of them
        # straddling the source/target boundary
        data = rng.normal(size=(40, 700))
        labels = rng.integers(0, 12, size=700)
        for ours, oracle in zip(_pencil(*as_parts(data, labels, n_source, rng)),
                                reference_pencil(data, labels)):
            np.testing.assert_array_equal(ours, ours.T)
            err = np.linalg.norm(ours - oracle) / np.linalg.norm(oracle)
            assert err <= 1e-12, err

    def test_parts_fit_spans_the_stacked_fit(self, rng):
        data = rng.normal(size=(8, 90))
        labels = rng.integers(0, 4, size=90)
        source, ys, target, chosen, yt = as_parts(data, labels, 50, rng)
        parts = slpp_fit(source, ys, 3, target=target, chosen=chosen, target_labels=yt)
        stacked = slpp_fit(data, labels, 3)
        assert subspace_angles(parts, stacked).max() <= 1e-6
        m = data.mean(axis=1)
        np.testing.assert_allclose(parts.T @ m, stacked.T @ m, atol=1e-12)

    def test_traced_peak_holds_no_labeled_copy(self):
        # d1=512 and m=2000 labeled columns (1000 source, 1000 of 1500
        # targets): the peak stays below the two order-512 pencil matrices
        # plus one 512 x 2000 copy, which a stacked or scaled copy of the
        # labeled columns would already exceed
        rng = np.random.default_rng(8)
        d, ns, nt, chosen_count = 512, 1000, 1500, 1000
        source = rng.normal(size=(d, ns))
        target = rng.normal(size=(d, nt))
        labels = rng.integers(0, 31, size=ns)
        chosen = np.sort(rng.permutation(nt)[:chosen_count])
        target_labels = rng.integers(0, 31, size=chosen_count)
        bound = 2 * d * d * 8 + d * (ns + chosen_count) * 8
        tracemalloc.start()
        try:
            # the inputs were allocated before tracing began
            slpp_fit(source, labels, 128, target=target, chosen=chosen,
                     target_labels=target_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_depends_only_on_label_equality(self, rng):
        data = rng.normal(size=(6, 24))
        labels = rng.integers(0, 3, size=24)
        projection = slpp_fit(data, labels, 3)
        shifted = slpp_fit(data, labels + 7, 3)
        np.testing.assert_array_equal(projection, shifted)

    def test_two_classes_on_a_line(self):
        rng = np.random.default_rng(5)
        n = 40
        # class 0 near -4, class 1 near +4 along the first axis
        base = np.concatenate([rng.normal(-4, 0.3, n), rng.normal(4, 0.3, n)])
        data = np.vstack([base, rng.normal(0, 0.3, 2 * n)])
        labels = np.array([0] * n + [1] * n)
        projection = slpp_fit(data, labels, 1)
        projected = (projection.T @ data).ravel()
        m0, m1 = projected[:n].mean(), projected[n:].mean()
        spread = max(projected[:n].std(), projected[n:].std())
        assert abs(m0 - m1) >= spread

    def test_uniform_labels_residual_contract(self, rng):
        data = rng.normal(size=(6, 20))
        labels = np.zeros(20, dtype=int)
        projection = slpp_fit(data, labels, 3)
        a, b = pencil_matrices(data, labels)
        bound = 1e-8 * (np.linalg.norm(a, "fro") + np.linalg.norm(b, "fro"))
        for j in range(3):
            p = projection[:, j]
            lam = (p @ a @ p) / (p @ b @ p)
            assert np.linalg.norm(a @ p - lam * (b @ p)) <= bound

    def test_beats_random_projections(self, rng):
        data = rng.normal(size=(8, 60))
        labels = rng.integers(0, 3, size=60)
        data += 3.0 * np.eye(8)[:, labels % 8]
        projection = slpp_fit(data, labels, 2)
        a, b = pencil_matrices(data, labels)

        def quotient(p):
            return np.trace(p.T @ a @ p) / np.trace(p.T @ b @ p)

        ours = quotient(projection)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.normal(size=(8, 2)))
            assert ours >= quotient(q) - 1e-12

    def test_residual_contract_random_labels(self, rng):
        data = rng.normal(size=(7, 35))
        labels = rng.integers(0, 4, size=35)
        projection = slpp_fit(data, labels, 5)
        a, b = pencil_matrices(data, labels)
        bound = 1e-8 * (np.linalg.norm(a, "fro") + np.linalg.norm(b, "fro"))
        for j in range(projection.shape[1]):
            p = projection[:, j]
            lam = (p @ a @ p) / (p @ b @ p)
            assert np.linalg.norm(a @ p - lam * (b @ p)) <= bound

    def test_column_permutation_gives_same_subspace(self, rng):
        data = rng.normal(size=(6, 30))
        labels = rng.integers(0, 3, size=30)
        perm = rng.permutation(30)
        angles = subspace_angles(slpp_fit(data, labels, 3),
                                 slpp_fit(data[:, perm], labels[perm], 3))
        assert angles.max() <= 1e-6

    def test_rejects_too_many_components(self, rng):
        data = rng.normal(size=(4, 10))
        with pytest.raises(ValueError, match="n_components"):
            slpp_fit(data, np.zeros(10, dtype=int), 5)

    @pytest.mark.parametrize("n_chosen", [0, 2])
    def test_drops_the_zero_eigenspace_with_a_warning(self, rng, n_chosen):
        # 5 labeled columns in 8 dimensions leave 3 directions that no labeled
        # column reaches; their eigenvalue is 0 and any basis of them would do
        data = rng.normal(size=(8, 5))
        labels = np.array([0, 0, 1, 1, 2])
        parts = as_parts(data, labels, 5 - n_chosen, rng)
        source, source_labels, target, chosen, target_labels = parts
        with pytest.warns(RankTruncationWarning,
                          match="requested 7 SLPP components but the labeled "
                                "columns have rank 5; truncating"):
            projection = slpp_fit(source, source_labels, 7, target=target, chosen=chosen,
                                  target_labels=target_labels)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full_rank = slpp_fit(source, source_labels, 5, target=target, chosen=chosen,
                                 target_labels=target_labels)
        assert projection.shape == (8, 5)
        np.testing.assert_allclose(projection, full_rank, atol=1e-10)

    def test_rejects_all_zero_labeled_columns(self):
        with pytest.raises(ValueError, match="labeled columns are all zero"):
            slpp_fit(np.zeros((4, 6)), np.array([0, 0, 1, 1, 2, 2]), 2)

    def test_rejects_label_misalignment(self, rng):
        data = rng.normal(size=(4, 10))
        with pytest.raises(ValueError, match="align"):
            slpp_fit(data, np.zeros(9, dtype=int), 2)

    @pytest.mark.parametrize("target, chosen, target_labels, message", [
        (np.ones((3, 5)), [0], [1], "target must be a 2-D matrix with 4 rows"),
        (np.ones((4, 5)), [5], [1], "chosen must be a vector of indices into the 5"),
        (np.ones((4, 5)), [-1], [1], "chosen must be a vector of indices into the 5"),
        (None, [0], [1], "chosen must be a vector of indices into the 0"),
        (np.ones((4, 5)), [0, 1], [1], "target_labels must align with the 2 chosen"),
    ])
    def test_rejects_bad_target_parts(self, rng, target, chosen, target_labels, message):
        data = rng.normal(size=(4, 10))
        with pytest.raises(ValueError, match=message):
            slpp_fit(data, np.zeros(10, dtype=int), 2, target=target, chosen=chosen,
                     target_labels=target_labels)


class TestEmbed:
    def test_zero_projection_passthrough(self):
        with pytest.warns(ZeroVectorWarning):
            out = embed(np.eye(2), np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_output_columns_unit_norm(self, rng):
        data = rng.normal(size=(5, 30))
        projection = slpp_fit(data, rng.integers(0, 3, size=30), 3)
        out = embed(projection, rng.normal(size=(5, 15)), data.mean(axis=1))
        np.testing.assert_allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)

    def test_pre_normalization_mean_is_zero(self, rng, monkeypatch):
        data = rng.normal(size=(6, 25))
        labels = rng.integers(0, 3, size=25)
        projection = slpp_fit(data, labels, 4)
        monkeypatch.setattr(subspace, "l2_normalize_columns", lambda x: x)
        centered = embed(projection, data, data.mean(axis=1))
        assert np.linalg.norm(centered.mean(axis=1)) <= 1e-10

    def test_embedding_mean_uses_all_data(self, rng):
        # fitted on 12 labeled columns, centred on the mean of all 40
        labeled = rng.normal(size=(5, 12))
        labels = rng.integers(0, 2, size=12)
        everything = rng.normal(size=(5, 40))
        projection = slpp_fit(labeled, labels, 2)
        projected = projection.T @ everything
        expected = l2_normalize_columns(projected - projected.mean(axis=1)[:, None])
        np.testing.assert_allclose(embed(projection, everything, everything.mean(axis=1)),
                                   expected)

    def test_dimension_mismatch(self, rng):
        data = rng.normal(size=(5, 20))
        projection = slpp_fit(data, rng.integers(0, 2, size=20), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            embed(projection, np.ones((4, 3)), np.zeros(5))

    def test_rejects_mean_of_wrong_length(self, rng):
        data = rng.normal(size=(4, 10))
        projection = slpp_fit(data, rng.integers(0, 2, size=10), 2)
        with pytest.raises(ValueError, match="length-4"):
            embed(projection, data, np.zeros(3))

    def test_matches_manual_pipeline(self, rng):
        data = rng.normal(size=(5, 18))
        projection = slpp_fit(data, rng.integers(0, 2, size=18), 2)
        probe = rng.normal(size=(5, 6))
        mean = rng.normal(size=5)
        manual = l2_normalize_columns(projection.T @ probe - (projection.T @ mean)[:, None])
        np.testing.assert_allclose(embed(projection, probe, mean), manual)
