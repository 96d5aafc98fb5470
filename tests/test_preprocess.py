import tracemalloc

import numpy as np
import pytest

from splda import preprocess
from splda.dataio import gen_synthetic
from splda.preprocess import (
    RankTruncationWarning,
    ZeroVectorWarning,
    class_sums,
    l2_normalize_columns,
    pca_fit,
)

from conftest import (
    reference_pca_components,
    reference_pca_coordinates,
    watch_consumed_matrix,
)


def scatter_add_class_sums(x, ids, n_classes):
    """One np.add.at per column, the scatter-add definition."""
    sums = np.zeros((x.shape[0], n_classes))
    np.add.at(sums.T, ids, x.T)
    return sums


def explicit_scatter(x):
    """X H X^T with H materialized, the centering-matrix definition."""
    n = x.shape[1]
    h = np.eye(n) - np.ones((n, n)) / n
    return x @ h @ x.T


def top_scatter_eigenvalues(x, k):
    return np.sort(np.linalg.eigvalsh(explicit_scatter(x)))[::-1][:k]


def parts_of(x, cuts=None):
    """Read-only column blocks of ``x`` split at ``cuts`` (default: one third)."""
    cuts = [x.shape[1] // 3] if cuts is None else cuts
    parts = tuple(np.array(p) for p in np.split(x, cuts, axis=1))
    for p in parts:
        p.setflags(write=False)
    return parts


class TestPcaFit:
    def test_rank_one_line(self):
        direction = np.array([1.0, 2.0, -2.0]) / 3.0
        t = np.linspace(-2, 2, 9)
        x = np.outer(direction, t) + np.array([[5.0], [1.0], [0.0]])
        with pytest.warns(RankTruncationWarning):
            # rank is 1, so asking for 1 component is fine but probe 2
            coords2 = np.hstack(pca_fit(parts_of(x), 2))
        assert coords2.shape == (1, t.size)
        coords = np.hstack(pca_fit(parts_of(x), 1))
        along = direction @ (x - x.mean(axis=1, keepdims=True))
        sign = np.sign(coords[0] @ along)
        np.testing.assert_allclose(coords[0], sign * along, atol=1e-10)

    def test_scatter_equals_n_times_biased_covariance(self, rng):
        x = rng.normal(size=(6, 40))
        scatter = explicit_scatter(x)
        oracle = x.shape[1] * np.cov(x, bias=True)
        np.testing.assert_allclose(scatter, oracle, atol=1e-10)
        centered = x - x.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(centered @ centered.T, oracle, atol=1e-10)

    def test_projected_variance_matches_top_eigenvalues(self):
        # frozen from the reference dense eigensolve of the scatter at seed 3
        expected_top5_sum = 1348.3417156070
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 50)) * rng.uniform(0.5, 3.0, size=(10, 1))
        oracle = top_scatter_eigenvalues(x, 5).sum()
        assert oracle == pytest.approx(expected_top5_sum, abs=1e-6)
        coords = np.hstack(pca_fit(parts_of(x), 5))
        assert (coords * coords).sum() == pytest.approx(expected_top5_sum, rel=1e-10)

    def test_rows_orthogonal_with_eigenvalue_norms(self, rng):
        # (8, 30) takes the scatter route, (30, 8) the Gram route
        for shape in ((8, 30), (30, 8)):
            x = rng.normal(size=shape)
            values = top_scatter_eigenvalues(x, 6)
            coords = np.hstack(pca_fit(parts_of(x), 6))
            assert coords.shape == (6, shape[1])
            gram = coords @ coords.T
            assert np.abs(gram - np.diag(values)).max() <= 1e-10 * values[0]

    def test_projected_variance_monotone_in_dim(self, rng):
        x = rng.normal(size=(7, 25))
        variances = []
        for k in range(1, 8):
            coords = np.hstack(pca_fit(parts_of(x), k))
            variances.append((coords * coords).sum())
        assert np.all(np.diff(variances) >= -1e-9)

    def test_gram_path_matches_scatter_path(self, rng):
        # more dimensions than samples forces the n x n route; the oracle
        # projects on the eigenvectors of the explicit d x d scatter
        x = rng.normal(size=(40, 12))
        coords = np.hstack(pca_fit(parts_of(x), 4))
        _, vectors = np.linalg.eigh(explicit_scatter(x))
        oracle = vectors[:, ::-1][:, :4].T @ (x - x.mean(axis=1, keepdims=True))
        signs = np.sign((coords * oracle).sum(axis=1))
        np.testing.assert_allclose(coords, signs[:, None] * oracle, atol=1e-10)

    @pytest.mark.parametrize("shape", [(9, 30), (30, 9)], ids=["scatter", "gram"])
    def test_matches_reference_components_oracle(self, rng, shape):
        x = rng.normal(size=shape) + 2.0
        oracle = reference_pca_coordinates(x, 5)
        coords = np.hstack(pca_fit(parts_of(x), 5))
        assert np.abs(coords - oracle).max() <= 1e-10 * np.abs(oracle).max()

    @pytest.mark.parametrize("shape, cuts", [
        # scatter route: d and the part widths are not multiples of the block
        ((300, 700), (1,)), ((257, 600), (255, 256)), ((40, 513), (512,)),
        # Gram route: the row blocks cross d = 2 * block + 3 and a part is one column
        ((515, 300), (299,)), ((600, 257), (1, 129)),
        # one part holding every column
        ((300, 520), ()),
    ], ids=["scatter-one-column-source", "scatter-uneven", "scatter-one-column-target",
            "gram-one-column-target", "gram-uneven", "scatter-one-part"])
    def test_block_edges_match_reference_oracle(self, rng, shape, cuts):
        x = rng.normal(size=shape) * rng.uniform(0.5, 2.0, size=(shape[0], 1)) + 3.0
        oracle = reference_pca_coordinates(x, 7)
        coords = np.hstack(pca_fit(parts_of(x, cuts), 7))
        assert np.abs(coords - oracle).max() <= 1e-10 * np.abs(oracle).max()

    @pytest.mark.parametrize("block", [1, 7])
    def test_scatter_route_block_width_changes_no_bit(self, rng, monkeypatch, block):
        # small integers over 64 columns: the mean, the centred values and
        # every sum of their products are exact, so the scatter matrix has
        # the same bits in any summation order and only the columns that
        # column_blocks gathers can change them
        parts = parts_of(rng.integers(-9, 10, size=(12, 64)).astype(float), (23,))
        wide = pca_fit(parts, 5)
        monkeypatch.setattr(preprocess, "_BLOCK", block)
        for narrow, default in zip(pca_fit(parts, 5), wide, strict=True):
            np.testing.assert_array_equal(narrow, default)

    @pytest.mark.parametrize("cuts", [(), (7,), (3, 11)], ids=["1", "2", "3"])
    @pytest.mark.parametrize("shape", [(9, 20), (30, 20)], ids=["scatter", "gram"])
    def test_one_c_ordered_matrix_per_part(self, rng, shape, cuts):
        x = rng.normal(size=shape) + 2.0
        parts = parts_of(x, cuts)
        coords = pca_fit(parts, 5)
        assert len(coords) == len(parts)
        for c, part in zip(coords, parts):
            assert c.flags.c_contiguous and c.shape == (5, part.shape[1])
        oracle = reference_pca_coordinates(x, 5)
        assert np.abs(np.hstack(coords) - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_gram_rows_lead_with_a_positive_entry(self, rng):
        # the Gram route's sign rule, read off the returned rows
        coords = np.hstack(pca_fit(parts_of(rng.normal(size=(30, 9))), 5))
        lead = coords[np.arange(5), np.argmax(np.abs(coords), axis=1)]
        assert (lead > 0).all()

    def test_rejects_out_of_range_dim(self, rng):
        x = rng.normal(size=(5, 10))
        with pytest.raises(ValueError, match="n_components"):
            pca_fit(parts_of(x), 6)

    def test_rejects_mismatched_parts(self, rng):
        with pytest.raises(ValueError, match="same row count"):
            pca_fit((rng.normal(size=(5, 10)), rng.normal(size=(4, 10))), 2)

    def test_constant_data_rejected(self):
        x = np.ones((3, 8))
        with pytest.raises(ValueError, match="zero variance"):
            pca_fit(parts_of(x), 1)

    @pytest.mark.parametrize("shape", [(5, 20), (20, 5)], ids=["scatter", "gram"])
    def test_leaves_parts_unchanged(self, rng, shape):
        x = rng.normal(size=shape) + 3.0
        parts = tuple(np.array(p) for p in np.split(x, [shape[1] // 3], axis=1))
        before = [p.copy() for p in parts]
        pca_fit(parts, 3)
        for part, copy in zip(parts, before):
            np.testing.assert_array_equal(part, copy)
        # read-only parts are accepted as they are
        for part in parts:
            part.setflags(write=False)
        pca_fit(parts, 3)

    def test_reconstruction_residual_orthogonal(self, rng):
        # scatter route: the coordinates reconstruct the data along the
        # oracle's axes, leaving a residual orthogonal to them
        x = rng.normal(size=(9, 30))
        components = reference_pca_components(x, 4)
        coords = np.hstack(pca_fit(parts_of(x), 4))
        residual = x - x.mean(axis=1, keepdims=True) - components @ coords
        assert np.abs(components.T @ residual).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(12, 30), (30, 12)], ids=["scatter", "gram"])
    def test_summed_matrix_is_freed_before_the_vectors_are_copied_out(
            self, rng, monkeypatch, shape):
        freed = watch_consumed_matrix(monkeypatch)
        pca_fit(parts_of(rng.normal(size=shape)), 5)
        assert freed == [True]

    def test_scatter_route_peak_is_the_scatter_matrix_and_one_eigenvector_buffer(self):
        # d=400 < n=480: the peak stays below the d x d scatter matrix, one
        # d x d eigenvector buffer and one block of 256 columns. dsyevd's
        # 2 d^2 workspace, a copy of the scatter matrix, or the scatter matrix
        # kept beside the d x 300 leading eigenvectors would exceed it
        src, tgt = gen_synthetic(4, 60, 400, shift_magnitude=2.0, seed=28)
        d = src.dim
        bound = (2 * d + 256) * d * 8
        # pca_fit's first call imports scipy, which is no part of the fit
        import splda.linalg  # noqa: F401
        tracemalloc.start()
        try:
            # the raw features were allocated before tracing began
            pca_fit([src.features, tgt.features], 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize_columns(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, [[0.6], [0.8]])

    def test_unit_column_unchanged(self):
        # compared with a literal: the call scales x in place and returns it
        out = l2_normalize_columns(np.array([[0.0], [1.0]]))
        np.testing.assert_array_equal(out, [[0.0], [1.0]])

    def test_zero_column_passthrough_with_warning(self):
        x = np.array([[0.0, 3.0], [0.0, 4.0]])
        with pytest.warns(ZeroVectorWarning, match="1 zero-norm"):
            out = l2_normalize_columns(x)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.0])
        np.testing.assert_allclose(out[:, 1], [0.6, 0.8])

    def test_in_place_with_the_bits_of_dividing_by_the_norms(self, rng):
        x = rng.normal(size=(40, 70)) * rng.uniform(0.1, 10.0, size=(40, 1))
        x[:, 5] = 0.0
        with np.errstate(invalid="ignore"):
            expected = x / np.linalg.norm(x, axis=0)
        expected[:, 5] = 0.0
        with pytest.warns(ZeroVectorWarning, match="1 zero-norm"):
            out = l2_normalize_columns(x)
        assert out is x
        np.testing.assert_array_equal(out, expected)

    def test_forms_no_copy_of_the_matrix(self, rng):
        # a squared or a normalized copy of x would take x.nbytes
        x = rng.normal(size=(300, 400))
        tracemalloc.start()
        try:
            l2_normalize_columns(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 8, peak

    def test_rejects_a_read_only_matrix(self):
        x = np.array([[3.0], [4.0]])
        x.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            l2_normalize_columns(x)

    def test_all_nonzero_norms_tight(self, rng):
        out = l2_normalize_columns(rng.normal(size=(6, 50)))
        assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() <= 1e-12


class TestClassSums:
    def test_matches_scatter_add_oracle(self, rng):
        # ids out of order; class 2 has no columns, class 4 a single one
        ids = np.array([3, 0, 5, 1, 3, 0, 4, 5, 1, 3, 0, 1])
        x = rng.normal(size=(7, ids.size))
        oracle = scatter_add_class_sums(x, ids, 6)
        sums = class_sums(x, ids, 6)
        # summation order differs: relative to the summed magnitudes
        assert np.all(np.abs(sums - oracle)
                      <= 1e-12 * scatter_add_class_sums(np.abs(x), ids, 6))
        assert np.all(sums[:, 2] == 0.0)
        np.testing.assert_array_equal(sums[:, 4], x[:, 6])
