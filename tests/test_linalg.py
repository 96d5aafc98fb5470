import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from splda import linalg
from splda.linalg import NumericalError, gen_eig_in_place, solve_assignment, sym_eig_of_sum

from conftest import (
    brute_force_assignment,
    random_spd,
    reference_canonical_signs,
    reference_lex_min_matching,
    reference_sym_eig,
)


def charpoly_coeffs(a):
    """Faddeev-LeVerrier recursion; no eigendecomposition involved."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def lex_min_on_admissible_graph(cost):
    """``reference_lex_min_matching`` on every zero-reduced-cost edge."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    row_to_col, u, v = linalg._hungarian(cost)
    tol = 1e-9 * (1.0 + float(np.abs(cost).max()))
    admissible = (cost - u[:, None] - v[None, :]) <= tol
    admissible[np.arange(n), row_to_col] = True
    return reference_lex_min_matching(admissible)


def total_cost(cost, assignment):
    cost = np.asarray(cost)
    return float(cost[np.arange(assignment.size), assignment].sum())


def spd_sum(rng, n):
    """``random_spd(rng, n)`` and blocks whose :func:`linalg.symmetric_sum` it is."""
    g = rng.normal(size=(n, n))
    return [g, np.sqrt(n) * np.eye(n)], g @ g.T + n * np.eye(n)


def spy_drivers(monkeypatch):
    """Record the ``driver`` of every ``scipy.linalg.eigh`` call."""
    drivers = []
    real_eigh = scipy.linalg.eigh

    def spy(*args, **kwargs):
        drivers.append(kwargs.get("driver"))
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    return drivers


def junk_above_diagonal(m, rng):
    """A copy of ``m`` with finite junk in its strict upper triangle."""
    upper = np.triu_indices(m.shape[0], 1)
    junk = m.copy()
    junk[upper] = rng.normal(scale=1e3, size=upper[0].size)
    return junk


class TestSymmetricSum:
    @pytest.mark.parametrize("rows", [False, True])
    def test_matches_products_in_the_lower_triangle(self, rng, rows):
        blocks = [rng.normal(size=(7, 300) if rows else (300, 7)) for _ in range(3)]
        start = random_spd(rng, 300)
        total = linalg.symmetric_sum(iter(blocks), start.copy(), rows=rows, alpha=-0.5)
        expected = start - 0.5 * sum((b.T @ b) if rows else (b @ b.T) for b in blocks)
        np.testing.assert_allclose(np.tril(total), np.tril(expected), rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
        np.testing.assert_array_equal(np.triu(total, 1), np.triu(start, 1))


class TestSymEig:
    def test_identity(self):
        values, vectors = sym_eig_of_sum([np.eye(3)], 3, 3)
        np.testing.assert_allclose(values, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        values, vectors = sym_eig_of_sum([np.diag(np.sqrt([5.0, 2.0, 1.0]))], 3, 2)
        np.testing.assert_allclose(values, [5.0, 2.0], atol=1e-12)
        # axis-aligned, canonical sign makes them exactly e1 and e2
        np.testing.assert_allclose(vectors[:, 0], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1], [0.0, 1.0, 0.0], atol=1e-12)

    def test_matches_charpoly_roots(self):
        # frozen from the Faddeev-LeVerrier + np.roots oracle at seed 42
        expected = [1.748871965448, 1.639225489564, 0.737154218754,
                    0.522341819855, -0.846690346121, -2.484143957925]
        g = np.random.default_rng(42).normal(size=(6, 6))
        sym = 0.5 * (g + g.T)
        oracle = np.sort(np.roots(charpoly_coeffs(sym)).real)[::-1]
        np.testing.assert_allclose(oracle, expected, atol=1e-9)
        # indefinite, so posed as the pencil with b = I
        values, vectors = gen_eig_in_place(sym.copy(), np.eye(6), 6)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_residual_bound_up_to_order_64(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 16, 33, 64):
            blocks, m = spd_sum(rng, n)
            values, vectors = sym_eig_of_sum(blocks, n, n)
            bound = 1e-8 * np.linalg.norm(m, "fro")
            for j in range(n):
                res = m @ vectors[:, j] - values[j] * vectors[:, j]
                assert np.linalg.norm(res) <= bound

    def test_vectors_unit_norm_and_descending(self, rng):
        values, vectors = sym_eig_of_sum(spd_sum(rng, 10)[0], 10, 7)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=0), 1.0,
                                   atol=1e-12)
        assert np.all(np.diff(values) <= 1e-12)
        assert vectors.flags.f_contiguous

    def test_sign_canonicalization(self, rng):
        values, vectors = sym_eig_of_sum(spd_sum(rng, 8)[0], 8, 8)
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(8)] > 0)

    @pytest.mark.parametrize("n, k", [(5, 5), (64, 20), (300, 300)])
    def test_matches_evd_reference_on_separated_spectra(self, rng, n, k):
        # eigenvalues one apart, negatives included, in random order
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        m = (q * rng.permutation(np.arange(n) - n / 2)) @ q.T
        m = 0.5 * (m + m.T)
        values, vectors = gen_eig_in_place(m.copy(), np.eye(n), k)
        ref_values, ref_vectors = reference_sym_eig(m, k)
        assert np.abs(values - ref_values).max() <= 1e-10 * np.abs(ref_values).max()
        # unit columns, so the entrywise error is relative to their norm
        assert np.abs(vectors - ref_vectors).max() <= 1e-10

    def test_sign_tie_goes_to_the_first_row(self):
        # each column's largest magnitude appears with both signs, rows far
        # apart or close, with the negative or the positive entry first
        vectors = np.zeros((600, 3))
        vectors[[3, 7], 0] = [-0.5, 0.5]
        vectors[[10, 400], 1] = [-0.5, 0.5]
        vectors[[300, 500], 2] = [0.5, -0.5]
        expected = reference_canonical_signs(vectors)
        signed = linalg._canonical_signs(vectors.copy())
        np.testing.assert_array_equal(signed, expected)
        assert signed[3, 0] == signed[10, 1] == signed[300, 2] == 0.5

    def test_rejects_non_finite(self):
        block = np.eye(3)
        block[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig_of_sum([block], 3, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            sym_eig_of_sum([np.eye(3)], 3, 4)

    def test_sum_entry_reads_only_the_lower_triangle(self, rng, monkeypatch):
        blocks = [rng.normal(size=(300, 350))]
        values, vectors = sym_eig_of_sum(blocks, 300, 40)
        real_sum = linalg.symmetric_sum

        def junk_sum(*args, **kwargs):
            return junk_above_diagonal(real_sum(*args, **kwargs), rng)

        monkeypatch.setattr(linalg, "symmetric_sum", junk_sum)
        junk_values, junk_vectors = sym_eig_of_sum(blocks, 300, 40)
        np.testing.assert_array_equal(junk_values, values)
        np.testing.assert_array_equal(junk_vectors, vectors)


class TestGenEig:
    def test_identity_pencil(self):
        values, vectors = gen_eig_in_place(np.eye(4), np.eye(4), 4)
        np.testing.assert_allclose(values, np.ones(4), atol=1e-12)

    def test_diagonal_ratio(self):
        values, vectors = gen_eig_in_place(np.diag([4.0, 1.0]), np.diag([2.0, 1.0]), 2)
        np.testing.assert_allclose(values, [2.0, 1.0], atol=1e-12)

    def test_matches_explicit_inverse_oracle(self):
        # frozen from the eig(inv(b) @ a) oracle at seed 11
        expected = [2.033161253523, 1.404104185291, 1.092328074463,
                    0.731978223221, 0.583772870045]
        rng = np.random.default_rng(11)
        a = random_spd(rng, 5, shift=5)
        b = random_spd(rng, 5, shift=5)
        oracle = np.sort(np.linalg.eig(np.linalg.inv(b) @ a)[0].real)[::-1]
        np.testing.assert_allclose(oracle, expected, atol=1e-9)
        values, vectors = gen_eig_in_place(a.copy(), b.copy(), 5)
        np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_residual_bound_up_to_order_64(self):
        rng = np.random.default_rng(2)
        for n in (2, 7, 24, 64):
            a = random_spd(rng, n)
            b = random_spd(rng, n)
            values, vectors = gen_eig_in_place(a.copy(), b.copy(), n)
            bound = 1e-8 * (np.linalg.norm(a, "fro") + np.linalg.norm(b, "fro"))
            for j in range(n):
                p = vectors[:, j]
                assert np.linalg.norm(a @ p - values[j] * (b @ p)) <= bound

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("extra, driver", [(0, "gvx"), (1, None)])
    def test_top_k_matches_full_spectrum_oracle(self, n, extra, driver, monkeypatch):
        # k = n // 8 is the largest k solved by the top-k driver; one more
        # takes the full spectrum
        k = n // 8 + extra
        rng = np.random.default_rng(n + extra)
        a = random_spd(rng, n)
        b = random_spd(rng, n)
        all_values, all_vectors = scipy.linalg.eigh(a, b)
        oracle_values = all_values[::-1][:k]
        oracle = all_vectors[:, ::-1][:, :k]
        oracle /= np.linalg.norm(oracle, axis=0)
        drivers = spy_drivers(monkeypatch)
        values, vectors = gen_eig_in_place(a.copy(), b.copy(), k)
        assert drivers == [driver]
        np.testing.assert_allclose(values, oracle_values, rtol=0, atol=1e-8)
        signs = np.sign(np.sum(vectors * oracle, axis=0))
        np.testing.assert_allclose(vectors, oracle * signs, rtol=0, atol=1e-8)
        lead = np.argmax(np.abs(vectors), axis=0)
        assert np.all(vectors[lead, np.arange(k)] > 0)
        bound = 1e-8 * (np.linalg.norm(a, "fro") + np.linalg.norm(b, "fro"))
        for j in range(k):
            p = vectors[:, j]
            assert np.linalg.norm(a @ p - values[j] * (b @ p)) <= bound

    def test_identity_b_agrees_with_sym_eig(self, rng):
        # the pencil entry with b = I and the sum entry solve one matrix
        blocks, a = spd_sum(rng, 9)
        np.testing.assert_allclose(gen_eig_in_place(a, np.eye(9), 5)[0],
                                   sym_eig_of_sum(blocks, 9, 5)[0], atol=1e-8)

    def test_indefinite_b_names_pivot(self):
        b = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NumericalError, match="pivot 2"):
            gen_eig_in_place(np.eye(3), b, 1)

    def test_indefinite_b_names_pivot_on_top_k_path(self):
        b = np.eye(16)
        b[4, 4] = -1.0
        with pytest.raises(NumericalError, match="pivot 5"):
            gen_eig_in_place(np.eye(16), b, 1)

    def test_indefinite_b_names_pivot_on_full_spectrum_path(self, monkeypatch):
        drivers = spy_drivers(monkeypatch)
        b = np.eye(16)
        b[4, 4] = -1.0
        with pytest.raises(NumericalError, match="pivot 5"):
            gen_eig_in_place(np.eye(16), b, 16)
        # no driver named: scipy's default for the full pencil, gvd
        assert drivers == [None]

    @pytest.mark.parametrize("k, driver", [(2, "gvx"), (16, None)])
    def test_in_place_entry_reads_only_the_lower_triangles(self, rng, monkeypatch, k,
                                                            driver):
        drivers = spy_drivers(monkeypatch)
        a = random_spd(rng, 16)
        b = random_spd(rng, 16)
        values, vectors = gen_eig_in_place(a.copy(), b.copy(), k)
        junk_values, junk_vectors = gen_eig_in_place(
            junk_above_diagonal(a, rng), junk_above_diagonal(b, rng), k)
        assert drivers == [driver, driver]
        np.testing.assert_array_equal(junk_values, values)
        np.testing.assert_array_equal(junk_vectors, vectors)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="order mismatch"):
            gen_eig_in_place(np.eye(3), np.eye(4), 1)

    def test_vector_buffer_is_freed_before_the_signs(self, rng, monkeypatch):
        # gvx writes the vectors to a buffer of their own; gvd writes them
        # over a, which the caller owns
        buffers, freed = [], []
        real_solve, real_sign = linalg._eigh_descending, linalg._canonical_signs

        def solve(*args, **kwargs):
            values, vectors = real_solve(*args, **kwargs)
            buffer = vectors
            while buffer.base is not None:
                buffer = buffer.base
            buffers.append(weakref.ref(buffer))
            return values, vectors

        def sign(vectors):
            freed.append(buffers.pop()() is None)
            return real_sign(vectors)

        monkeypatch.setattr(linalg, "_eigh_descending", solve)
        monkeypatch.setattr(linalg, "_canonical_signs", sign)
        gen_eig_in_place(random_spd(rng, 16), random_spd(rng, 16), 2)
        assert freed == [True]


@pytest.mark.parametrize("solve", [
    lambda: sym_eig_of_sum([], 0, 1),
    lambda: gen_eig_in_place(np.zeros((0, 0)), np.zeros((0, 0)), 1),
], ids=["sym_eig_of_sum", "gen_eig_in_place"])
def test_order_zero_names_k(solve):
    with pytest.raises(ValueError, match=r"k must be in 1\.\.0, got 1"):
        solve()


class TestSolveAssignment:
    def test_zero_diagonal(self):
        assignment = solve_assignment([[0.0, 9.0], [9.0, 0.0]])
        assert assignment.tolist() == [0, 1]
        assert total_cost([[0.0, 9.0], [9.0, 0.0]], assignment) == 0.0

    def test_zero_anti_diagonal(self):
        assignment = solve_assignment([[9.0, 0.0], [0.0, 9.0]])
        assert assignment.tolist() == [1, 0]

    def test_random_6x6_matches_brute_force(self):
        # frozen from the exhaustive-permutation oracle at seed 7
        expected = [3, 4, 1, 5, 0, 2]
        cost = np.random.default_rng(7).uniform(0, 10, size=(6, 6))
        oracle_perm, oracle_cost = brute_force_assignment(cost)
        assert oracle_perm.tolist() == expected
        assignment = solve_assignment(cost)
        assert assignment.tolist() == expected
        assert abs(total_cost(cost, assignment) - oracle_cost) < 1e-12

    @pytest.mark.parametrize("order", range(2, 9))
    def test_matches_brute_force_all_orders(self, order):
        rng = np.random.default_rng(100 + order)
        for _ in range(10):
            cost = rng.uniform(0, 1, size=(order, order))
            perm, best = brute_force_assignment(cost)
            assignment = solve_assignment(cost)
            assert assignment.tolist() == perm.tolist()
            assert abs(total_cost(cost, assignment) - best) < 1e-12

    def test_all_ties_pick_lexicographic_minimum(self):
        assignment = solve_assignment(np.zeros((4, 4)))
        assert assignment.tolist() == [0, 1, 2, 3]

    def test_partial_ties_pick_lexicographic_minimum(self):
        cost = np.array([[0.0, 0.0, 5.0],
                         [0.0, 0.0, 5.0],
                         [5.0, 5.0, 0.0]])
        perm, _ = brute_force_assignment(cost)
        assignment = solve_assignment(cost)
        assert assignment.tolist() == perm.tolist() == [0, 1, 2]

    def test_matching_matrix_is_permutation(self, rng):
        assignment = solve_assignment(rng.uniform(0, 1, size=(5, 5)))
        assert sorted(assignment.tolist()) == list(range(5))

    def test_single_entry(self):
        assert solve_assignment([[3.0]]).tolist() == [0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_assignment([[1.0, -0.5], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solve_assignment(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            solve_assignment([[np.inf, 1.0], [1.0, 0.0]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_property_optimal_cost(self, order, seed):
        cost = np.random.default_rng(seed).uniform(0, 5, size=(order, order))
        _, best = brute_force_assignment(cost)
        assert abs(total_cost(cost, solve_assignment(cost)) - best) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
    def test_property_ties_resolved_lexicographically(self, order, seed):
        # small integer costs force plenty of equal-cost optima
        cost = np.random.default_rng(seed).integers(0, 3, size=(order, order)).astype(float)
        perm, _ = brute_force_assignment(cost)
        assert solve_assignment(cost).tolist() == perm.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6),
           st.booleans())
    def test_property_equals_refinement_on_admissible_graph(self, order, seed, ties):
        rng = np.random.default_rng(seed)
        if ties:
            cost = rng.integers(0, 3, size=(order, order)).astype(float)
        else:
            cost = rng.uniform(0, 5, size=(order, order))
        assert (solve_assignment(cost).tolist()
                == lex_min_on_admissible_graph(cost).tolist())

    def test_all_zero_order_130_is_identity(self):
        assert solve_assignment(np.zeros((130, 130))).tolist() == list(range(130))

    def test_diagonal_and_cyclic_superdiagonal_order_130_is_identity(self):
        # two optima: the identity and the cyclic shift i -> i + 1 mod n
        n = 130
        cost = np.ones((n, n))
        cost[np.arange(n), np.arange(n)] = 0.0
        cost[np.arange(n), (np.arange(n) + 1) % n] = 0.0
        assert solve_assignment(cost).tolist() == list(range(n))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=10, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_property_01_costs_equal_reference_search(self, order, seed):
        cost = np.random.default_rng(seed).integers(0, 2, size=(order, order)).astype(float)
        assert (solve_assignment(cost).tolist()
                == lex_min_on_admissible_graph(cost).tolist())
