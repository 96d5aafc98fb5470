import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from splda import linalg, pipeline, preprocess, subspace
from splda.data import (ABLATION_GRID, LABELING_MODES, SELECTION_MODES, DomainDataset,
                        RunConfig)
from splda.dataio import _nearest, _nearest_by_blocks, evaluate, gen_synthetic
from splda.pipeline import nn_baseline, prepare, run, run_ablation, run_prepared
from splda.preprocess import ZeroVectorWarning, l2_normalize_columns
from splda.subspace import embed, slpp_fit

from conftest import NEAR_TIE, reference_pca_coordinates, reference_run


def easy_pair(seed=0, shift=0.0, separation=10.0):
    return gen_synthetic(4, 25, 12, shift_magnitude=shift, seed=seed,
                         separation=separation)


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def rank_deficient_pair():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(3, 30))
    lift = rng.normal(size=(10, 3))
    src = DomainDataset(lift @ base[:, :15] + 0.5,
                        labels=rng.integers(0, 2, size=15))
    tgt = DomainDataset(lift @ base[:, 15:] + 0.5, domain="target")
    return src, tgt


def easy_config(**kw):
    defaults = dict(pca_dim=12, subspace_dim=8, iterations=5)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestRun:
    def test_identical_domains_reach_full_accuracy(self):
        src, tgt = easy_pair(shift=0.0)
        result = run(src, tgt, easy_config())
        assert result.final_accuracy == 100.0

    def test_single_iteration_progressive_equals_all(self):
        src, tgt = easy_pair(seed=3, shift=3.0)
        prog = run(src, tgt, easy_config(iterations=1, selection="progressive"))
        every = run(src, tgt, easy_config(iterations=1, selection="all"))
        np.testing.assert_array_equal(prog.predictions, every.predictions)
        assert prog.snapshots[-1].selected_count == every.snapshots[-1].selected_count

    def test_none_selection_is_constant_across_iterations(self):
        src, tgt = easy_pair(seed=4, shift=3.0)
        result = run(src, tgt, easy_config(selection="none"))
        accs = {s.accuracy for s in result.snapshots}
        assert len(accs) == 1
        assert all(s.selected_count == 0 for s in result.snapshots)

    # 25 targets per class: at iteration 1 of 30 every class quota is 0, so
    # that iteration selects nothing and keeps the source-only fit
    @pytest.mark.parametrize("selection, iterations, fits", [
        ("none", 4, 1), ("all", 4, 5), ("progressive", 4, 5), ("progressive", 30, 30)],
        ids=["none", "all", "progressive", "progressive-empty-first"])
    def test_slpp_fit_count(self, monkeypatch, selection, iterations, fits):
        calls = count_calls(monkeypatch, pipeline, "slpp_fit")
        src, tgt = easy_pair(seed=4, shift=3.0)
        result = run(src, tgt, easy_config(iterations=iterations, selection=selection))
        assert len(calls) == fits
        empty = [s for s in result.snapshots[1:] if s.selected_count == 0]
        assert len(empty) == 1 + iterations - fits
        for s in empty:
            assert s == replace(result.snapshots[0], iteration=s.iteration)

    @pytest.mark.parametrize("n_chosen", [0, 30], ids=["nothing-chosen", "some-chosen"])
    def test_fit_is_bit_identical(self, n_chosen):
        # with nothing chosen, the premise of keeping the source-only labels
        # for an empty selection; with some, the determinism of every refit
        prepared = prepare(*easy_pair(seed=4, shift=3.0), 12)
        xs, xt = prepared.source, prepared.target
        mean = (xs.sum(axis=1) + xt.sum(axis=1)) / (xs.shape[1] + xt.shape[1])
        chosen = np.arange(0, xt.shape[1], 2)[:n_chosen]
        pseudo = chosen % prepared.n_classes
        first, second = (slpp_fit(xs, prepared.source_labels, 8, target=xt, chosen=chosen,
                                  target_labels=pseudo)
                         for _ in range(2))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(embed(first, xt, mean), embed(second, xt, mean))

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6),
                    min_size=4, max_size=4, unique=True))
    def test_predictions_follow_injective_relabeling(self, names):
        src, tgt = easy_pair(seed=16, shift=3.0)
        mapping = np.array(names)
        renamed_src = DomainDataset(src.features, labels=mapping[src.labels])
        renamed_tgt = DomainDataset(tgt.features, eval_labels=mapping[tgt.eval_labels],
                                    domain="target")
        base = run(src, tgt, easy_config())
        renamed = run(renamed_src, renamed_tgt, easy_config())
        np.testing.assert_array_equal(renamed.predictions, mapping[base.predictions])
        assert renamed.to_dict()["predictions"] == mapping[base.predictions].tolist()
        assert ([s.accuracy for s in renamed.snapshots]
                == [s.accuracy for s in base.snapshots])

    def test_snapshot_layout(self):
        src, tgt = easy_pair(seed=5, shift=2.0)
        result = run(src, tgt, easy_config(iterations=7))
        assert len(result.snapshots) == 8
        assert [s.iteration for s in result.snapshots] == list(range(8))

    def test_final_iteration_selects_all_targets(self):
        src, tgt = easy_pair(seed=6, shift=2.0)
        result = run(src, tgt, easy_config())
        assert result.snapshots[-1].selected_count == tgt.n_samples

    def test_deterministic_byte_identical(self):
        src, tgt = easy_pair(seed=7, shift=3.0)
        cfg = easy_config()
        results = [run(src, tgt, cfg) for _ in range(2)]
        first, second = (json.dumps(r.to_dict(), sort_keys=True) for r in results)
        assert first == second

    def test_ground_truth_never_touches_predictions(self):
        src, tgt = easy_pair(seed=8, shift=3.0)
        with_truth = run(src, tgt, easy_config())
        blind = run(src, tgt.without_eval_labels(), easy_config())
        np.testing.assert_array_equal(with_truth.predictions, blind.predictions)
        assert all(s.accuracy is None for s in blind.snapshots)
        assert blind.final_accuracy is None

    def test_labeling_modes_all_run(self):
        src, tgt = easy_pair(seed=9, shift=2.0)
        for labeling in ("ncp", "sp", "fused"):
            result = run(src, tgt, easy_config(labeling=labeling))
            assert result.predictions.shape == (tgt.n_samples,)

    def test_accuracy_steps_mostly_non_decreasing(self):
        # statistical claim over the pooled iteration steps of seeded runs,
        # not a per-run guarantee
        ok = total = 0
        for seed in range(20):
            src, tgt = gen_synthetic(5, 40, 20, shift_magnitude=4.0, seed=seed,
                                     separation=8.0)
            cfg = RunConfig(pca_dim=20, subspace_dim=10, iterations=10)
            accs = [s.accuracy for s in run(src, tgt, cfg).snapshots]
            ok += sum(b >= a for a, b in zip(accs, accs[1:]))
            total += len(accs) - 1
        assert ok / total >= 0.90

    def test_config_echoed(self):
        src, tgt = easy_pair(seed=10)
        cfg = easy_config(labeling="sp")
        assert run(src, tgt, cfg).config == cfg

    def test_subspace_dim_follows_rank_truncation(self):
        src, tgt = rank_deficient_pair()
        cfg = RunConfig(pca_dim=10, subspace_dim=10, iterations=2)
        # slpp_fit rejects more components than the PCA rank, so finishing
        # proves that the subspace dimension was clamped to it
        result = run(src, tgt, cfg)
        assert prepare(src, tgt, cfg.pca_dim).source.shape[0] == 3
        assert any("rank" in w for w in result.warnings)


class TestPrepare:
    def test_holds_normalized_pca_coordinates(self):
        src, tgt = easy_pair(seed=17, shift=2.0)
        prepared = prepare(src, tgt, 6)
        assert prepared.source.shape == (6, src.n_samples)
        assert prepared.target.shape == (6, tgt.n_samples)
        np.testing.assert_allclose(np.linalg.norm(prepared.target, axis=0), 1.0)
        assert prepared.n_classes == 4
        assert prepared.warnings == ()

    def test_run_is_prepare_then_loop(self):
        src, tgt = easy_pair(seed=18, shift=3.0)
        cfg = easy_config()
        direct = run(src, tgt, cfg)
        staged = run_prepared(prepare(src, tgt, cfg.pca_dim), cfg)
        assert (json.dumps(staged.to_dict(), sort_keys=True)
                == json.dumps(direct.to_dict(), sort_keys=True))

    def test_warnings_lead_the_result(self):
        src, tgt = rank_deficient_pair()
        prepared = prepare(src, tgt, 10)
        assert any("rank" in w for w in prepared.warnings)
        result = run_prepared(prepared, RunConfig(pca_dim=10, subspace_dim=10,
                                                  iterations=2))
        assert result.warnings[:len(prepared.warnings)] == prepared.warnings

    def test_builds_no_dataset(self, monkeypatch):
        src, tgt = easy_pair(seed=22, shift=2.0)
        calls = count_calls(monkeypatch, DomainDataset, "__post_init__")
        prepare(src, tgt, 6)
        assert calls == []

    @pytest.mark.parametrize("per_class, dim", [(25, 12), (3, 40)], ids=["scatter", "gram"])
    def test_coordinates_match_centred_projection_oracle(self, per_class, dim):
        src, tgt = gen_synthetic(4, per_class, dim, shift_magnitude=2.0, seed=23)
        prepared = prepare(src, tgt, 6)
        oracle = reference_pca_coordinates(np.hstack([src.features, tgt.features]), 6)
        ns = src.n_samples
        for coords, rows in ((prepared.source, oracle[:, :ns]),
                             (prepared.target, oracle[:, ns:])):
            assert np.abs(coords - l2_normalize_columns(rows)).max() <= 1e-12

    @pytest.mark.parametrize("per_class, dim", [(400, 60), (10, 3000)],
                             ids=["scatter", "gram"])
    def test_traced_peak_holds_no_pooled_copy(self, per_class, dim):
        # PCA's matrix (60 x 60 or 80 x 80), its centred blocks and the 6 x n
        # coordinates, normalized in place, stay below half of a pooled d x n
        # copy (1.5 or 1.9 MB), which the peak would otherwise include
        src, tgt = gen_synthetic(4, per_class, dim, shift_magnitude=2.0, seed=24)
        pooled_bytes = src.dim * (src.n_samples + tgt.n_samples) * 8
        tracemalloc.start()
        try:
            # the raw features were allocated before tracing began
            prepare(src, tgt, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pooled_bytes / 2, (peak, pooled_bytes)

    def test_scatter_route_peak_holds_one_copy_of_the_coordinates(self):
        # d=200 < n=3200 and k=150: the peak stays below the k x n coordinates
        # with a quarter of their size to spare, plus PCA's d x d matrix, one
        # d x d eigenvector buffer and one block of 256 columns. Normalized
        # copies beside the coordinates, as when each side was normalized out
        # of place from a slice of the pooled coordinates, would exceed it
        src, tgt = gen_synthetic(4, 400, 200, shift_magnitude=2.0, seed=24)
        d, k = src.dim, 150
        n = src.n_samples + tgt.n_samples
        bound = 1.25 * k * n * 8 + (2 * d + 256) * d * 8
        tracemalloc.start()
        try:
            # the raw features were allocated before tracing began
            prepare(src, tgt, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    def test_gram_route_peak_is_the_gram_matrix_and_one_eigenvector_buffer(self):
        # n=400 < d=1000: the peak stays below the n x n Gram matrix, one n x n
        # eigenvector buffer and one block of 256 rows. dsyevd's 2 n^2
        # workspace, a copy of the Gram matrix, or the Gram matrix kept beside
        # the n x 300 leading eigenvectors would exceed it
        src, tgt = gen_synthetic(4, 50, 1000, shift_magnitude=2.0, seed=27)
        n = src.n_samples + tgt.n_samples
        bound = (2 * n + 256) * n * 8
        tracemalloc.start()
        try:
            # the raw features were allocated before tracing began
            prepare(src, tgt, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)

    @pytest.mark.parametrize("pca_dim", [6.0, True, "6", None])
    def test_rejects_non_integer_pca_dim_before_any_work(self, monkeypatch, pca_dim):
        src, tgt = easy_pair(seed=25)
        calls = count_calls(monkeypatch, pipeline, "validate_pair")
        with pytest.raises(ValueError, match="pca_dim must be an integer"):
            prepare(src, tgt, pca_dim)
        assert calls == []

    def test_numpy_integer_pca_dim_stored_as_int(self):
        src, tgt = easy_pair(seed=25)
        prepared = prepare(src, tgt, np.int64(4))
        assert type(prepared.pca_dim) is int and prepared.pca_dim == 4
        run_prepared(prepared, easy_config(pca_dim=4, subspace_dim=4, iterations=1))

    @pytest.mark.parametrize("per_class, dim", [(25, 12), (3, 40)], ids=["scatter", "gram"])
    def test_embedding_mean_is_mean_of_pooled_projections(self, monkeypatch, per_class,
                                                          dim):
        src, tgt = gen_synthetic(4, per_class, dim, shift_magnitude=2.0, seed=26)
        prepared = prepare(src, tgt, 6)
        xs, xt = prepared.source, prepared.target
        # the pooled mean and a fit on some chosen targets, as run_prepared makes them
        mean = (xs.sum(axis=1) + xt.sum(axis=1)) / (xs.shape[1] + xt.shape[1])
        chosen = np.arange(0, xt.shape[1], 3)
        projection = slpp_fit(xs, prepared.source_labels, 4, target=xt, chosen=chosen,
                              target_labels=chosen % prepared.n_classes)
        pooled = np.hstack([xs, xt])
        projected = projection.T @ pooled
        # the embeddings before normalization, centred on the pooled projections' mean
        monkeypatch.setattr(subspace, "l2_normalize_columns", lambda x: x)
        centred = embed(projection, pooled, mean)
        oracle = projected - projected.mean(axis=1)[:, None]
        assert np.abs(centred - oracle).max() <= 1e-14

    def test_config_must_match_prepared_pca_dim(self):
        src, tgt = easy_pair(seed=19)
        with pytest.raises(ValueError, match="pca_dim"):
            run_prepared(prepare(src, tgt, 10), easy_config())


@pytest.mark.parametrize("bound", ["largest", "smallest"])
def test_pair_at_a_scale_bound_predicts_as_unscaled(bound):
    # validate_pair's bounds: 4 d n M^2 stays finite, and M^2 stays normal
    src, tgt = easy_pair(shift=1.0)
    config = easy_config()
    n = src.n_samples + tgt.n_samples
    magnitudes = [np.abs(side.features).max() for side in (src, tgt)]
    if bound == "largest":
        scale = math.sqrt(np.finfo(float).max / (4 * src.dim * n)) / max(magnitudes)
        scale *= 1 - 1e-12
    else:
        scale = math.sqrt(np.finfo(float).tiny) / min(magnitudes) * (1 + 1e-12)
    scaled = [replace(side, features=side.features * scale) for side in (src, tgt)]
    np.testing.assert_array_equal(run(*scaled, config).predictions,
                                  run(src, tgt, config).predictions)
    assert nn_baseline(*scaled) == nn_baseline(src, tgt)


@st.composite
def any_pair(draw):
    """A pair the file format allows, with the degeneracies it permits.

    C in 1..8 with 1..5 source samples each, 1..20 targets, width 1..12,
    rank up to the width, duplicated samples, constant features, scales
    from 1e-150 to 1e150 and arbitrary nonnegative ids, plus a config in
    every labeling and selection mode.
    """
    n_classes = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n_classes, max_size=n_classes))
    n_target = draw(st.integers(1, 20))
    width = draw(st.integers(1, 12))
    rank = draw(st.integers(1, width))
    n_constant = draw(st.integers(0, width))
    n_duplicates = draw(st.integers(0, 4))
    scale = 10.0 ** draw(st.sampled_from([-150, -20, 0, 20, 150]))
    ids = np.array(draw(st.lists(st.integers(0, 2**62), min_size=n_classes,
                                 max_size=n_classes, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_source = sum(sizes)
    n = n_source + n_target
    x = rng.normal(size=(width, rank)) @ rng.normal(size=(rank, n))
    x[:n_constant] = rng.normal(size=(n_constant, 1))
    for _ in range(n_duplicates):
        x[:, rng.integers(n)] = x[:, rng.integers(n)]
    x *= scale
    labels = ids[np.repeat(np.arange(n_classes), sizes)]
    pca_dim = draw(st.integers(1, width))
    config = RunConfig(pca_dim=pca_dim,
                       subspace_dim=draw(st.integers(1, pca_dim)),
                       iterations=draw(st.integers(1, 3)),
                       labeling=draw(st.sampled_from(LABELING_MODES)),
                       selection=draw(st.sampled_from(SELECTION_MODES)))
    return (DomainDataset(x[:, :n_source], labels=labels),
            DomainDataset(x[:, n_source:], domain="target"), config)


@settings(max_examples=200, deadline=None)
@given(any_pair())
def test_any_allowed_pair_predicts_or_fails_clearly(pair):
    src, tgt, config = pair
    try:
        first = run(src, tgt, config)
    except (ValueError, linalg.NumericalError) as exc:
        # scales of 1e-150 to 1e150 are inside validate_pair's bounds
        assert str(exc) and "features reach" not in str(exc)
        return
    assert first.predictions.shape == (tgt.n_samples,)
    assert np.isin(first.predictions, src.labels).all()
    np.testing.assert_array_equal(run(src, tgt, config).predictions, first.predictions)


@st.composite
def reference_cases(draw):
    """A pair and a base config in the reference run's ranges.

    2..6 classes with 2..15 samples each per side, sparse class ids, width
    3..40, T 1..5. ``subspace_dim`` is 2..``pca_dim``. It is at least 2: a
    one-dimensional embedding normalizes every sample to +-1, so every
    decision would be an exact tie. Above the rank of the labeled columns,
    both sides drop the axes of the pencil's zero eigenvalue.
    """
    n_classes = draw(st.integers(2, 6))
    width = draw(st.integers(3, 40))
    per_class = st.lists(st.integers(2, 15), min_size=n_classes, max_size=n_classes)
    ys = np.repeat(np.arange(n_classes), draw(per_class))
    yt = np.repeat(np.arange(n_classes), draw(per_class))
    ids = np.array(draw(st.lists(st.integers(0, 2**40), min_size=n_classes,
                                 max_size=n_classes, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = rng.normal(size=(width, n_classes)) * draw(st.floats(1.0, 6.0))
    xs = means[:, ys] + rng.normal(size=(width, ys.size))
    shift = rng.normal(size=(width, 1)) * draw(st.floats(0.0, 4.0))
    xt = means[:, yt] + rng.normal(size=(width, yt.size)) + shift
    pca_dim = draw(st.integers(2, min(width, ys.size + yt.size - 1)))
    subspace_dim = draw(st.integers(2, pca_dim))
    config = RunConfig(pca_dim=pca_dim, subspace_dim=subspace_dim,
                       iterations=draw(st.integers(1, 5)))
    return (DomainDataset(xs, labels=ids[ys]),
            DomainDataset(xt, eval_labels=ids[yt], domain="target"), config)


def compare_with_reference(src, tgt, base, tally):
    """Check ``run`` against ``reference_run`` in every grid cell of one pair.

    conftest.NEAR_TIE is the margin: the two sides' confidences were seen to
    differ by up to 8.5e-14, and a target whose top two probabilities lie
    within it is exempt from the prediction check. ``tally`` counts the
    runs, those cut short by a near tie, the targets compared and the exempt.
    """
    for labeling, selection in ABLATION_GRID:
        config = replace(base, labeling=labeling, selection=selection)
        expected = reference_run(src, tgt, config)
        result = run(src, tgt, config)
        counts = [s.selected_count for s in result.snapshots]
        tally["runs"] += 1
        tie_at = expected["tie_at"]
        if tie_at is not None:
            # selections up to iteration tie_at come from labelings before the tie
            assert counts[:tie_at + 1] == expected["selected_counts"][:tie_at + 1]
            tally["cut_short"] += 1
            continue
        assert counts == expected["selected_counts"], config
        keep = ~expected["exempt"]
        np.testing.assert_array_equal(result.predictions[keep],
                                      expected["predictions"][keep], str(config))
        tally["targets"] += keep.size
        tally["exempt"] += int(expected["exempt"].sum())


def assert_few_near_ties(tally):
    # near ties are rare on these pairs; a margin that exempted many targets
    # or cut many runs short would leave little compared
    assert tally["exempt"] <= tally["targets"] // 100, tally
    assert tally["cut_short"] <= tally["runs"] // 20, tally


def test_run_matches_reference_run():
    assert NEAR_TIE == 1e-9
    tally = {"runs": 0, "cut_short": 0, "targets": 0, "exempt": 0}

    @settings(max_examples=50, deadline=None)
    @given(reference_cases())
    def compare(case):
        compare_with_reference(*case, tally)

    compare()
    assert_few_near_ties(tally)


def test_run_matches_reference_run_above_the_labeled_rank():
    # 8 source columns under subspace_dim 20: until enough targets are
    # chosen, the pencil has a zero eigenspace that both sides must drop.
    # Axes kept from it made 6 of these 270 cells differ
    tally = {"runs": 0, "cut_short": 0, "targets": 0, "exempt": 0}
    base = RunConfig(pca_dim=21, subspace_dim=20, iterations=5)
    ys, yt = np.repeat(np.arange(4), 2), np.repeat(np.arange(4), 10)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        means = rng.normal(size=(30, 4)) * 1.5
        xs = means[:, ys] + rng.normal(size=(30, ys.size))
        xt = means[:, yt] + rng.normal(size=(30, yt.size)) + rng.normal(size=(30, 1)) * 2
        compare_with_reference(DomainDataset(xs, labels=ys),
                               DomainDataset(xt, eval_labels=yt, domain="target"),
                               base, tally)
    assert_few_near_ties(tally)


class TestRunAblation:
    def test_full_grid(self):
        src, tgt = easy_pair(seed=12, shift=3.0)
        table = run_ablation(src, tgt, easy_config(iterations=3))
        assert set(table) == {(lab, sel)
                              for lab in ("ncp", "sp", "fused")
                              for sel in ("none", "all", "progressive")}
        direct = run(src, tgt, easy_config(iterations=3, labeling="fused",
                                           selection="none"))
        np.testing.assert_array_equal(
            table[("fused", "none")].predictions, direct.predictions)

    def test_pca_fit_once(self, monkeypatch):
        calls = count_calls(monkeypatch, pipeline, "pca_fit")
        src, tgt = easy_pair(seed=12, shift=3.0)
        run_ablation(src, tgt, easy_config(iterations=2))
        assert len(calls) == 1

    def test_cells_match_separate_runs(self):
        src, tgt = easy_pair(seed=20, shift=3.0)
        base = easy_config(iterations=3)
        for (labeling, selection), cell in run_ablation(src, tgt, base).items():
            alone = run(src, tgt, replace(base, labeling=labeling, selection=selection))
            assert (json.dumps(cell.to_dict(), sort_keys=True)
                    == json.dumps(alone.to_dict(), sort_keys=True))

    def test_rank_warning_in_every_cell(self):
        src, tgt = rank_deficient_pair()
        table = run_ablation(src, tgt, RunConfig(pca_dim=10, subspace_dim=10,
                                                 iterations=2))
        assert all(any("rank" in w for w in r.warnings) for r in table.values())


def cdist_nearest(s, t):
    """Oracle for the 1NN search: argmin of explicit Euclidean distances."""
    return np.argmin(cdist(t.T, s.T), axis=1)


class TestNnBaseline:
    @pytest.mark.parametrize("fixture", ["easy", "copy", "unrelated"])
    def test_matches_cdist_oracle(self, fixture):
        rng = np.random.default_rng(14)
        xs, xt = {
            "easy": lambda: [d.features for d in easy_pair(seed=13, shift=3.0)],
            "copy": lambda: [easy_pair(seed=13)[0].features] * 2,
            "unrelated": lambda: [rng.normal(size=(10, 1000)) for _ in range(2)],
        }[fixture]()
        s, t = l2_normalize_columns(xs.copy()), l2_normalize_columns(xt.copy())
        np.testing.assert_array_equal(_nearest(s, t), cdist_nearest(s, t))

    def test_zero_columns_match_cdist_oracle(self):
        src, tgt = easy_pair(seed=21, shift=2.0)
        xs, xt = np.array(src.features), np.array(tgt.features)
        xs[:, 3] = 0.0
        xt[:, [0, 5]] = 0.0
        with pytest.warns(ZeroVectorWarning):
            s, t = l2_normalize_columns(xs.copy()), l2_normalize_columns(xt.copy())
        nearest = _nearest(s, t)
        np.testing.assert_array_equal(nearest, cdist_nearest(s, t))
        assert nearest[0] == nearest[5] == 3  # a zero target's nearest is the zero source
        zeroed_src = DomainDataset(xs, labels=src.labels)
        zeroed_tgt = DomainDataset(xt, eval_labels=tgt.eval_labels, domain="target")
        with pytest.warns(ZeroVectorWarning):
            accuracy = nn_baseline(zeroed_src, zeroed_tgt)
        assert accuracy == evaluate(src.labels[nearest], tgt.eval_labels)

    @pytest.mark.parametrize("block", [1, 7, 10**9])
    def test_blocks_equal_one_product(self, monkeypatch, block):
        rng = np.random.default_rng(27)
        xs, xt = rng.normal(size=(9, 40)), rng.normal(size=(9, 30))
        xs[:, 4] = 0.0
        xt[:, [0, 13, 29]] = 0.0
        with pytest.warns(ZeroVectorWarning):
            s, t = l2_normalize_columns(xs.copy()), l2_normalize_columns(xt.copy())
        monkeypatch.setattr(preprocess, "_BLOCK", block)
        nearest, zeros = _nearest_by_blocks(s, xt)
        np.testing.assert_array_equal(nearest, _nearest(s, t))
        assert zeros == 3
        src = DomainDataset(xs, labels=rng.integers(0, 3, size=40))
        tgt = DomainDataset(xt, eval_labels=rng.integers(0, 3, size=30), domain="target")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            accuracy = nn_baseline(src, tgt)
        assert accuracy == evaluate(src.labels[_nearest(s, t)], tgt.eval_labels)
        assert [str(w.message) for w in caught] == [
            "1 zero-norm column(s) left unnormalized",
            "3 zero-norm column(s) left unnormalized"]

    def test_zero_columns_in_two_blocks_give_one_warning_with_the_total(
            self, monkeypatch):
        src, tgt = easy_pair(seed=21, shift=2.0)
        xt = np.array(tgt.features)
        xt[:, [1, 6]] = 0.0
        zeroed = DomainDataset(xt, eval_labels=tgt.eval_labels, domain="target")
        monkeypatch.setattr(preprocess, "_BLOCK", 4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            nn_baseline(src, zeroed)
        assert [(w.category, str(w.message)) for w in caught] == [
            (ZeroVectorWarning, "2 zero-norm column(s) left unnormalized")]

    def test_target_copy_of_source_is_perfect(self):
        src, _ = easy_pair(seed=13)
        tgt = DomainDataset(src.features, eval_labels=src.labels, domain="target")
        assert nn_baseline(src, tgt) == 100.0

    def test_unrelated_domains_near_chance(self):
        rng = np.random.default_rng(14)
        src = DomainDataset(rng.normal(size=(10, 1000)),
                            labels=rng.integers(0, 2, size=1000))
        tgt = DomainDataset(rng.normal(size=(10, 1000)),
                            eval_labels=rng.integers(0, 2, size=1000),
                            domain="target")
        assert nn_baseline(src, tgt) == pytest.approx(50.0, abs=5.0)

    def test_requires_ground_truth(self):
        src, tgt = easy_pair(seed=15)
        with pytest.raises(ValueError, match="ground truth"):
            nn_baseline(src, tgt.without_eval_labels())
