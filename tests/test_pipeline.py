import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from splda import pipeline
from splda.data import DomainDataset, RunConfig
from splda.dataio import _nearest, evaluate, gen_synthetic
from splda.pipeline import nn_baseline, prepare, run, run_ablation, run_prepared
from splda.preprocess import ZeroVectorWarning, l2_normalize_columns


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
    defaults = dict(pca_dim=12, subspace_dim=8, iterations=5, seed=0)
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

    @pytest.mark.parametrize("selection", ["none", "all", "progressive"])
    def test_slpp_fit_count(self, monkeypatch, selection):
        calls = count_calls(monkeypatch, pipeline, "slpp_fit")
        src, tgt = easy_pair(seed=4, shift=3.0)
        run(src, tgt, easy_config(iterations=4, selection=selection))
        assert len(calls) == (1 if selection == "none" else 5)

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
        first = json.dumps(run(src, tgt, cfg).to_dict(), sort_keys=True)
        second = json.dumps(run(src, tgt, cfg).to_dict(), sort_keys=True)
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
            cfg = RunConfig(pca_dim=20, subspace_dim=10, iterations=10, seed=seed)
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
        result = run(src, tgt, cfg)
        assert result.model.projection.shape[1] <= 3
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
        direct = json.dumps(run(src, tgt, cfg).to_dict(), sort_keys=True)
        staged = run_prepared(prepare(src, tgt, cfg.pca_dim), cfg)
        assert json.dumps(staged.to_dict(), sort_keys=True) == direct

    def test_warnings_lead_the_result(self):
        src, tgt = rank_deficient_pair()
        prepared = prepare(src, tgt, 10)
        assert any("rank" in w for w in prepared.warnings)
        result = run_prepared(prepared, RunConfig(pca_dim=10, subspace_dim=10,
                                                  iterations=2))
        assert result.warnings[:len(prepared.warnings)] == prepared.warnings

    def test_config_must_match_prepared_pca_dim(self):
        src, tgt = easy_pair(seed=19)
        with pytest.raises(ValueError, match="pca_dim"):
            run_prepared(prepare(src, tgt, 10), easy_config())


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
        s, t = l2_normalize_columns(xs), l2_normalize_columns(xt)
        np.testing.assert_array_equal(_nearest(s, t), cdist_nearest(s, t))

    def test_zero_columns_match_cdist_oracle(self):
        src, tgt = easy_pair(seed=21, shift=2.0)
        xs, xt = np.array(src.features), np.array(tgt.features)
        xs[:, 3] = 0.0
        xt[:, [0, 5]] = 0.0
        with pytest.warns(ZeroVectorWarning):
            s, t = l2_normalize_columns(xs), l2_normalize_columns(xt)
        nearest = _nearest(s, t)
        np.testing.assert_array_equal(nearest, cdist_nearest(s, t))
        assert nearest[0] == nearest[5] == 3  # a zero target's nearest is the zero source
        zeroed_src = DomainDataset(xs, labels=src.labels)
        zeroed_tgt = DomainDataset(xt, eval_labels=tgt.eval_labels, domain="target")
        with pytest.warns(ZeroVectorWarning):
            accuracy = nn_baseline(zeroed_src, zeroed_tgt)
        assert accuracy == evaluate(src.labels[nearest], tgt.eval_labels)

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
