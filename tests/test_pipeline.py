import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splda import pipeline
from splda.data import DomainDataset, RunConfig
from splda.dataio import gen_synthetic
from splda.pipeline import nn_baseline, run, run_ablation


def easy_pair(seed=0, shift=0.0, separation=10.0):
    return gen_synthetic(4, 25, 12, shift_magnitude=shift, seed=seed,
                         separation=separation)


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
        calls = []
        real_fit = pipeline.slpp_fit

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "slpp_fit", counting_fit)
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
        rng = np.random.default_rng(11)
        base = rng.normal(size=(3, 30))
        lift = rng.normal(size=(10, 3))
        src = DomainDataset(lift @ base[:, :15] + 0.5,
                            labels=rng.integers(0, 2, size=15))
        tgt = DomainDataset(lift @ base[:, 15:] + 0.5, domain="target")
        cfg = RunConfig(pca_dim=10, subspace_dim=10, iterations=2)
        result = run(src, tgt, cfg)
        assert result.model.projection.shape[1] <= 3
        assert any("rank" in w for w in result.warnings)


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


class TestNnBaseline:
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
