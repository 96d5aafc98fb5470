import json
import warnings

import numpy as np
import pytest

from splda.data import (
    DomainDataset,
    RunConfig,
    validate_pair,
)


def make_source(d=4, labels=(0, 1, 2)):
    n = len(labels)
    feats = np.arange(d * n, dtype=float).reshape(d, n)
    return DomainDataset(feats, labels=np.array(labels), domain="source")


def make_target(d=4, eval_labels=None, n=3):
    feats = np.ones((d, n))
    return DomainDataset(feats, eval_labels=eval_labels, domain="target")


class TestDomainDataset:
    def test_basic_shape(self):
        ds = make_source()
        assert ds.dim == 4 and ds.n_samples == 3

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DomainDataset(np.array([[1.0, np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one sample"):
            DomainDataset(np.empty((3, 0)))

    def test_rejects_featureless(self):
        with pytest.raises(ValueError, match="at least one feature"):
            DomainDataset(np.empty((0, 3)), labels=[0, 1, 0])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="length-3"):
            DomainDataset(np.ones((2, 3)), labels=[0, 1])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DomainDataset(np.ones((2, 2)), labels=[0, -1])

    @pytest.mark.parametrize("channel", ["labels", "eval_labels"])
    @pytest.mark.parametrize("ids", [np.array([2**63, 1], dtype=np.uint64),
                                     np.array([2.0**63, 1.0])], ids=["uint64", "float"])
    def test_rejects_labels_above_int64_before_any_cast(self, channel, ids):
        # a cast would wrap 2**63 to a negative id, or warn and then call a
        # whole float a non-integer
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{channel} are out of range"):
                DomainDataset(np.ones((2, 2)), **{channel: ids})

    @pytest.mark.parametrize("ids", [np.array([np.nan, 1.0]), np.array([-1e30, 1.0]),
                                     np.array(["0", "1"])], ids=["nan", "-1e30", "str"])
    def test_rejects_non_integer_labels_without_a_warning(self, ids):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^labels must be integers"):
                DomainDataset(np.ones((2, 2)), labels=ids)

    @pytest.mark.parametrize("channel", ["labels", "eval_labels"])
    def test_complex_and_float16_labels_checked_without_a_warning(self, channel):
        # a complex cast drops the imaginary part with a ComplexWarning; a
        # float16 comparison with 2**63 overflows the bound's cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{channel} must be integers"):
                DomainDataset(np.ones((2, 2)), **{channel: np.array([1 + 0j, 2])})
            ds = DomainDataset(np.ones((2, 2)),
                               **{channel: np.array([1, 2], dtype=np.float16)})
        assert getattr(ds, channel).tolist() == [1, 2]

    def test_largest_int64_label_kept_unchanged(self):
        ds = DomainDataset(np.ones((2, 2)),
                           labels=np.array([2**63 - 1, 1], dtype=np.uint64))
        assert ds.labels.tolist() == [2**63 - 1, 1]

    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError, match="domain"):
            DomainDataset(np.ones((2, 2)), domain="middle")

    def test_immutable_after_construction(self):
        ds = make_source()
        with pytest.raises(ValueError):
            ds.features[0, 0] = 7.0

    def test_writeable_features_copied(self):
        feats = np.ones((2, 3))
        ds = DomainDataset(feats)
        feats[0, 0] = 7.0
        assert ds.features[0, 0] == 1.0 and feats.flags.writeable

    def test_frozen_float_array_adopted(self):
        feats = np.ones((2, 3))
        feats.setflags(write=False)
        assert DomainDataset(feats).features is feats
        view = feats[:, :2]  # does not own its memory
        assert not np.shares_memory(DomainDataset(view).features, feats)

    def test_without_eval_labels(self):
        ds = make_target(eval_labels=[0, 1, 2])
        assert ds.without_eval_labels().eval_labels is None


class TestValidatePair:
    def test_ok(self):
        ids, truth, names = validate_pair(make_source(), make_target(eval_labels=[0, 1, 2]))
        assert names == (0, 1, 2)
        assert ids.tolist() == [0, 1, 2]
        assert truth.tolist() == [0, 1, 2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            validate_pair(make_source(d=4), make_target(d=5))

    def test_source_missing_class(self):
        src = make_source(labels=(0, 1, 1))
        tgt = make_target(eval_labels=[0, 1, 2])
        with pytest.raises(ValueError, match=r"class\(es\) \[2\]"):
            validate_pair(src, tgt)

    def test_source_must_be_labeled(self):
        unlabeled = DomainDataset(np.ones((4, 2)), domain="source")
        with pytest.raises(ValueError, match="fully labeled"):
            validate_pair(unlabeled, make_target())

    def test_target_training_labels_rejected(self):
        leaky = DomainDataset(np.ones((4, 2)), labels=[0, 1], domain="target")
        with pytest.raises(ValueError, match="eval_labels"):
            validate_pair(make_source(), leaky)

    def test_sparse_labels_dictionary_encoded(self):
        src = make_source(labels=(5, 9, 5))
        tgt = make_target(eval_labels=[9, 5, 9])
        ids, truth, names = validate_pair(src, tgt)
        assert names == (5, 9)
        assert ids.tolist() == [0, 1, 0]
        assert truth.tolist() == [1, 0, 1]

    def test_unlabeled_target_ok(self):
        ids, truth, names = validate_pair(make_source(), make_target())
        assert truth is None
        assert names == (0, 1, 2)
        assert ids.tolist() == [0, 1, 2]


class TestRunConfig:
    def test_defaults_echo(self):
        cfg = RunConfig(pca_dim=128)
        assert cfg.to_dict() == {
            "pca_dim": 128, "subspace_dim": 128, "iterations": 10,
            "labeling": "fused", "selection": "progressive",
        }

    def test_subspace_dim_bounds(self):
        with pytest.raises(ValueError, match="subspace_dim"):
            RunConfig(pca_dim=10, subspace_dim=11)
        with pytest.raises(ValueError, match="subspace_dim"):
            RunConfig(pca_dim=10, subspace_dim=0)

    def test_iterations_bound(self):
        with pytest.raises(ValueError, match="iterations"):
            RunConfig(pca_dim=10, subspace_dim=5, iterations=0)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="labeling"):
            RunConfig(pca_dim=10, subspace_dim=5, labeling="softmax")
        with pytest.raises(ValueError, match="selection"):
            RunConfig(pca_dim=10, subspace_dim=5, selection="topk")

    @pytest.mark.parametrize("field, value", [
        ("pca_dim", 6.0), ("subspace_dim", 4.0), ("iterations", 2.5),
        ("pca_dim", True), ("iterations", np.True_), ("subspace_dim", "4"),
        ("iterations", None),
    ], ids=["pca_dim-float", "subspace_dim-float", "iterations-float", "pca_dim-bool",
            "iterations-numpy_bool", "subspace_dim-str", "iterations-None"])
    def test_non_integers_rejected(self, field, value):
        kwargs = dict(pca_dim=6, subspace_dim=4, iterations=2)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        cfg = RunConfig(pca_dim=np.int64(6), subspace_dim=np.int32(4),
                        iterations=np.uint8(2))
        assert all(type(v) is int for v in
                   (cfg.pca_dim, cfg.subspace_dim, cfg.iterations))
        assert json.dumps(cfg.to_dict()) == (
            '{"pca_dim": 6, "subspace_dim": 4, "iterations": 2, '
            '"labeling": "fused", "selection": "progressive"}')
