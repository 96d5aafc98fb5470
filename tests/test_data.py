import numpy as np
import pytest

from splda.data import (
    DomainDataset,
    PseudoLabelSet,
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

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError, match="length-3"):
            DomainDataset(np.ones((2, 3)), labels=[0, 1])

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DomainDataset(np.ones((2, 2)), labels=[0, -1])

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


class TestPseudoLabelSet:
    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError, match="unique"):
            PseudoLabelSet([0, 0], [1, 2], [0.5, 0.5])

    def test_rejects_confidence_out_of_range(self):
        with pytest.raises(ValueError, match="within"):
            PseudoLabelSet([0, 1], [1, 2], [0.5, 1.5])

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError, match="aligned"):
            PseudoLabelSet([0, 1], [1], [0.5])

    def test_empty(self):
        assert len(PseudoLabelSet.empty()) == 0
