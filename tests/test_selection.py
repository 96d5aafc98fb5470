import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splda.data import SELECTION_MODES
from splda.selection import select

from conftest import reference_select


@st.composite
def pseudo_labels(draw):
    """(classes, confidences) of 1..40 samples over at most 5 classes."""
    n = draw(st.integers(min_value=1, max_value=40))
    n_classes = draw(st.integers(min_value=1, max_value=5))
    classes = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    confs = draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=n, max_size=n))
    return np.array(classes), np.array(confs)


@st.composite
def tied_pseudo_labels(draw):
    """(classes, confidences) with sparse class ids and few distinct confidences."""
    n = draw(st.integers(min_value=1, max_value=60))
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
    levels = draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=4))
    classes = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    confs = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    return np.array(classes), np.array(confs)


class TestProgressive:
    def test_quota_takes_top_confidence(self):
        conf = np.linspace(0.05, 0.95, 10)
        out = select(np.zeros(10, dtype=int), conf, 3, 10, "progressive")
        assert len(out) == 3
        assert sorted(conf[out].tolist(), reverse=True) == \
            sorted(conf, reverse=True)[:3]

    def test_final_iteration_selects_everything(self):
        out = select([0, 1, 0, 1, 2], [0.9, 0.1, 0.5, 0.4, 0.3], 10, 10, "progressive")
        np.testing.assert_array_equal(out, np.arange(5))

    def test_classwise_quotas_protect_small_classes(self):
        # 8 samples in class 0, 2 in class 1; T=4, k=1 -> quotas (2, 0).
        # the two class-1 confidences dominate globally, so a global top-2
        # would take only class-1 samples; class-wise must not.
        classes = np.array([0] * 8 + [1] * 2)
        conf = [0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.99, 0.98]
        out = select(classes, conf, 1, 4, "progressive")
        assert np.bincount(classes[out], minlength=2).tolist() == [2, 0]
        global_top2 = set(np.argsort(-np.asarray(conf))[:2].tolist())
        assert set(out.tolist()) != global_top2

    def test_counts_monotone_in_iteration(self):
        rng = np.random.default_rng(6)
        classes, conf = rng.integers(0, 3, size=25), rng.uniform(size=25)
        prev = None
        for k in range(1, 11):
            counts = np.bincount(classes[select(classes, conf, k, 10, "progressive")],
                                 minlength=3)
            if prev is not None:
                assert np.all(counts >= prev)
            prev = counts

    def test_confidence_ties_broken_by_index(self):
        out = select([0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5], 1, 2, "progressive")
        assert out.tolist() == [0, 1]

    def test_selection_is_fresh_not_accumulated(self):
        first = select([0, 0, 0], [0.9, 0.5, 0.1], 1, 3, "progressive")
        second = select([0, 0, 0], [0.1, 0.5, 0.9], 1, 3, "progressive")
        assert first.tolist() == [0]
        assert second.tolist() == [2]

    @settings(max_examples=60, deadline=None)
    @given(pseudo_labels(), st.integers(1, 12), st.integers(1, 12))
    def test_property_exact_quota(self, pl, k, total):
        classes, conf = pl
        k = min(k, total)
        out = select(classes, conf, k, total, "progressive")
        n_classes = int(classes.max()) + 1
        got = np.bincount(classes[out], minlength=n_classes)
        for c in range(n_classes):
            n_c = int((classes == c).sum())
            assert got[c] == min((k * n_c) // total, n_c)

    @settings(max_examples=40, deadline=None)
    @given(pseudo_labels(), st.integers(1, 8), st.data())
    def test_property_permutation_invariant(self, pl, total, data):
        # reordering the samples admits the same (class, confidence) pairs
        classes, conf = pl
        k = data.draw(st.integers(1, total))
        perm = np.random.default_rng(0).permutation(classes.size)
        out_a = select(classes, conf, k, total, "progressive")
        out_b = select(classes[perm], conf[perm], k, total, "progressive")
        assert sorted(zip(classes[out_a], conf[out_a])) == \
            sorted(zip(classes[perm][out_b], conf[perm][out_b]))


@settings(max_examples=200, deadline=None)
@given(tied_pseudo_labels(), st.integers(1, 12), st.data())
def test_matches_reference_loop(pl, total, data):
    classes, conf = pl
    k = data.draw(st.integers(1, total))
    for mode in SELECTION_MODES:
        out = select(classes, conf, k, total, mode)
        np.testing.assert_array_equal(out, reference_select(classes, conf, k, total, mode))


class TestModes:
    def test_none_is_empty(self):
        assert len(select([0, 1], [0.5, 0.6], 1, 5, "none")) == 0

    def test_all_returns_everything(self):
        assert select([0, 1], [0.5, 0.6], 1, 5, "all").tolist() == [0, 1]

    def test_iteration_out_of_range(self):
        with pytest.raises(ValueError, match="iteration"):
            select([0], [0.5], 0, 5, "progressive")
        with pytest.raises(ValueError, match="iteration"):
            select([0], [0.5], 6, 5, "progressive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="selection mode"):
            select([0], [0.5], 1, 1, "topk")
