import re

import numpy as np
import pytest

from splda.data import DomainDataset
from splda.dataio import evaluate, gen_synthetic, load_features, save_features
from splda.pipeline import nn_baseline


def write(tmp_path, text, name="feats.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD = "# d=3 n=2 labeled=1\n0 0.5 1.25 -3.0\n1 1.0 0.0 2.5\n"


class TestLoadFeatures:
    def test_small_labeled_file(self, tmp_path):
        ds = load_features(write(tmp_path, GOOD))
        assert ds.dim == 3 and ds.n_samples == 2
        assert ds.labels.tolist() == [0, 1]
        np.testing.assert_allclose(ds.features[:, 0], [0.5, 1.25, -3.0])

    def test_target_labels_quarantined(self, tmp_path):
        ds = load_features(write(tmp_path, GOOD), domain="target")
        assert ds.labels is None
        assert ds.eval_labels.tolist() == [0, 1]

    def test_unlabeled_file(self, tmp_path):
        text = "# d=2 n=2 labeled=0\n-1 1.0 2.0\n-1 3.0 4.0\n"
        ds = load_features(write(tmp_path, text))
        assert ds.labels is None and ds.eval_labels is None

    def test_short_row_names_line(self, tmp_path):
        text = "# d=3 n=2 labeled=1\n0 0.5 1.25 -3.0\n1 1.0 0.0\n"
        with pytest.raises(ValueError, match="line 3.*expected 4 columns"):
            load_features(write(tmp_path, text))

    def test_non_numeric_names_line_and_token(self, tmp_path):
        text = "# d=3 n=2 labeled=1\n0 0.5 oops -3.0\n1 1.0 0.0 2.5\n"
        with pytest.raises(ValueError, match="line 2.*'oops'"):
            load_features(write(tmp_path, text))

    def test_duplicate_header(self, tmp_path):
        text = GOOD + "# d=3 n=2 labeled=1\n"
        with pytest.raises(ValueError, match="line 4.*duplicate header"):
            load_features(write(tmp_path, text))

    def test_missing_header(self, tmp_path):
        with pytest.raises(ValueError, match="line 1.*header"):
            load_features(write(tmp_path, "0 1.0 2.0\n"))

    def test_row_count_mismatch(self, tmp_path):
        text = "# d=3 n=3 labeled=1\n0 0.5 1.25 -3.0\n1 1.0 0.0 2.5\n"
        with pytest.raises(ValueError, match="expected n=3.*found 2"):
            load_features(write(tmp_path, text))

    def test_surplus_rows(self, tmp_path):
        text = GOOD + "0 1.0 1.0 1.0\n"
        with pytest.raises(ValueError, match="line 4.*more than the declared"):
            load_features(write(tmp_path, text))

    def test_negative_label_in_labeled_file(self, tmp_path):
        text = "# d=2 n=1 labeled=1\n-1 1.0 2.0\n"
        with pytest.raises(ValueError, match="line 2.*labels >= 0"):
            load_features(write(tmp_path, text))

    def test_bad_label_in_unlabeled_file(self, tmp_path):
        text = "# d=2 n=1 labeled=0\n3 1.0 2.0\n"
        with pytest.raises(ValueError, match="line 2.*label -1"):
            load_features(write(tmp_path, text))

    def test_fractional_label(self, tmp_path):
        text = "# d=2 n=1 labeled=1\n0.5 1.0 2.0\n"
        with pytest.raises(ValueError, match="line 2.*not an integer"):
            load_features(write(tmp_path, text))

    def test_underscore_in_feature(self, tmp_path):
        # float() accepts "1_5" as 15.0; the format allows ASCII decimals only
        text = "# d=2 n=1 labeled=1\n0 1_5 2.0\n"
        with pytest.raises(ValueError, match="line 2: value '1_5' is not a finite decimal"):
            load_features(write(tmp_path, text))

    def test_underscore_in_label(self, tmp_path):
        text = "# d=2 n=1 labeled=1\n1_0 1.0 2.0\n"
        with pytest.raises(ValueError, match="line 2: label '1_0' is not an integer"):
            load_features(write(tmp_path, text))

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        text = f"# d=2 n=2 labeled=1\n0 1.0 2.0\n1 {token} 2.0\n"
        with pytest.raises(ValueError, match=f"line 3: value '{token}' is not a finite decimal"):
            load_features(write(tmp_path, text))

    @pytest.mark.parametrize("tail", ["1 1.0 2\u00e9", "\u00e91 1.0 2.0\n"],
                             ids=["last_byte", "first_byte"])
    def test_non_ascii_byte_names_line(self, tmp_path, tail):
        path = tmp_path / "feats.txt"
        text = "# d=2 n=2 labeled=1\r\n0 1.0 2.0\r\n" + tail
        path.write_bytes(text.encode("utf-8"))
        expected = f"^{re.escape(str(path))}: line 3: non-ASCII byte 0xc3$"
        with pytest.raises(ValueError, match=expected):
            load_features(path)

    def test_roundtrip_exact(self, tmp_path, rng):
        feats = rng.normal(size=(7, 11)) * 10.0 ** rng.integers(-8, 8, size=(7, 11))
        ds = DomainDataset(feats, labels=rng.integers(0, 4, size=11))
        path = tmp_path / "roundtrip.txt"
        save_features(ds, path)
        back = load_features(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_roundtrip_target_eval_labels(self, tmp_path, rng):
        ds = DomainDataset(rng.normal(size=(3, 5)),
                           eval_labels=rng.integers(0, 2, size=5), domain="target")
        path = tmp_path / "tgt.txt"
        save_features(ds, path)
        back = load_features(path, domain="target")
        np.testing.assert_array_equal(back.eval_labels, ds.eval_labels)


class TestGenSynthetic:
    def test_shapes_and_channels(self):
        src, tgt = gen_synthetic(3, 10, 8, shift_magnitude=2.0, seed=0)
        assert src.features.shape == (8, 30) and tgt.features.shape == (8, 30)
        assert src.labels is not None and src.eval_labels is None
        assert tgt.labels is None and tgt.eval_labels is not None

    def test_zero_shift_identical_distributions(self):
        src, tgt = gen_synthetic(3, 200, 8, shift_magnitude=0.0, seed=1)
        for c in range(3):
            mu_s = src.features[:, src.labels == c].mean(axis=1)
            mu_t = tgt.features[:, tgt.eval_labels == c].mean(axis=1)
            assert np.linalg.norm(mu_s - mu_t) < 1.0

    def test_shift_moves_target(self):
        src, tgt = gen_synthetic(3, 200, 8, shift_magnitude=6.0, seed=1)
        gap = src.features.mean(axis=1) - tgt.features.mean(axis=1)
        assert np.linalg.norm(gap) > 3.0

    def test_seed_reproducible_bytes(self):
        a_src, a_tgt = gen_synthetic(4, 12, 6, shift_magnitude=1.5, seed=42)
        b_src, b_tgt = gen_synthetic(4, 12, 6, shift_magnitude=1.5, seed=42)
        assert a_src.features.tobytes() == b_src.features.tobytes()
        assert a_tgt.features.tobytes() == b_tgt.features.tobytes()

    def test_shift_degrades_nn_baseline(self):
        near_src, near_tgt = gen_synthetic(5, 40, 10, shift_magnitude=0.0,
                                           seed=2, separation=10.0)
        far_src, far_tgt = gen_synthetic(5, 40, 10, shift_magnitude=10.0,
                                         seed=2, separation=10.0)
        assert nn_baseline(far_src, far_tgt) < nn_baseline(near_src, near_tgt)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="classes"):
            gen_synthetic(1, 10, 5, 0.0, 0)
        with pytest.raises(ValueError, match="per_class|samples per class"):
            gen_synthetic(3, 1, 5, 0.0, 0)
        with pytest.raises(ValueError, match="dimensions"):
            gen_synthetic(3, 10, 1, 0.0, 0)


class TestEvaluate:
    def test_all_correct(self):
        assert evaluate([1, 2, 3], [1, 2, 3]) == 100.0

    def test_half_correct(self):
        preds = [0] * 5 + [1] * 5
        truth = [0] * 5 + [2] * 5
        assert evaluate(preds, truth) == 50.0

    def test_random_twelve_classes_near_one_twelfth(self):
        rng = np.random.default_rng(3)
        preds = rng.integers(0, 12, size=20000)
        truth = rng.integers(0, 12, size=20000)
        assert evaluate(preds, truth) == pytest.approx(100 / 12, abs=1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate([1, 2], [1, 2, 3])
