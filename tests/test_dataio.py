import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splda.data import DomainDataset
from splda.dataio import evaluate, gen_synthetic, load_features, save_features
from splda.pipeline import nn_baseline

from conftest import reference_load


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

    @pytest.mark.parametrize("domain", ["Target", "src", ""])
    def test_mistyped_domain_rejected_before_reading(self, tmp_path, domain):
        # a domain that is not exactly "target" must not route labels to training
        with pytest.raises(ValueError, match="domain must be 'source' or 'target'"):
            load_features(tmp_path / "missing.txt", domain=domain)

    @pytest.mark.parametrize("byte", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
    def test_control_byte_is_not_a_line_break(self, tmp_path, byte):
        # line 2 ends in the byte; the bad value is on line 4 of the file
        text = f"# d=2 n=3 labeled=1\n0 1.0 2.0{byte}\n1 1.0 2.0\n2 1.0 x\n"
        if byte in "\v\f":
            match = "line 4: value 'x'"
        else:
            # not a separator either: the byte's own line fails
            match = re.escape(f"line 2: value {'2.0' + byte!r}")
        with pytest.raises(ValueError, match=match):
            load_features(write(tmp_path, text))

    @pytest.mark.parametrize("byte", ["\v", "\f"])
    def test_vertical_tab_and_form_feed_separate_tokens(self, tmp_path, byte):
        text = f"# d=3 n=1 labeled=1\n0{byte}0.5 1.25{byte}-3.0\n"
        ds = load_features(write(tmp_path, text))
        np.testing.assert_array_equal(ds.features[:, 0], [0.5, 1.25, -3.0])

    @pytest.mark.parametrize("byte", ["\x1c", "\x1f"])
    def test_separator_control_bytes_join_tokens(self, tmp_path, byte):
        # str.split() would split here; the format does not
        text = f"# d=2 n=1 labeled=1\n0 1.0{byte}2.0\n"
        with pytest.raises(ValueError, match="line 2: expected 3 columns.*found 2"):
            load_features(write(tmp_path, text))
        text = f"# d=2 n=1 labeled=1\n0{byte} 1.0 2.0\n"
        with pytest.raises(ValueError, match="line 2: label '0.x1.' is not an integer"):
            load_features(write(tmp_path, text))

    def test_old_numpy_partial_parse_rejected(self, tmp_path, monkeypatch):
        # numpy before 2.x warns and returns what it read instead of raising
        real = np.fromstring

        def warning_fromstring(text, sep):
            try:
                return real(text, sep=sep)
            except ValueError:
                warnings.warn("string or file could not be read to its end",
                              DeprecationWarning, stacklevel=2)
                return np.zeros(len(text.split()))

        monkeypatch.setattr(np, "fromstring", warning_fromstring)
        text = "# d=3 n=2 labeled=1\n0 0.5 1.25 -3.0\n1 1.0 oops 2.5\n"
        with pytest.raises(ValueError, match="line 3: value 'oops'"):
            load_features(write(tmp_path, text))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["\n", "\r\n", "\r"]), st.integers(8192 - 16, 3 * 8192),
           st.booleans())
    def test_non_ascii_line_across_read_chunks(self, tmp_path_factory, eol, offset,
                                               labeled):
        rng = np.random.default_rng(offset)
        rows = [f"# d=5 n=400 labeled={int(labeled)}"]
        for i in range(400):
            label = i % 3 if labeled else -1
            rows.append(" ".join([str(label), *map(repr, rng.normal(size=5).tolist())]))
        data = bytearray((eol.join(rows) + eol).encode("ascii"))
        offset = min(offset, len(data) - 1)
        data[offset] = 0xE9
        path = tmp_path_factory.mktemp("chunks") / "feats.txt"
        path.write_bytes(bytes(data))
        before = bytes(data[:offset])
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        expected = f"{path}: line {line}: non-ASCII byte 0xe9"
        with pytest.raises(ValueError) as oracle:
            reference_load(path)
        assert str(oracle.value) == expected
        with pytest.raises(ValueError) as got:
            load_features(path)
        assert str(got.value) == expected

    @pytest.mark.parametrize("offset", [8192, 8193, 8320, 12345, 16384, 20000])
    def test_non_ascii_after_a_read_chunk_that_ends_in_cr(self, tmp_path, offset):
        # every line is 128 bytes and ends in \r, so each read chunk of a
        # multiple of 128 bytes ends in a \r that the reader holds back
        lines = ["# d=2 n=200 labeled=1"] + [f"{i % 4} 0.5 {i}.25" for i in range(200)]
        data = bytearray("".join(f"{line:<127}\r" for line in lines).encode("ascii"))
        data[offset] = 0xE9
        path = tmp_path / "feats.txt"
        path.write_bytes(bytes(data))
        expected = f"{path}: line {offset // 128 + 1}: non-ASCII byte 0xe9"
        with pytest.raises(ValueError) as got:
            load_features(path)
        assert str(got.value) == expected

    def test_load_holds_the_matrix_plus_a_few_lines(self, tmp_path, rng):
        d, n = 64, 4000
        ds = DomainDataset(rng.normal(size=(d, n)), labels=rng.integers(0, 9, size=n))
        path = tmp_path / "big.txt"
        save_features(ds, path)
        line_bytes = path.stat().st_size / n
        tracemalloc.start()
        try:
            load_features(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # matrix, the finiteness check's one-byte mask, two label vectors and
        # a few lines; the text itself is 2.6 times the matrix
        bound = d * n * 9 + n * 16 + 16 * line_bytes
        assert peak <= bound, (peak, bound)


_GAPS = st.sampled_from([" ", "  ", "\t", " \t", "\t \t", "   "])
_BAD_VALUES = ["abc", "1.2.3", "1e", "--1", "0x10", "1,5", ".", "1_5", "nan", "inf",
               "-Infinity", "1e999"]
_MUTATIONS = ["value", "short", "long", "label", "duplicate_header", "surplus",
              "missing"]


def _value_token(draw):
    # below 1e307, so that no format rounds a value up to inf
    x = draw(st.floats(min_value=-1e307, max_value=1e307))
    fmt = draw(st.sampled_from(["{!r}", "{:.3e}", "{:+.6g}", "{:E}", "{:.2f}", "{:+.17g}"]))
    return fmt.format(x)


@st.composite
def feature_files(draw, mutate):
    """(text, mutation) for a file of random shape, spacing and line ends.

    With ``mutate``, one row, the header count or the row list is broken in
    one of the ways the format rejects.
    """
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    labeled = draw(st.booleans())
    rows = []
    for _ in range(n):
        label = str(draw(st.integers(0, 10**6))) if labeled else "-1"
        rows.append([label] + [_value_token(draw) for _ in range(d)])
    header = f"# d={d} n={n} labeled={int(labeled)}"
    extra = []
    mutation = draw(st.sampled_from(_MUTATIONS)) if mutate else None
    i = draw(st.integers(0, n - 1))
    if mutation == "value":
        rows[i][draw(st.integers(1, d))] = draw(st.sampled_from(_BAD_VALUES))
    elif mutation == "short":
        rows[i].pop()
    elif mutation == "long":
        rows[i].append("1.0")
    elif mutation == "label":
        bad = ["0.5", "x", "1_0", "-1" if labeled else "3"]
        rows[i][0] = draw(st.sampled_from(bad))
    elif mutation == "duplicate_header":
        extra = [header]
    elif mutation == "surplus":
        rows.append(list(rows[i]))
    elif mutation == "missing":
        rows.pop(i)
    lines = [header]
    for j, tokens in enumerate(rows):
        lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t", " \t "]), max_size=2)))
        text = draw(st.sampled_from(["", " ", "\t"])) + tokens[0]
        for token in tokens[1:]:
            text += draw(_GAPS) + token
        lines.append(text + draw(st.sampled_from(["", " ", "\t"])))
        if j == i:
            lines.extend(extra)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ending = eol if draw(st.booleans()) else ""
    return eol.join(lines) + ending, mutation


def _error(load, path):
    try:
        load(path)
    except ValueError as exc:
        return str(exc)
    return None


class TestLoaderAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(feature_files(mutate=False))
    def test_well_formed_files_identical(self, tmp_path_factory, case):
        text, _ = case
        path = tmp_path_factory.mktemp("good") / "feats.txt"
        path.write_bytes(text.encode("ascii"))
        features, labels = reference_load(path)
        ds = load_features(path)
        assert ds.features.tobytes() == features.tobytes()
        assert (ds.labels is None) == (labels is None)
        if labels is not None:
            np.testing.assert_array_equal(ds.labels, labels)

    @settings(max_examples=300, deadline=None)
    @given(feature_files(mutate=True))
    def test_mutated_files_fail_like_reference(self, tmp_path_factory, case):
        text, mutation = case
        path = tmp_path_factory.mktemp("bad") / "feats.txt"
        path.write_bytes(text.encode("ascii"))
        expected = _error(reference_load, path)
        assert expected is not None
        assert _error(load_features, path) == expected, mutation


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
