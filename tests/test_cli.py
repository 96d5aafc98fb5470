import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from splda import cli
from splda.cli import main
from splda.data import DomainDataset, RunConfig
from splda.dataio import gen_synthetic, load_features, save_features
from splda.pipeline import run


@pytest.fixture
def pair_files(tmp_path):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    code = main(["synth", "--classes", "4", "--per-class", "15", "--dim", "10",
                 "--shift", "2.0", "--seed", "5",
                 "--out-source", str(src), "--out-target", str(tgt)])
    assert code == 0
    return src, tgt


def run_adapt(pair_files, tmp_path, *extra):
    src, tgt = pair_files
    report = tmp_path / "report.json"
    args = ["adapt", "--source", str(src), "--target", str(tgt),
            "--d1", "10", "--d2", "8", "--iters", "3",
            "--report", str(report)]
    code = main(args + list(extra))
    return code, json.loads(report.read_text())


def rank_deficient_files(tmp_path):
    # all samples live on a 2-D plane in 5-D
    rng = np.random.default_rng(0)
    plane = rng.normal(size=(5, 2))
    src = DomainDataset(plane @ rng.normal(size=(2, 12)),
                        labels=rng.integers(0, 2, size=12))
    tgt = DomainDataset(plane @ rng.normal(size=(2, 12)),
                        eval_labels=rng.integers(0, 2, size=12),
                        domain="target")
    src_path, tgt_path = tmp_path / "s.txt", tmp_path / "t.txt"
    save_features(src, src_path)
    save_features(tgt, tgt_path)
    return src_path, tgt_path


def too_few_target_files(tmp_path):
    # six source classes but only four target samples: k-means needs six
    rng = np.random.default_rng(2)
    src = DomainDataset(rng.normal(size=(5, 18)), labels=np.repeat(np.arange(6), 3))
    tgt = DomainDataset(rng.normal(size=(5, 4)), domain="target")
    src_path, tgt_path = tmp_path / "s6.txt", tmp_path / "t4.txt"
    save_features(src, src_path)
    save_features(tgt, tgt_path)
    return src_path, tgt_path


def deficient_too_few_target_files(tmp_path):
    # six classes on a 2-D plane in 5-D and four targets: PCA at d1=4
    # truncates with a warning, and k-means needs six targets
    rng = np.random.default_rng(3)
    plane = rng.normal(size=(5, 2))
    src = DomainDataset(plane @ rng.normal(size=(2, 18)), labels=np.repeat(np.arange(6), 3))
    tgt = DomainDataset(plane @ rng.normal(size=(2, 4)), domain="target")
    src_path, tgt_path = tmp_path / "s6p.txt", tmp_path / "t4p.txt"
    save_features(src, src_path)
    save_features(tgt, tgt_path)
    return src_path, tgt_path


@pytest.fixture
def loaded(monkeypatch):
    """Paths that ``cli.load_features`` is called with, in call order."""
    paths = []
    real_load = cli.load_features

    def counting_load(path, *args, **kwargs):
        paths.append(str(path))
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(cli, "load_features", counting_load)
    return paths


def run_ablate(tmp_path, pairs, *extra, name="ablate.json"):
    report = tmp_path / name
    args = ["ablate", "--d1", "4", "--d2", "2", "--iters", "2", "--report", str(report)]
    for src, tgt in pairs:
        args += ["--source", str(src), "--target", str(tgt)]
    code = main(args + list(extra))
    return code, report.read_text()


class TestAdapt:
    def test_end_to_end(self, pair_files, tmp_path, capsys):
        code, report = run_adapt(pair_files, tmp_path)
        assert code == 0
        assert report["schema_version"] == 3
        assert report["command"] == "adapt"
        task = report["tasks"][0]
        assert task["status"] == "ok"
        assert len(task["predictions"]) == 60
        assert task["config"]["labeling"] == "fused"
        assert len(task["iteration_accuracy"]) == 4
        assert task["final_accuracy"] == task["iteration_accuracy"][-1]
        assert task["wall_time_s"] > 0
        out = capsys.readouterr().out
        assert f"{task['final_accuracy']:.1f}" in out

    def test_batch_average_recomputes(self, pair_files, tmp_path):
        src, tgt = pair_files
        report_path = tmp_path / "r.json"
        code = main(["adapt", "--source", str(src), "--target", str(tgt),
                     "--source", str(src), "--target", str(tgt),
                     "--d1", "10", "--d2", "8", "--iters", "2",
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        finals = [t["final_accuracy"] for t in report["tasks"]]
        assert report["batch"]["average_final_accuracy"] == sum(finals) / len(finals)
        assert report["batch"]["task_count"] == 2

    def test_failed_task_marked_without_aborting_batch(self, pair_files, tmp_path,
                                                       capsys):
        src, tgt = pair_files
        report_path = tmp_path / "r.json"
        code = main(["adapt", "--source", str(src), "--target", str(tgt),
                     "--source", str(tmp_path / "missing.txt"), "--target", str(tgt),
                     "--d1", "10", "--d2", "8", "--iters", "2",
                     "--report", str(report_path)])
        assert code == 1
        report = json.loads(report_path.read_text())
        statuses = [t["status"] for t in report["tasks"]]
        assert statuses == ["ok", "failed"]
        assert report["batch"]["failed"] == 1
        assert report["tasks"][1]["error"]
        assert "error [" in capsys.readouterr().err

    def test_pair_count_mismatch(self, pair_files, capsys):
        src, tgt = pair_files
        with pytest.raises(SystemExit) as exit_info:
            main(["adapt", "--source", str(src), "--source", str(src),
                  "--target", str(tgt), "--d1", "10"])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["splda adapt: error: --source and --target counts differ"]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, pair_files, capsys, jobs):
        src, tgt = pair_files
        with pytest.raises(SystemExit) as exit_info:
            main(["adapt", "--source", str(src), "--target", str(tgt), "--d1", "10",
                  "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_deterministic_reports_without_timing(self, pair_files, tmp_path):
        _, first = run_adapt(pair_files, tmp_path, "--no-timing")
        _, second = run_adapt(pair_files, tmp_path, "--no-timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert first["tasks"][0]["wall_time_s"] is None

    def test_parallel_jobs_match_serial(self, pair_files, tmp_path):
        src, tgt = pair_files
        reports = []
        for jobs in ("1", "2"):
            path = tmp_path / f"r{jobs}.json"
            code = main(["adapt", "--source", str(src), "--target", str(tgt),
                         "--source", str(src), "--target", str(tgt),
                         "--d1", "10", "--d2", "8", "--iters", "2",
                         "--jobs", jobs, "--no-timing", "--report", str(path)])
            assert code == 0
            reports.append(path.read_text())
        assert reports[0] == reports[1]

    def test_serial_batch_holds_one_prepared_pair_above_one_pair(self, tmp_path):
        # each pair prepares into 48 x 300 doubles; a batch that prepared
        # every pair before its cells would hold three more at its peak
        pair_bytes = 48 * 300 * 8
        pairs = []
        for seed in range(4):
            paths = [tmp_path / f"s{seed}.txt", tmp_path / f"t{seed}.txt"]
            for side, path in zip(gen_synthetic(3, 50, 64, 2.0, seed=seed), paths):
                save_features(side, path)
            pairs.append(["--source", str(paths[0]), "--target", str(paths[1])])
        config = ["adapt", "--d1", "48", "--d2", "8", "--iters", "1", "--no-timing"]

        def peak(count):
            tracemalloc.start()
            try:
                assert main(config + sum(pairs[:count], [])) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(config + pairs[0])  # whatever the first run caches is not a pair
        assert peak(4) - peak(1) <= 1.5 * pair_bytes

    def test_task_is_result_dict_plus_task_fields(self, pair_files, tmp_path):
        _, report = run_adapt(pair_files, tmp_path, "--no-timing")
        task = report["tasks"][0]
        for field in ("source", "target", "status", "error", "wall_time_s"):
            del task[field]
        src = load_features(pair_files[0])
        tgt = load_features(pair_files[1], domain="target")
        result = run(src, tgt, RunConfig(pca_dim=10, subspace_dim=8, iterations=3))
        assert result.to_dict() == task

    def test_warnings_mirrored_to_stderr_and_report(self, tmp_path, capsys):
        src_path, tgt_path = rank_deficient_files(tmp_path)
        report_path = tmp_path / "r.json"
        code = main(["adapt", "--source", str(src_path), "--target", str(tgt_path),
                     "--d1", "4", "--d2", "2", "--iters", "2",
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        warnings = report["tasks"][0]["warnings"]
        assert any("rank" in w for w in warnings)
        err = capsys.readouterr().err
        assert "rank" in err

    def test_unlabeled_target_gets_predictions(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        names = np.array([3, 7, 11])
        centers = 6.0 * rng.normal(size=(6, 3))
        ys = np.repeat([0, 1, 2], 8)
        yt = np.repeat([0, 1, 2], 5)
        src = DomainDataset(centers[:, ys] + rng.normal(size=(6, ys.size)),
                            labels=names[ys])
        tgt = DomainDataset(centers[:, yt] + rng.normal(size=(6, yt.size)),
                            domain="target")
        src_path, tgt_path = tmp_path / "s.txt", tmp_path / "t.txt"
        save_features(src, src_path)
        save_features(tgt, tgt_path)
        assert tgt_path.read_text().startswith("# d=6 n=15 labeled=0")
        report_path = tmp_path / "r.json"
        code = main(["adapt", "--source", str(src_path), "--target", str(tgt_path),
                     "--d1", "6", "--d2", "3", "--iters", "2",
                     "--report", str(report_path)])
        assert code == 0
        task = json.loads(report_path.read_text())["tasks"][0]
        assert task["status"] == "ok"
        assert task["final_accuracy"] is None
        assert len(task["predictions"]) == yt.size
        assert set(task["predictions"]) <= set(names.tolist())
        assert "n/a" in capsys.readouterr().out


class TestAblate:
    def test_grid_records(self, pair_files, tmp_path):
        src, tgt = pair_files
        report_path = tmp_path / "ablate.json"
        code = main(["ablate", "--source", str(src), "--target", str(tgt),
                     "--d1", "10", "--d2", "8", "--iters", "2",
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["command"] == "ablate"
        combos = {(t["config"]["labeling"], t["config"]["selection"])
                  for t in report["tasks"]}
        assert len(report["tasks"]) == 9
        assert len(combos) == 9
        assert all(len(t["predictions"]) == 60 for t in report["tasks"])

    def test_loads_each_file_once(self, pair_files, tmp_path, loaded):
        code, _ = run_ablate(tmp_path, [pair_files])
        assert code == 0
        assert sorted(loaded) == sorted(str(p) for p in pair_files)

    def test_bad_config_fails_before_loading(self, pair_files, tmp_path, loaded):
        pairs = [pair_files, rank_deficient_files(tmp_path)]
        code, text = run_ablate(tmp_path, pairs, "--d2", "5")
        assert code == 1
        assert loaded == []
        tasks = json.loads(text)["tasks"]
        assert len(tasks) == 18
        assert {t["status"] for t in tasks} == {"failed"}
        assert {t["error"] for t in tasks} == {
            "ValueError: subspace_dim must satisfy 1 <= subspace_dim <= pca_dim, "
            "got 5 vs pca_dim=4"}

    def test_parallel_jobs_match_serial(self, pair_files, tmp_path):
        pairs = [pair_files, rank_deficient_files(tmp_path),
                 too_few_target_files(tmp_path)]
        _, serial = run_ablate(tmp_path, pairs, "--jobs", "1", "--no-timing",
                               name="serial.json")
        code, parallel = run_ablate(tmp_path, pairs, "--jobs", "2", "--no-timing",
                                    name="parallel.json")
        assert serial == parallel
        assert code == 1
        tasks = json.loads(serial)["tasks"]
        assert len(tasks) == 27
        assert {t["status"] for t in tasks[:18]} == {"ok"}
        # the third pair prepares, then its cluster-based cells fail in the loop
        ncp, clustered = tasks[18:21], tasks[21:]
        assert {t["config"]["labeling"] for t in ncp} == {"ncp"}
        assert {t["status"] for t in ncp} == {"ok"}
        assert {t["status"] for t in clustered} == {"failed"}
        assert {t["error"] for t in clustered} == {
            "ValueError: need at least 6 target samples, got 4"}

    def test_pair_that_fails_to_prepare(self, pair_files, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("# d=10 n=2 labeled=0\n-1 1 2\n")
        pairs = [(pair_files[0], bad), pair_files]
        code, text = run_ablate(tmp_path, pairs)
        assert code == 1
        tasks = json.loads(text)["tasks"]
        failed, ok = tasks[:9], tasks[9:]
        assert {t["status"] for t in failed} == {"failed"}
        assert len({t["error"] for t in failed}) == 1
        assert failed[0]["error"].startswith("ValueError: ")
        assert all(t["predictions"] is None for t in failed)
        assert {t["status"] for t in ok} == {"ok"}
        assert json.loads(text)["batch"]["failed"] == 9

    def test_prepare_warnings_reach_every_cell(self, tmp_path):
        code, text = run_ablate(tmp_path, [rank_deficient_files(tmp_path)])
        assert code == 0
        tasks = json.loads(text)["tasks"]
        assert len(tasks) == 9
        for task in tasks:
            assert task["status"] == "ok"
            assert "rank" in task["warnings"][0]

    def test_failed_cells_keep_their_pairs_prepare_warnings(self, tmp_path):
        code, text = run_ablate(tmp_path, [deficient_too_few_target_files(tmp_path)])
        assert code == 1
        tasks = json.loads(text)["tasks"]
        ncp, clustered = tasks[:3], tasks[3:]
        assert {t["status"] for t in ncp} == {"ok"}
        assert {t["error"] for t in clustered} == {
            "ValueError: need at least 6 target samples, got 4"}
        rank = "requested 4 principal components but the numerical rank is 2; truncating"
        assert all(t["warnings"][0] == rank for t in ncp)
        assert all(t["warnings"] == [rank] for t in clustered)

    def test_stderr_prints_each_pair_message_once(self, pair_files, tmp_path, capsys):
        deficient = rank_deficient_files(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("# d=10 n=2 labeled=0\n-1 1 2\n")
        code, text = run_ablate(tmp_path, [deficient, (pair_files[0], bad)])
        assert code == 1
        tasks = json.loads(text)["tasks"]
        assert all(len(t["warnings"]) == 1 for t in tasks[:9])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"warning [{deficient[0]} -> {deficient[1]}]: ")
        assert "rank" in lines[0]
        assert lines[1].startswith(f"error [{pair_files[0]} -> {bad}]: ValueError: ")


class TestBaseline:
    def test_baseline_runs(self, pair_files, tmp_path, capsys):
        src, tgt = pair_files
        report_path = tmp_path / "base.json"
        code = main(["baseline-1nn", "--source", str(src), "--target", str(tgt),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["command"] == "baseline-1nn"
        acc = report["tasks"][0]["final_accuracy"]
        assert 0.0 <= acc <= 100.0

    def test_overstated_header_is_a_line_1_task_error(self, pair_files, tmp_path, capsys):
        src, _ = pair_files
        bad = tmp_path / "big.txt"
        bad.write_text("# d=4096 n=1000000000 labeled=1\n0 1.0\n")
        report_path = tmp_path / "base.json"
        code = main(["baseline-1nn", "--source", str(src), "--target", str(bad),
                     "--report", str(report_path)])
        assert code == 1
        error = json.loads(report_path.read_text())["tasks"][0]["error"]
        assert f"{bad}: line 1: header declares n=1000000000" in error
        err = capsys.readouterr().err
        assert "line 1: header declares" in err and "MemoryError" not in err

    def test_warnings_mirrored_to_stderr_and_report(self, tmp_path, capsys, recwarn):
        features = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        src = DomainDataset(features, labels=[0, 0, 1])
        tgt = DomainDataset(features[:, 1:], eval_labels=[0, 1], domain="target")
        src_path, tgt_path = tmp_path / "s.txt", tmp_path / "t.txt"
        save_features(src, src_path)
        save_features(tgt, tgt_path)
        report_path = tmp_path / "r.json"
        code = main(["baseline-1nn", "--source", str(src_path), "--target", str(tgt_path),
                     "--report", str(report_path)])
        assert code == 0
        message = "1 zero-norm column(s) left unnormalized"
        assert json.loads(report_path.read_text())["tasks"][0]["warnings"] == [message]
        err = capsys.readouterr().err
        assert err.count(f"warning [{src_path} -> {tgt_path}]: {message}") == 1
        assert len(recwarn) == 0


@pytest.mark.parametrize("scale, message", [
    ("1e200", "features reach magnitude 1.99e+200; with d=10 and n=120"),
    ("1e-200", "features reach only magnitude 1.99e-200; their squares underflow"),
])
@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("command", ["baseline-1nn", "adapt"])
def test_feature_scale_is_a_one_line_error(pair_files, tmp_path, capsys, command, side,
                                           scale, message):
    paths = list(pair_files)
    i = ("source", "target").index(side)
    data = load_features(paths[i], domain=side)
    # the largest magnitude is 1.99 times the scale
    features = np.full(data.features.shape, 1.5)
    features[0, 0] = 1.99
    paths[i] = tmp_path / f"{side}-scaled.txt"
    save_features(replace(data, features=features * float(scale)), paths[i])
    args = [command, "--source", str(paths[0]), "--target", str(paths[1])]
    if command == "adapt":
        args += ["--d1", "10", "--d2", "8", "--iters", "2"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count("error") == 1, err
    assert f"ValueError: {side} {message}" in err, err


class TestReportPath:
    COMMANDS = {"adapt": ["--d1", "10", "--d2", "8", "--iters", "3"],
                "ablate": ["--d1", "10", "--d2", "8", "--iters", "3"],
                "baseline-1nn": []}

    @pytest.mark.parametrize("report", ["nodir/r.json", "adir"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_report_fails_before_loading(self, pair_files, tmp_path,
                                                    monkeypatch, capsys, loaded,
                                                    command, report):
        src, tgt = pair_files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        code = main([command, "--source", str(src), "--target", str(tgt),
                     *self.COMMANDS[command], "--report", report])
        assert code == 2
        out = capsys.readouterr()
        assert out.err.startswith(f"error: cannot write {report}: ")
        assert out.err.count("\n") == 1 and out.out == ""
        assert loaded == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert list((tmp_path / "adir").iterdir()) == []

    def test_failed_report_write_leaves_no_file(self, pair_files, tmp_path,
                                                monkeypatch, capsys):
        def full_disk(report, path):
            with open(path, "w") as fh:
                fh.write("{")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_write_report", full_disk)
        src, tgt = pair_files
        report = tmp_path / "r.json"
        code = main(["baseline-1nn", "--source", str(src), "--target", str(tgt),
                     "--report", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {report}: No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src.txt", "tgt.txt"]

    def test_report_moved_into_place(self, pair_files, tmp_path):
        code, report = run_adapt(pair_files, tmp_path)
        assert code == 0 and report["batch"]["failed"] == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["report.json", "src.txt", "tgt.txt"]


class TestSynth:
    def test_files_loadable(self, pair_files):
        src = load_features(pair_files[0])
        tgt = load_features(pair_files[1], domain="target")
        assert src.dim == tgt.dim == 10
        assert src.labels is not None
        assert tgt.eval_labels is not None

    @pytest.mark.parametrize("flag, value, message", [
        ("--classes", "1", "need at least 2 classes, got 1"),
        ("--per-class", "1", "need at least 2 samples per class, got 1"),
        ("--dim", "1", "need at least 2 dimensions, got 1"),
        ("--shift", "nan", "shift_magnitude must be finite, got nan"),
        ("--separation", "inf", "separation must be finite, got inf"),
    ])
    def test_bad_input_is_a_one_line_error(self, tmp_path, capsys, flag, value,
                                           message):
        args = {"--classes": "3", "--per-class": "4", "--dim": "5", "--shift": "1.0"}
        args[flag] = value
        src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
        argv = ["synth", *(x for item in args.items() for x in item),
                "--out-source", str(src), "--out-target", str(tgt)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not src.exists() and not tgt.exists()

    SYNTH = ["synth", "--classes", "3", "--per-class", "4", "--dim", "5", "--shift", "1.0"]

    @pytest.mark.parametrize("target", ["nodir/t.txt", "adir"])
    def test_unwritable_target_leaves_no_file(self, tmp_path, monkeypatch, capsys, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([*self.SYNTH, "--out-source", "s.txt", "--out-target", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_one_path_for_both_holds_the_target(self, tmp_path):
        both = tmp_path / "both.txt"
        assert main([*self.SYNTH, "--out-source", str(both), "--out-target", str(both)]) == 0
        assert load_features(both, domain="target").eval_labels is not None
        assert [p.name for p in tmp_path.iterdir()] == ["both.txt"]

    def test_negative_seed_rejected_by_name(self, tmp_path, capsys):
        src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
        with pytest.raises(SystemExit) as exit_info:
            main([*self.SYNTH, "--seed", "-1", "--out-source", str(src),
                  "--out-target", str(tgt)])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert errors == ["splda synth: error: argument --seed: must be at least 0, got -1"]
        assert not src.exists() and not tgt.exists()
