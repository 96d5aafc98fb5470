import json

import numpy as np
import pytest

from splda import cli
from splda.cli import main
from splda.data import DomainDataset
from splda.dataio import save_features


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
        assert report["schema_version"] == 2
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
                     "--seed", "1", "--report", str(report_path)])
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

    def test_pair_count_mismatch(self, pair_files):
        src, tgt = pair_files
        with pytest.raises(SystemExit):
            main(["adapt", "--source", str(src), "--source", str(src),
                  "--target", str(tgt), "--d1", "10"])

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, pair_files, capsys, jobs):
        src, tgt = pair_files
        with pytest.raises(SystemExit) as exit_info:
            main(["adapt", "--source", str(src), "--target", str(tgt), "--d1", "10",
                  "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_deterministic_reports_without_timing(self, pair_files, tmp_path):
        _, first = run_adapt(pair_files, tmp_path, "--no-timing", "--seed", "3")
        _, second = run_adapt(pair_files, tmp_path, "--no-timing", "--seed", "3")
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

    def test_loads_each_file_once(self, pair_files, tmp_path, monkeypatch):
        loaded = []
        real_load = cli.load_features

        def counting_load(path, *args, **kwargs):
            loaded.append(str(path))
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(cli, "load_features", counting_load)
        code, _ = run_ablate(tmp_path, [pair_files])
        assert code == 0
        assert sorted(loaded) == sorted(str(p) for p in pair_files)

    def test_parallel_jobs_match_serial(self, pair_files, tmp_path):
        pairs = [pair_files, rank_deficient_files(tmp_path)]
        _, serial = run_ablate(tmp_path, pairs, "--jobs", "1", "--no-timing",
                               name="serial.json")
        _, parallel = run_ablate(tmp_path, pairs, "--jobs", "2", "--no-timing",
                                 name="parallel.json")
        assert serial == parallel
        assert len(json.loads(serial)["tasks"]) == 18

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


class TestSynth:
    def test_files_loadable(self, pair_files):
        from splda.dataio import load_features
        src = load_features(pair_files[0])
        tgt = load_features(pair_files[1], domain="target")
        assert src.dim == tgt.dim == 10
        assert src.labels is not None
        assert tgt.eval_labels is not None
