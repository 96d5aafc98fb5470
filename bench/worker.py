"""One round of a benchmark workload, in a process of its own.

    python3 bench/worker.py <workload> <seed> <trace 0|1> <work dir>

Generates the workload's inputs (timed as set-up: for a library round the
median of ``SETUP_REPEATS`` repeats), performs its operations, checks their
outputs against figures the benchmark computes itself and prints one JSON
object. ``bench/run.py`` starts this script with BLAS pinned to one thread
and ``src`` on the import path.

A library round calls ``splda.pipeline.run`` in this process. A file round
writes the two feature files and runs ``splda baseline-1nn`` and
``splda ablate --jobs 1`` as child processes, timed from start to exit.
"""

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracer
from workloads import SHAPES, generate, own_1nn

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is short and noisy next to the operations, so each library round
# repeats it and reports the median. Writing the feature files takes seconds,
# so a file round makes them once and the run's median over its rounds (at
# least three) is kept.
SETUP_REPEATS = 3


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _accuracy(predictions, truth) -> float:
    return 100.0 * float(np.mean(np.asarray(predictions) == np.asarray(truth)))


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


def _timed_setup(make, repeats: int):
    """Make the inputs ``repeats`` times; return them and the median time."""
    times = []
    for _ in range(repeats):
        made = None  # drop the previous inputs before making the next
        started = time.perf_counter()
        made = make()
        times.append(time.perf_counter() - started)
    return made, statistics.median(times)


def adapt_round(name: str, seed: int, trace: bool) -> dict:
    """One ``pipeline.run`` call plus the label-id round trip of its output."""
    shape = SHAPES[name]
    inputs, setup_s = _timed_setup(lambda: generate(shape, seed), SETUP_REPEATS)

    traced = tracer.install() if trace else None
    from splda import DomainDataset, RunConfig, pipeline

    src = DomainDataset(inputs.xs, labels=inputs.ys, domain="source")
    tgt = DomainDataset(inputs.xt, eval_labels=inputs.yt, domain="target")
    config = RunConfig(pca_dim=shape.d1, subspace_dim=shape.d2,
                       iterations=shape.iterations)
    cpu0 = _cpu_seconds()
    started = time.perf_counter()
    result = pipeline.run(src, tgt, config)
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    predictions = np.asarray(result.predictions)
    n_target = inputs.yt.size
    reported = result.final_accuracy
    nn_acc = _accuracy(own_1nn(inputs), inputs.yt)
    # Names 1..C encode to dense ids 0..C-1; the reported accuracy must match
    # the predictions read in one of the two id spaces.
    readings = {"dense": _accuracy(predictions, inputs.yt - 1),
                "ids": _accuracy(predictions, inputs.yt)}
    matched = [k for k, acc in readings.items() if reported is not None and _same(acc, reported)]
    in_range = (predictions.shape == (n_target,)
                and np.issubdtype(predictions.dtype, np.integer)
                and (np.isin(predictions, np.arange(shape.classes)).all()
                     or np.isin(predictions, np.arange(1, shape.classes + 1)).all()))
    snapshots = result.snapshots
    adapt_checks = {
        "predictions_shape_and_range": bool(in_range),
        "accuracy_recomputed": bool(matched),
        "beats_own_1nn": bool(matched) and readings[matched[0]] > nn_acc,
        "snapshot_count": len(snapshots) == shape.iterations + 1,
        "final_selected_is_n_target": snapshots[-1].selected_count == n_target,
    }
    id_checks = {
        "predictions_in_label_ids": bool(np.isin(predictions, inputs.ys).all()),
        "accuracy_in_label_ids": reported is not None and _same(readings["ids"], reported),
    }
    return {
        "ops": [{"name": "adapt", "ok": all(adapt_checks.values()), "known_fault": False,
                 "checks": adapt_checks},
                {"name": "label_id_round_trip", "ok": all(id_checks.values()),
                 "known_fault": True, "checks": id_checks}],
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "output_hash": hashlib.sha256(predictions.astype(np.int64).tobytes()).hexdigest(),
        "accuracy": reported, "own_1nn_accuracy": nn_acc,
        "stats": traced.stats if traced else None,
    }


def _run_cli(argv: list, trace_out: str | None, log_path: str) -> dict:
    """Run one ``splda`` command; wall from start to exit, rusage of the child."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "splda", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_out, *argv]
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
    return {"exit": proc.returncode, "wall_s": wall_s,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0}


def _read_report(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    except (OSError, ValueError):
        return b"", None


def files_round(name: str, seed: int, trace: bool, work: str) -> dict:
    """Write the feature-file pair, then run baseline-1nn and ablate on it."""
    from splda import DomainDataset, save_features

    shape = SHAPES[name]
    src_path = os.path.join(work, "source.txt")
    tgt_path = os.path.join(work, "target.txt")

    def write_pair():
        made = generate(shape, seed)
        save_features(DomainDataset(made.xs, labels=made.ys, domain="source"), src_path)
        save_features(DomainDataset(made.xt, eval_labels=made.yt, domain="target"), tgt_path)
        return made

    inputs, setup_s = _timed_setup(write_pair, 1)

    pair = ["--source", src_path, "--target", tgt_path]
    config = ["--d1", str(shape.d1), "--d2", str(shape.d2), "--iters", str(shape.iterations)]
    commands = {
        "baseline": ["baseline-1nn", *pair, "--no-timing"],
        "ablate": ["ablate", *pair, *config, "--jobs", "1", "--no-timing"],
    }
    runs, reports, raw = {}, {}, b""
    for key, argv in commands.items():
        report_path = os.path.join(work, f"{key}.json")
        trace_out = os.path.join(work, f"{key}.trace.json") if trace else None
        for stale in (report_path, trace_out):  # left by the previous round
            if stale and os.path.exists(stale):
                os.remove(stale)
        runs[key] = _run_cli([*argv, "--report", report_path], trace_out,
                             os.path.join(work, f"{key}.log"))
        data, reports[key] = _read_report(report_path)
        raw += data

    n_target = inputs.yt.size
    nn_acc = _accuracy(own_1nn(inputs), inputs.yt)
    base = reports["baseline"]
    base_tasks = base["tasks"] if base else []
    base_checks = {
        "exit_ok": runs["baseline"]["exit"] == 0,
        "one_ok_task": len(base_tasks) == 1 and base_tasks[0]["status"] == "ok",
        "within_one_sample_of_own_1nn": len(base_tasks) == 1
        and base_tasks[0]["final_accuracy"] is not None
        and abs(base_tasks[0]["final_accuracy"] - nn_acc) <= 100.0 / n_target + 1e-9,
    }
    ablate = reports["ablate"]
    cells = {(t["config"]["labeling"], t["config"]["selection"]): t
             for t in (ablate["tasks"] if ablate else [])}
    expected_final = {"none": 0, "all": n_target, "progressive": n_target}
    grid = [(lab, sel) for lab in ("ncp", "sp", "fused") for sel in expected_final]
    ablate_checks = {
        "exit_ok": runs["ablate"]["exit"] == 0,
        "full_grid": ablate is not None and len(ablate["tasks"]) == len(grid)
        and sorted(cells) == sorted(grid),
        "all_cells_ok": bool(cells) and all(t["status"] == "ok" for t in cells.values()),
        "final_selected_counts": bool(cells) and all(
            t["selected_counts"] is not None
            and len(t["selected_counts"]) == shape.iterations + 1
            and t["selected_counts"][-1] == expected_final[t["config"]["selection"]]
            for t in cells.values()),
        "progressive_beats_own_1nn": bool(cells) and all(
            cells[(lab, "progressive")]["final_accuracy"] is not None
            and cells[(lab, "progressive")]["final_accuracy"] > nn_acc
            for lab in ("ncp", "sp", "fused") if (lab, "progressive") in cells),
    }
    stats = None
    if trace:
        stats = {}
        for key in commands:
            path = os.path.join(work, f"{key}.trace.json")
            with open(path, encoding="utf-8") as fh:
                for fn, stat in json.load(fh).items():
                    total = stats.setdefault(fn, dict.fromkeys(stat, 0))
                    for field, value in stat.items():
                        total[field] += value
    return {
        "ops": [{"name": "baseline-1nn", "ok": all(base_checks.values()),
                 "known_fault": False, "checks": base_checks},
                {"name": "ablate", "ok": all(ablate_checks.values()),
                 "known_fault": False, "checks": ablate_checks}],
        "setup_s": setup_s,
        "wall_s": sum(r["wall_s"] for r in runs.values()),
        "cpu_s": sum(r["cpu_s"] for r in runs.values()),
        "peak_rss_mib": max(r["peak_rss_mib"] for r in runs.values()),
        "output_hash": hashlib.sha256(raw).hexdigest(),
        "accuracy": cells.get(("fused", "progressive"), {}).get("final_accuracy"),
        "own_1nn_accuracy": nn_acc,
        "stats": stats,
    }


def main(argv) -> int:
    name, seed, trace, work = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    if name not in SHAPES:
        raise SystemExit(f"unknown workload {name!r}")
    if SHAPES[name].files:
        out = files_round(name, seed, trace, work)
    else:
        out = adapt_round(name, seed, trace)
    out["env"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
