"""Command-line front end: adapt, ablate, synth and baseline-1nn.

Batch tasks run independently (optionally in parallel); one failing task
marks its record as failed and flips the exit code but never aborts its
siblings. ``adapt`` and ``ablate`` load and prepare each source/target pair
once, then run each of its configs (one for adapt, the nine grid cells for
ablate) on the prepared pair as a task of its own. Reports are single JSON
documents with a fixed schema version, serialized with sorted keys so equal
results produce equal bytes.

Each command imports only what it runs: ``pipeline``, and with it scipy, is
imported inside the ``adapt``/``ablate`` workers, so ``synth``,
``baseline-1nn`` and ``--help`` never load scipy; the process pool is
imported only when ``--jobs`` is above 1.
"""

import argparse
import json
import sys
import time
from contextlib import contextmanager

from .data import LABELING_MODES, RunConfig, SELECTION_MODES
from .dataio import gen_synthetic, load_features, nn_baseline, save_features

REPORT_SCHEMA_VERSION = 2


def build_report(command: str, records: list) -> dict:
    finals = [r["final_accuracy"] for r in records
              if r["status"] == "ok" and r["final_accuracy"] is not None]
    batch = {
        "task_count": len(records),
        "failed": sum(1 for r in records if r["status"] != "ok"),
        "average_final_accuracy": sum(finals) / len(finals) if finals else None,
    }
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "tasks": records,
        "batch": batch,
    }


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _record(source: str, target: str, config: dict) -> dict:
    return {
        "source": source,
        "target": target,
        "config": config,
        "status": "ok",
        "iteration_accuracy": None,
        "selected_counts": None,
        "final_accuracy": None,
        "predictions": None,
        "wall_time_s": None,
        "warnings": [],
        "error": None,
    }


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _baseline_task(task: dict) -> dict:
    """Worker for one 1NN baseline; returns a report record."""
    record = _record(task["source"], task["target"], {})
    started = time.perf_counter()
    try:
        src = load_features(task["source"], domain="source")
        tgt = load_features(task["target"], domain="target")
        record["final_accuracy"] = nn_baseline(src, tgt)
    except Exception as exc:  # noqa: BLE001 - any task failure is reportable
        record["status"] = "failed"
        record["error"] = _describe(exc)
    record["wall_time_s"] = time.perf_counter() - started
    return record


def _prepare_task(task: dict) -> dict:
    """Worker that loads one pair and prepares it; returns the pair or the error."""
    from .pipeline import prepare

    started = time.perf_counter()
    prepared = error = None
    try:
        src = load_features(task["source"], domain="source")
        tgt = load_features(task["target"], domain="target")
        # the config is checked before the pair, as a single run checks it
        prepared = prepare(src, tgt, RunConfig(**task["config"]).pca_dim)
    except Exception as exc:  # noqa: BLE001 - any task failure is reportable
        error = _describe(exc)
    return {"prepared": prepared, "error": error,
            "wall_time_s": time.perf_counter() - started}


def _cell_task(task: dict) -> dict:
    """Worker that runs one config on a prepared pair; returns a report record."""
    from .pipeline import run_prepared

    record = _record(task["source"], task["target"], task["config"])
    started = time.perf_counter()
    try:
        result = run_prepared(task["prepared"], RunConfig(**task["config"]))
        record["iteration_accuracy"] = [s.accuracy for s in result.snapshots]
        record["selected_counts"] = [s.selected_count for s in result.snapshots]
        record["final_accuracy"] = result.final_accuracy
        record["predictions"] = result.predictions.tolist()
        record["warnings"] = list(result.warnings)
    except Exception as exc:  # noqa: BLE001 - any task failure is reportable
        record["status"] = "failed"
        record["error"] = _describe(exc)
    record["wall_time_s"] = time.perf_counter() - started
    return record


def _run_tasks(worker, tasks: list, pool) -> list:
    if pool is not None and len(tasks) > 1:
        return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


@contextmanager
def _pool(jobs: int):
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned workers start from a fresh import; forking a process that
        # may already run BLAS threads is unsafe
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            yield pool
    else:
        yield None


def _run_cells(pairs: list, configs: list, jobs: int) -> list:
    """Prepare each pair once, then run every config on it; one record per cell.

    A pair that fails to prepare gets one failed record per config, all with
    its error. Loading and preparing a pair is timed into its record only
    when the pair has a single config (adapt); ablate's cells share it, so
    each cell's time is its own loop.
    """
    with _pool(jobs) as pool:
        stage = _run_tasks(_prepare_task, [
            {"source": s, "target": t, "config": configs[0]} for s, t in pairs], pool)
        cells = [{"source": s, "target": t, "config": c, "prepared": p["prepared"]}
                 for (s, t), p in zip(pairs, stage) if p["error"] is None
                 for c in configs]
        done = iter(_run_tasks(_cell_task, cells, pool))
    records = []
    for (s, t), p in zip(pairs, stage):
        shared = p["wall_time_s"] if len(configs) == 1 else 0.0
        for c in configs:
            if p["error"] is None:
                record = next(done)
            else:
                record = _record(s, t, c)
                record.update(status="failed", error=p["error"], wall_time_s=0.0)
            record["wall_time_s"] += shared
            records.append(record)
    return records


def _finish(command: str, records: list, args) -> int:
    if args.no_timing:
        for record in records:
            record["wall_time_s"] = None
    # the cells of one pair share its prepare warnings and errors: print
    # each distinct line once, while every record keeps its own
    printed = set()
    for record in records:
        tag = f"{record['source']} -> {record['target']}"
        lines = [f"warning [{tag}]: {message}" for message in record["warnings"]]
        if record["status"] != "ok":
            lines.append(f"error [{tag}]: {record['error']}")
        for line in lines:
            if line not in printed:
                printed.add(line)
                print(line, file=sys.stderr)
    report = build_report(command, records)
    _write_report(report, args.report)
    for record in records:
        label = f"{record['source']} -> {record['target']}"
        if "labeling" in record["config"]:
            label += f" [{record['config']['labeling']}/{record['config']['selection']}]"
        acc = record["final_accuracy"]
        shown = "n/a" if acc is None else f"{acc:.1f}"
        status = "" if record["status"] == "ok" else "  FAILED"
        print(f"{label}: {shown}{status}")
    avg = report["batch"]["average_final_accuracy"]
    if avg is not None and len(records) > 1:
        print(f"average: {avg:.1f}")
    return 0 if report["batch"]["failed"] == 0 else 1


def _pairs(args) -> list:
    if len(args.source) != len(args.target):
        raise SystemExit("error: --source and --target counts differ")
    return list(zip(args.source, args.target))


def _config(args, labeling: str, selection: str) -> dict:
    return {
        "pca_dim": args.d1, "subspace_dim": args.d2, "iterations": args.iters,
        "labeling": labeling, "selection": selection, "seed": args.seed,
    }


def _cmd_adapt(args) -> int:
    configs = [_config(args, args.labeling, args.selection)]
    return _finish("adapt", _run_cells(_pairs(args), configs, args.jobs), args)


def _cmd_ablate(args) -> int:
    configs = [_config(args, labeling, selection)
               for labeling in LABELING_MODES for selection in SELECTION_MODES]
    return _finish("ablate", _run_cells(_pairs(args), configs, args.jobs), args)


def _cmd_baseline(args) -> int:
    tasks = [{"source": s, "target": t} for s, t in _pairs(args)]
    with _pool(args.jobs) as pool:
        records = _run_tasks(_baseline_task, tasks, pool)
    return _finish("baseline-1nn", records, args)


def _cmd_synth(args) -> int:
    source, target = gen_synthetic(
        classes=args.classes, per_class=args.per_class, dim=args.dim,
        shift_magnitude=args.shift, seed=args.seed, separation=args.separation,
    )
    save_features(source, args.out_source)
    save_features(target, args.out_target)
    print(f"wrote {args.out_source} and {args.out_target}")
    return 0


def _add_pair_args(parser):
    parser.add_argument("--source", action="append", required=True,
                        help="source feature file (repeatable)")
    parser.add_argument("--target", action="append", required=True,
                        help="target feature file (repeatable, paired in order)")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_batch_args(parser):
    parser.add_argument("--report", help="write the JSON report to this path")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="run up to this many tasks in parallel")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit wall times from the report (reproducible bytes)")


def _add_config_args(parser):
    parser.add_argument("--d1", type=int, required=True,
                        help="PCA dimensionality (presets: 128 Office-Caltech, "
                             "512 Office31, 128 ImageCLEF-DA, 1024 Office-Home)")
    parser.add_argument("--d2", type=int, default=128, help="subspace dimensionality")
    parser.add_argument("--iters", type=int, default=10, help="iteration count")
    parser.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splda",
        description="Unsupervised domain adaptation with selective pseudo-labeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="run adaptation on source/target pairs")
    _add_pair_args(p_adapt)
    _add_config_args(p_adapt)
    p_adapt.add_argument("--labeling", choices=list(LABELING_MODES), default="fused")
    p_adapt.add_argument("--selection", choices=list(SELECTION_MODES),
                         default="progressive")
    _add_batch_args(p_adapt)
    p_adapt.set_defaults(func=_cmd_adapt)

    p_ablate = sub.add_parser("ablate",
                              help="run the labeling x selection ablation grid")
    _add_pair_args(p_ablate)
    _add_config_args(p_ablate)
    _add_batch_args(p_ablate)
    p_ablate.set_defaults(func=_cmd_ablate)

    p_base = sub.add_parser("baseline-1nn",
                            help="1-nearest-neighbor accuracy without adaptation")
    _add_pair_args(p_base)
    _add_batch_args(p_base)
    p_base.set_defaults(func=_cmd_baseline)

    p_synth = sub.add_parser("synth", help="emit a synthetic source/target pair")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--per-class", type=int, required=True)
    p_synth.add_argument("--dim", type=int, required=True)
    p_synth.add_argument("--shift", type=float, required=True,
                         help="domain shift magnitude in within-class sigmas")
    p_synth.add_argument("--separation", type=float, default=10.0,
                         help="typical class-mean distance in sigmas")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-source", required=True)
    p_synth.add_argument("--out-target", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
