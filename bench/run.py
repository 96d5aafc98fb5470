"""splda benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src``. Each round is a fresh ``bench/worker.py`` process with BLAS pinned
to one thread, so peak RSS is per round and nothing stays warm between
rounds. Rounds repeat while the next one should end within ``--seconds``,
with at least ``MIN_ROUNDS`` of them; every round is whole.

With ``--trace 0`` the end-to-end metrics are the medians over the rounds.
With ``--trace 1`` each round runs the workload twice, once plain and once
with ``bench/tracer.py`` installed (alternating which goes first), and the
per-layer metrics are medians over the traced halves; the tracing overhead
is the traced minus the plain wall time. Outputs must be identical with and
without tracing and across rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("office31-adapt", "officehome-adapt", "caltech-files-cli")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_DEADLINE_S = 170  # a run must end within 180 s, whatever the rounds take
MIN_ROUNDS = 3  # the medians are taken over at least this many rounds

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"))

# Traced function -> reported fields. "work" fields are the counts tracer.py
# computes from arguments or results; mb_per_s is derived from bytes.
LAYERS = (
    ("subspace.slpp_fit", ("s", "self_s", "calls", "labeled_cols")),
    ("linalg.gen_eig", ("s", "calls")),
    ("preprocess.pca_fit", ("s", "self_s", "calls")),
    ("linalg.sym_eig", ("s",)),
    ("preprocess.pca_transform", ("s",)),
    ("dataio.load_features", ("s", "calls", "bytes", "mb_per_s")),
    ("pipeline.nn_baseline", ("s",)),
    ("labeling.kmeans_clusters", ("s",)),
    ("labeling.match_clusters", ("s",)),
    ("linalg.solve_assignment", ("s", "calls")),
    ("labeling.ncp_probabilities", ("s",)),
    ("labeling.sp_probabilities", ("s",)),
    ("labeling.compute_prototypes", ("s",)),
    ("labeling.fuse_and_label", ("s",)),
    ("subspace.embed", ("s",)),
    ("selection.select", ("s", "admitted")),
    ("data.validate_pair", ("s", "calls")),
    ("pipeline.run", ("s", "self_s", "calls")),
    ("cli.main", ("self_s",)),
)
WORK_FIELDS = ("labeled_cols", "bytes", "admitted")
UNITS = {"s": "s", "self_s": "s", "calls": "count", "labeled_cols": "count",
         "bytes": "B", "mb_per_s": "MB/s", "admitted": "count"}
TRACE_METRICS = (("trace.overhead_s", "s"), ("trace.untraced_wall_s", "s"))


def layer_units() -> dict:
    units = {f"{fn}.{field}": UNITS[field] for fn, fields in LAYERS for field in fields}
    units.update(TRACE_METRICS)
    return units


def layer_values(stats: dict) -> dict:
    values = {}
    for fn, fields in LAYERS:
        stat = stats.get(fn, {})
        for field in fields:
            if field == "mb_per_s":
                value = stat["work"] / 1e6 / stat["s"] if stat.get("s") else 0.0
            elif field in WORK_FIELDS:
                value = stat.get("work", 0)
            else:
                value = stat.get(field, 0)
            values[f"{fn}.{field}"] = value
    return values


class RoundError(RuntimeError):
    """A worker process failed or printed no result."""


def run_round(workload: str, seed: int, trace: bool, env: dict, work: str,
              timeout: float) -> dict:
    # A process group of its own, so a timeout also ends the CLI processes
    # the worker started.
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), "1" if trace else "0", work],
        env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = args.trace == 1

    if not os.path.isfile(os.path.join(ROOT, "src", "splda", "__init__.py")):
        print(f"error: no splda sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One work directory per run, so file paths inside reports repeat exactly.
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)

    plain, traced = [], []
    steps = []  # seconds each step (a round, or a plain and traced pair) took
    started = time.monotonic()
    try:
        # Start another step only while it should end within --seconds, so
        # runs do not overshoot by a round; at least MIN_ROUNDS steps.
        while len(steps) < MIN_ROUNDS or (
                time.monotonic() - started + statistics.median(steps) <= args.seconds):
            order = (False,)
            if trace:
                order = (False, True) if len(plain) % 2 == 0 else (True, False)
            step_started = time.monotonic()
            for with_trace in order:
                left = started + RUN_DEADLINE_S - time.monotonic()
                (traced if with_trace else plain).append(
                    run_round(args.workload, args.seed, with_trace, env, work, left))
            steps.append(time.monotonic() - step_started)
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    results = plain + traced
    ops = [op for r in results for op in r["ops"]]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    hashes = {r["output_hash"] for r in results}
    correct = len(hashes) == 1 and all(op["ok"] for op in ops if not op["known_fault"])

    if trace:
        units = layer_units()
        per_round = [layer_values(r["stats"]) for r in traced]
        values = {name: statistics.median(v[name] for v in per_round)
                  for name in units if name in per_round[0]}
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
        values["trace.untraced_wall_s"] = untraced_wall
    else:
        units = dict(END_TO_END)
        values = {name: statistics.median(r[name] for r in plain) for name in units}

    env_info = {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": results[0]["env"]["numpy"], "scipy": results[0]["env"]["scipy"],
        "blas_pin": BLAS_PIN, "python": sys.version.split()[0],
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(plain), "traced_rounds": len(traced),
    }
    print("env " + json.dumps(env_info, sort_keys=True))
    for r in results:
        bad = {op["name"]: [k for k, ok in op["checks"].items() if not ok]
               for op in r["ops"] if not op["ok"]}
        print(f"round: traced={r['stats'] is not None} wall_s={r['wall_s']:.3f} "
              f"setup_s={r['setup_s']:.3f} accuracy={r['accuracy']} "
              f"own_1nn={r['own_1nn_accuracy']:.2f} failed_checks={bad}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")
    failed_ops = sorted({op["name"] for op in ops if not op["ok"]})
    print(f"operations attempted={attempted} failed={failed} failed_ops={failed_ops} "
          f"correct={correct} identical_outputs={len(hashes) == 1}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
