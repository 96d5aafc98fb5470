"""Import guards: each command loads only the modules it runs.

``synth``, ``baseline-1nn`` and ``--help`` must start without scipy, while
``splda.pipeline`` keeps importing it up front so a library caller's first
run pays no import inside the call. Distance tables are numpy products, so
no command loads ``scipy.spatial``. Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import splda
from splda.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(splda.__file__)))

# runs `python -m splda <argv>` in-process, then prints the loaded module names
RUN_CLI = """
import json, runpy, sys
sys.argv = ["splda", *json.loads(sys.argv[1])]
try:
    runpy.run_module("splda", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(sorted(sys.modules)))
"""


def run_python(code, *args):
    """Run code in a fresh interpreter; return the JSON on its last output line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def scipy_modules(modules):
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


@pytest.fixture
def pair_args(tmp_path):
    src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
    assert main(["synth", "--classes", "3", "--per-class", "4", "--dim", "5",
                 "--shift", "1.0", "--out-source", str(src),
                 "--out-target", str(tgt)]) == 0
    return ["--source", str(src), "--target", str(tgt)]


@pytest.mark.parametrize("command", ["synth", "baseline-1nn", "--help"])
def test_command_starts_without_scipy(command, pair_args, tmp_path):
    argv = {
        "synth": ["synth", "--classes", "3", "--per-class", "4", "--dim", "5",
                  "--shift", "1.0", "--out-source", str(tmp_path / "s2.txt"),
                  "--out-target", str(tmp_path / "t2.txt")],
        "baseline-1nn": ["baseline-1nn", *pair_args, "--report", str(tmp_path / "r.json")],
        "--help": ["--help"],
    }[command]
    modules = run_python(RUN_CLI, json.dumps(argv))
    assert "splda.cli" in modules
    assert scipy_modules(modules) == []
    assert "concurrent.futures" not in modules
    if command == "baseline-1nn":
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["tasks"][0]["status"] == "ok"


def test_package_import_loads_no_scipy():
    modules = run_python("import json, sys, splda; print(json.dumps(sorted(sys.modules)))")
    assert scipy_modules(modules) == []


def spatial_modules(modules):
    return [m for m in modules if m == "scipy.spatial" or m.startswith("scipy.spatial.")]


def test_pipeline_import_loads_scipy_linalg():
    modules = run_python(
        "import json, sys, splda.pipeline; print(json.dumps(sorted(sys.modules)))")
    assert "scipy.linalg" in modules
    assert spatial_modules(modules) == []


def test_ablate_runs_without_scipy_spatial(pair_args, tmp_path):
    argv = ["ablate", *pair_args, "--d1", "4", "--d2", "3", "--iters", "2",
            "--jobs", "1", "--report", str(tmp_path / "r.json")]
    modules = run_python(RUN_CLI, json.dumps(argv))
    assert "splda.labeling" in modules
    assert spatial_modules(modules) == []
    report = json.loads((tmp_path / "r.json").read_text())
    assert [t["status"] for t in report["tasks"]] == ["ok"] * 9


def test_every_public_name_resolves_and_is_listed():
    code = """
import json, splda
listed = dir(splda)
missing = [n for n in splda.__all__ if n not in listed]
for name in splda.__all__:
    getattr(splda, name)
print(json.dumps(missing))
"""
    assert run_python(code) == []
