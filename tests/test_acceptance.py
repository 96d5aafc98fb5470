"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 5 needs externally obtained Office-Caltech Decaf6 feature files
(see README); without them it is reported SKIPPED, never PASSED.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from splda.cli import main
from splda.data import RunConfig
from splda.dataio import gen_synthetic, load_features
from splda.labeling import _probabilities, kmeans_clusters, match_clusters, pseudo_label
from splda.linalg import gen_eig_in_place, solve_assignment
from splda.pipeline import nn_baseline, run, run_ablation
from splda.selection import select

from conftest import brute_force_assignment, random_spd

SUITE = dict(classes=5, per_class=40, dim=20, shift_magnitude=4.0, separation=6.0)
SUITE_CONFIG = dict(pca_dim=20, subspace_dim=10, iterations=10)
SEEDS = range(20)


def _verdict(number, description, ok):
    print(f"\n[acceptance] criterion {number} ({description}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({description}) failed"


def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    checks = []

    rng = np.random.default_rng(1001)
    for i in range(200):
        order = 2 + i % 7  # orders 2..8
        cost = rng.uniform(0, 10, size=(order, order))
        perm, best = brute_force_assignment(cost)
        assignment = solve_assignment(cost)
        checks.append(assignment.tolist() == perm.tolist())
        total = cost[np.arange(order), assignment].sum()
        checks.append(total == pytest.approx(best, abs=1e-10))

    rng = np.random.default_rng(1002)
    for _ in range(100):
        order = int(rng.integers(2, 65))
        a = random_spd(rng, order)
        b = random_spd(rng, order)
        values, vectors = gen_eig_in_place(a.copy(), b.copy(), order)
        bound = 1e-8 * (np.linalg.norm(a, "fro") + np.linalg.norm(b, "fro"))
        residuals = a @ vectors - (b @ vectors) * values
        checks.append(float(np.linalg.norm(residuals, axis=0).max()) <= bound)

    rng = np.random.default_rng(1003)
    for _ in range(20):
        x = rng.normal(size=(8, 30)) * rng.uniform(0.5, 2.0, size=(8, 1))
        n = x.shape[1]
        h = np.eye(n) - np.ones((n, n)) / n
        centered = x - x.mean(axis=1, keepdims=True)
        oracle = n * np.cov(x, bias=True)
        checks.append(np.abs(x @ h @ x.T - oracle).max() <= 1e-10)
        checks.append(np.abs(centered @ centered.T - oracle).max() <= 1e-10)

    elapsed = time.perf_counter() - started
    checks.append(elapsed < 10.0)
    _verdict(1, "oracle equivalence", all(checks))


def test_criterion_2_equation_level_properties():
    started = time.perf_counter()
    checks = []
    rng = np.random.default_rng(2001)

    fused_draws = 0
    for _ in range(25):
        dim = int(rng.integers(2, 8))
        n_classes = int(rng.integers(2, 7))
        z = rng.normal(size=(dim, int(rng.integers(5, 40))))
        protos = rng.normal(size=(dim, n_classes))
        centers = rng.normal(size=(dim, n_classes))
        p1 = _probabilities(z, protos)
        p2 = _probabilities(z, centers)
        checks.append(np.abs(p1.sum(axis=1) - 1.0).max() <= 1e-10)
        checks.append(np.abs(p2.sum(axis=1) - 1.0).max() <= 1e-10)
        if z.shape[1] < n_classes:
            # k-means needs a target per class, so there is no sp table to fuse
            try:
                pseudo_label(z, protos, "fused")
                checks.append(False)
            except ValueError as exc:
                checks.append("need at least" in str(exc))
            continue
        fused_draws += 1
        matched = match_clusters(kmeans_clusters(z, protos)[0], protos)
        table = np.maximum(p1, _probabilities(z, matched))
        direct = table[np.arange(table.shape[0]), np.argmax(table, axis=1)]
        classes, confidences = pseudo_label(z, protos, "fused")
        checks.append(np.array_equal(confidences, direct))
        checks.append(np.array_equal(classes, np.argmax(table, axis=1)))
    checks.append(fused_draws == 24)

    for trial in range(30):
        trial_rng = np.random.default_rng(3000 + trial)
        n = int(trial_rng.integers(1, 60))
        n_classes = int(trial_rng.integers(1, 6))
        classes = trial_rng.integers(0, n_classes, size=n)
        confidences = trial_rng.uniform(size=n)
        total = int(trial_rng.integers(1, 12))
        for k in range(1, total + 1):
            out = select(classes, confidences, k, total, "progressive")
            got = np.bincount(classes[out], minlength=n_classes)
            for c in range(n_classes):
                n_c = int((classes == c).sum())
                checks.append(got[c] == min((k * n_c) // total, n_c))
        checks.append(len(select(classes, confidences, total, total, "progressive")) == n)

    elapsed = time.perf_counter() - started
    checks.append(elapsed < 5.0)
    _verdict(2, "equation-level properties", all(checks))


def test_criterion_3_synthetic_end_to_end():
    started = time.perf_counter()
    beats_baseline = 0
    above_95 = 0
    means = {"none": [], "all": [], "progressive": []}
    for seed in SEEDS:
        src, tgt = gen_synthetic(seed=seed, **SUITE)
        cfg = RunConfig(labeling="fused", **SUITE_CONFIG)
        baseline = nn_baseline(src, tgt)
        finals = {}
        for selection in means:
            finals[selection] = run(src, tgt,
                                    replace(cfg, selection=selection)).final_accuracy
            means[selection].append(finals[selection])
        beats_baseline += finals["progressive"] >= baseline
        above_95 += finals["progressive"] >= 95.0
    elapsed = time.perf_counter() - started

    mean_none = float(np.mean(means["none"]))
    mean_all = float(np.mean(means["all"]))
    mean_prog = float(np.mean(means["progressive"]))
    print(f"\n[acceptance] criterion 3 detail: beats baseline {beats_baseline}/20, "
          f">=95% {above_95}/20, means none={mean_none:.2f} all={mean_all:.2f} "
          f"progressive={mean_prog:.2f}, {elapsed:.1f}s")
    ok = (beats_baseline >= 19 and above_95 >= 18
          and mean_none <= mean_all <= mean_prog and elapsed < 60.0)
    _verdict(3, "synthetic end-to-end", ok)


def test_criterion_4_early_iteration_sp_advantage():
    ncp_first = []
    sp_first = []
    for seed in SEEDS:
        src, tgt = gen_synthetic(seed=seed, **SUITE)
        cfg = RunConfig(selection="progressive", **SUITE_CONFIG)
        ncp_first.append(run(src, tgt, replace(cfg, labeling="ncp"))
                         .snapshots[1].accuracy)
        sp_first.append(run(src, tgt, replace(cfg, labeling="sp"))
                        .snapshots[1].accuracy)
    mean_ncp = float(np.mean(ncp_first))
    mean_sp = float(np.mean(sp_first))
    print(f"\n[acceptance] criterion 4 detail: iteration-1 mean "
          f"sp={mean_sp:.2f} vs ncp={mean_ncp:.2f}")
    _verdict(4, "early-iteration advantage of structured prediction",
             mean_sp >= mean_ncp)


OFFICE_DOMAINS = ("amazon", "caltech", "dslr", "webcam")
OFFICE_SHORT = {"amazon": "A", "caltech": "C", "dslr": "D", "webcam": "W"}


def test_criterion_5_office_caltech_reproduction():
    data_dir = os.environ.get("SPLDA_OFFICE_CALTECH_DIR", "")
    files = {d: Path(data_dir) / f"{d}.txt" for d in OFFICE_DOMAINS}
    if not data_dir or not all(f.is_file() for f in files.values()):
        print("\n[acceptance] criterion 5 (Office-Caltech reproduction): SKIPPED "
              "(set SPLDA_OFFICE_CALTECH_DIR to a directory with "
              "amazon.txt/caltech.txt/dslr.txt/webcam.txt Decaf6 features)")
        pytest.skip("external Office-Caltech Decaf6 features not provided")
    cfg = RunConfig(pca_dim=128, subspace_dim=128, iterations=10,
                    labeling="fused", selection="progressive")
    finals = []
    baselines = []
    for src_name in OFFICE_DOMAINS:
        for tgt_name in OFFICE_DOMAINS:
            if src_name == tgt_name:
                continue
            src = load_features(files[src_name], domain="source")
            tgt = load_features(files[tgt_name], domain="target")
            acc = run(src, tgt, cfg).final_accuracy
            base = nn_baseline(src, tgt)
            finals.append(acc)
            baselines.append(base)
            print(f"[acceptance] {OFFICE_SHORT[src_name]}->"
                  f"{OFFICE_SHORT[tgt_name]}: {acc:.1f} (1NN {base:.1f})")
    mean_final = float(np.mean(finals))
    mean_base = float(np.mean(baselines))
    print(f"\n[acceptance] criterion 5 detail: 12-task average {mean_final:.2f} "
          f"(target 93.0 +/- 1.0), 1NN average {mean_base:.2f} "
          f"(target 83.8 +/- 1.0)")
    _verdict(5, "Office-Caltech reproduction",
             abs(mean_final - 93.0) <= 1.0 and abs(mean_base - 83.8) <= 1.0)


def test_criterion_6_determinism(tmp_path):
    src, tgt = gen_synthetic(4, 15, 10, shift_magnitude=2.0, seed=11)
    cfg = RunConfig(pca_dim=10, subspace_dim=6, iterations=4)
    results = [run(src, tgt, cfg) for _ in range(2)]
    result_bytes = [json.dumps(r.to_dict()).encode() for r in results]
    checks = [result_bytes[0] == result_bytes[1]]

    src_path, tgt_path = tmp_path / "s.txt", tmp_path / "t.txt"
    assert main(["synth", "--classes", "4", "--per-class", "15", "--dim", "10",
                 "--shift", "2.0", "--seed", "11",
                 "--out-source", str(src_path), "--out-target", str(tgt_path)]) == 0
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code = main(["adapt", "--source", str(src_path), "--target", str(tgt_path),
                     "--d1", "10", "--d2", "6", "--iters", "4",
                     "--no-timing", "--report", str(path)])
        checks.append(code == 0)
        reports.append(path.read_bytes())
    checks.append(reports[0] == reports[1])
    _verdict(6, "determinism", all(checks))


# 31 classes of width 1024 at d1=256: unlike criterion 3's near-ceiling
# pair, the selection modes here lie points apart (see README)
ABLATION_SUITE = dict(classes=31, per_class=20, dim=1024, shift_magnitude=8.0,
                      separation=8.0)
ABLATION_CONFIG = RunConfig(pca_dim=256, subspace_dim=64, iterations=10)
ABLATION_SEEDS = range(6)


def test_criterion_7_selection_ablation():
    started = time.perf_counter()
    checks = []
    leads = {"ncp": [], "sp": [], "fused": []}
    for seed in ABLATION_SEEDS:
        src, tgt = gen_synthetic(seed=seed, **ABLATION_SUITE)
        finals = {cell: result.final_accuracy
                  for cell, result in run_ablation(src, tgt, ABLATION_CONFIG).items()}
        for labeling, lead in leads.items():
            none, all_, progressive = (finals[labeling, selection]
                                       for selection in ("none", "all", "progressive"))
            checks.append(none < all_ < progressive)
            lead.append(progressive - all_)
    elapsed = time.perf_counter() - started
    means = {labeling: float(np.mean(lead)) for labeling, lead in leads.items()}
    print(f"\n[acceptance] criterion 7 detail: none < all < progressive in "
          f"{sum(checks)}/{len(checks)} seed-mode pairs, mean lead of progressive "
          f"over all " + ", ".join(f"{k}={v:.2f}" for k, v in means.items())
          + f", {elapsed:.1f}s")
    checks.extend(mean >= 5.0 for mean in means.values())
    _verdict(7, "selection ablation", all(checks))
