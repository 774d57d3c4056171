"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run as bench_run  # noqa: E402
from layers import (  # noqa: E402
    LAYER_NAMES,
    UNATTRIBUTED,
    LayerMap,
    check_layer_map,
    split_profile,
    total_self_s,
)
from workloads import (  # noqa: E402
    META,
    SEED_SPACE,
    WORKLOADS,
    cells_for,
    experiment_seed,
    grid_argv,
    pass_seeds,
)

PACKAGE_DIR = os.path.join(ROOT, "src", "repro")
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


# -- names and metadata ------------------------------------------------------

def test_every_metric_name_is_well_formed():
    """Metric and workload names are unique and match [A-Za-z0-9_.-]+."""
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_code():
    """BENCHMARK.json lists the workloads and end-to-end metrics run.py reports."""
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in bench_run.END_TO_END]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(bench_run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_per_layer_list_is_what_the_traced_run_reports():
    """BENCHMARK.json's per-layer list is exactly what a traced run prints."""
    split = {layer: {"self_s": 0.0, "calls_in": 0} for layer in LAYER_NAMES + (UNATTRIBUTED,)}
    report = {
        "profile": {"split": split, "total_self_s": 0.0},
        "cells": [], "cpu_self_s": 1.0, "cpu_children_s": 0.0, "wall_s": 1.0,
    }
    metrics = bench_run.layer_metrics("coexist_bdp", report, report)
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }


def test_workload_metadata_names_real_layers_and_metrics():
    """workloads.json names only known layers, metrics and workloads."""
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in WORKLOADS:
        meta = META["workloads"][name]
        for key in ("why", "loop", "seed", "entry_point", "stresses", "bypasses"):
            assert meta[key], (name, key)
        assert set(meta["stresses"]) <= set(LAYER_NAMES)
        assert set(meta["bypasses"]) <= set(LAYER_NAMES)
        assert not set(meta["stresses"]) & set(meta["bypasses"])
    for row in META["layer_to_end_to_end"]:
        assert set(row["moves"]) <= e2e
        assert set(row["workloads"]) <= set(WORKLOADS)


# -- seeds -------------------------------------------------------------------

@pytest.mark.parametrize("workload", ["coexist_bdp", "classic_churn"])
def test_same_seed_same_cells_and_another_seed_other_inputs(workload):
    """The seed alone decides a pass's cells."""
    assert cells_for(workload, 7) == cells_for(workload, 7)
    assert cells_for(workload, 7) != cells_for(workload, 8)
    seeds = {dict(spec.params)["seed"] for spec in cells_for(workload, 8)}
    assert seeds == {experiment_seed(8)}


def test_pass_seeds_walk_every_golden_seed_in_an_order_the_seed_picks():
    """A run's passes cover the golden seeds; --seed alone picks the order."""
    assert pass_seeds(7) == pass_seeds(7)
    assert pass_seeds(7)[:3] != pass_seeds(8)[:3]
    assert sorted(pass_seeds(7)) == list(range(SEED_SPACE))


def test_grid_argv_follows_the_seed():
    """The grid's argv depends on the seed and sets no scheduler."""
    assert grid_argv(3, "c") == grid_argv(3, "c")
    assert grid_argv(3, "c") != grid_argv(4, "c")
    assert "--scheduler" not in grid_argv(3, "c")


def test_goldens_cover_every_seed_and_differ_between_seeds():
    """Every seed has goldens, and another seed gives other digests."""
    for s in range(SEED_SPACE):
        assert f"fig15-s{s}" in GOLDEN["grids"]
        for workload in ("coexist_bdp", "classic_churn", "fig15_sweep"):
            for cell_id, _ in bench_run.expected_cells(workload, s):
                assert cell_id in GOLDEN["cells"], cell_id
    for workload in ("coexist_bdp", "classic_churn", "fig15_sweep"):
        first = [GOLDEN["cells"][c] for c, _ in bench_run.expected_cells(workload, 1)]
        second = [GOLDEN["cells"][c] for c, _ in bench_run.expected_cells(workload, 2)]
        assert all(a != b for a, b in zip(first, second)), workload


def test_grid_goldens_agree_with_their_cells():
    """``repro grid`` hashes the cells' digests in grid order."""
    for s in range(SEED_SPACE):
        cells = "".join(GOLDEN["cells"][c] for c, _ in bench_run.expected_cells("fig15_sweep", s))
        assert hashlib.sha256(cells.encode()).hexdigest() == GOLDEN["grids"][f"fig15-s{s}"]


@pytest.mark.parametrize("workload", ["coexist_bdp", "classic_churn"])
def test_cells_run_the_default_configuration(workload):
    """No cell sets the knobs the ROADMAP plans to delete."""
    for spec in cells_for(workload, 1):
        assert not {"scheduler", "link_batching"} & set(dict(spec.params))


# -- layer map ---------------------------------------------------------------

def test_every_module_maps_to_one_layer():
    """The layer map places every module of the package."""
    assert check_layer_map(PACKAGE_DIR) == []


def test_layer_map_catches_an_unmapped_package(tmp_path):
    """A new, unmapped package and a stale pattern are both reported."""
    package = tmp_path / "repro"
    for rel in ("__init__.py", "newpkg/__init__.py", "sim/engine.py"):
        (package / rel).parent.mkdir(parents=True, exist_ok=True)
        (package / rel).write_text("")
    problems = check_layer_map(str(package))
    assert any("newpkg/__init__.py maps to no layer" in p for p in problems)
    assert any("matches no module" in p for p in problems)


def test_profile_split_adds_up_to_the_profiled_total():
    """Per-layer self time sums to the profiler's total."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.harness import coexistence_pair, coupled_factory, run_experiment

    experiment = coexistence_pair(coupled_factory(), duration=1.0, warmup=0.5)
    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(experiment)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    split = split_profile(stats, LayerMap(PACKAGE_DIR))
    assert set(split) == set(LAYER_NAMES) | {UNATTRIBUTED}
    assert split[UNATTRIBUTED]["self_s"] == 0
    total = total_self_s(stats)
    assert sum(v["self_s"] for v in split.values()) == pytest.approx(total, rel=1e-9)
    for layer in ("sim", "net.link", "net.queue", "tcp.sender", "tcp.receiver", "core"):
        assert split[layer]["self_s"] > 0, layer
        assert split[layer]["calls_in"] > 0, layer


# -- end to end ---------------------------------------------------------------

#: The cell whose golden digest the corrupted run corrupts: a cell of the
#: first pass of classic_churn --seed 3.
CORRUPTED_CELL = f"intensity-pi2-s{pass_seeds(3)[0]}"


@pytest.fixture(scope="module")
def corrupted_run():
    """classic_churn seed 3 judged by goldens with one digest corrupted:
    (exit code, standard output)."""
    golden = json.loads(json.dumps(GOLDEN))
    golden["cells"][CORRUPTED_CELL] = "0" * 64
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(bench_run, "load_golden", lambda: golden)
        code = bench_run.main(
            ["--workload", "classic_churn", "--seed", "3", "--seconds", "1", "--trace", "0"])
    return code, out.getvalue()


def test_corrupted_golden_counts_failures_and_does_not_crash(corrupted_run):
    """A corrupted golden makes failed_frac > 0, not a crash."""
    code, stdout = corrupted_run
    assert code == 0
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    passes = result["attempted"] // 3
    assert bench_run.MIN_PASSES <= passes < SEED_SPACE
    # Only the corrupted cell fails, in the one pass that ran its seed.
    assert result["failed"] == 1
    failed_frac = f"{1 / result['attempted']:.6g}"
    assert any(line.startswith("failed_frac") and failed_frac in line for line in lines)
    assert set(result["metrics"]) == {n for n, _ in bench_run.END_TO_END}


def test_same_seed_reproduces_the_recorded_digests(corrupted_run):
    """The uncorrupted cells of the run's passes match digests recorded earlier."""
    failures = [line for line in corrupted_run[1].splitlines() if line.startswith("FAIL")]
    assert failures == [f"FAIL {CORRUPTED_CELL}: digest differs from golden"]


def test_benchmark_without_the_program_exits_nonzero_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coexist_bdp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
