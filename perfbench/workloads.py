"""The benchmark's workloads: which cells one pass runs, built from a seed.

A *pass* is one closed-loop batch: its cells run back to back, each
starting when the previous one has finished.  Every pass runs in a fresh
process (see ``cellrun.py``), so every pass measures the same program.

Every cell of a pass runs with one experiment seed.  Golden digests
ship for :data:`SEED_SPACE` experiment seeds; the benchmark's ``--seed``
picks the order in which a run's passes walk through them
(:func:`pass_seeds`), so different seeds give different inputs and the
passes of one run cover several experiment seeds.

Nothing here sets ``scheduler=``, ``link_batching=`` or ``--scheduler``:
the benchmark measures the default configuration users run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import List, Tuple

#: Experiment seeds with shipped golden digests (0 .. SEED_SPACE-1).
SEED_SPACE = 32

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs in and measures: this directory's parent.
ROOT = os.path.dirname(HERE)
#: The program under test, imported from the checkout's source tree.
SRC = os.path.join(ROOT, "src")

#: Workload metadata: why, loop type, seed, layers stressed and bypassed.
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    META = json.load(_fh)

WORKLOADS: Tuple[str, ...] = tuple(META["workloads"])

MBPS = 1e6

#: coexist_bdp: (link Mb/s, RTT ms) of the three Fig 15–18 cells.
COEXIST_CELLS = ((40, 10), (120, 20), (200, 10))
COEXIST_DURATION = 10.0
COEXIST_WARMUP = 5.0

#: classic_churn: Fig 13 stage length and Fig 11c run length (seconds).
CHURN_STAGE = 10.0
CHURN_UDP_DURATION = 30.0

#: fig15_sweep: the full paper grid through ``repro grid``.
GRID_LINKS = "4,12,40,120,200"
GRID_RTTS = "5,10,20,50,100"
GRID_DURATION = 4.0

#: Every cell's AQM targets this sojourn delay (PIE and PI2 defaults).
TARGET_DELAY_S = 0.020
#: Fig 18: utilization the paper reports across the grid.
MIN_UTILIZATION = 0.90


def experiment_seed(seed: int) -> int:
    """Fold a seed into the shipped golden range."""
    return seed % SEED_SPACE


def pass_seeds(seed: int) -> List[int]:
    """The experiment seeds of a run's passes, in order: every golden seed
    once, shuffled by the benchmark's ``--seed``.  Pass ``k`` runs with
    ``pass_seeds(seed)[k % SEED_SPACE]``, so a run's figures are medians
    over passes of different experiment seeds, not the cost of one seed's
    start-up transient."""
    order = list(range(SEED_SPACE))
    random.Random(seed).shuffle(order)
    return order


@dataclass(frozen=True)
class CellSpec:
    """One cell of a simulation workload: a label and how to build it."""

    cell_id: str
    builder: str
    aqm: str
    params: Tuple[Tuple[str, float], ...]
    sim_s: float
    coupled: bool = False


def cells_for(workload: str, seed: int) -> List[CellSpec]:
    """The cells one pass of a simulation workload runs, in order."""
    s = experiment_seed(seed)
    if workload == "coexist_bdp":
        return [
            CellSpec(
                f"coexist-{link}-{rtt}-s{s}",
                "coexistence_pair",
                "coupled",
                (
                    ("capacity_bps", link * MBPS),
                    ("rtt", rtt / 1e3),
                    ("duration", COEXIST_DURATION),
                    ("warmup", COEXIST_WARMUP),
                    ("seed", s),
                ),
                COEXIST_DURATION,
                coupled=True,
            )
            for link, rtt in COEXIST_CELLS
        ]
    if workload == "classic_churn":
        return [
            CellSpec(
                f"intensity-pie-s{s}",
                "varying_intensity",
                "pie",
                (("stage", CHURN_STAGE), ("seed", s)),
                5 * CHURN_STAGE,
            ),
            CellSpec(
                f"intensity-pi2-s{s}",
                "varying_intensity",
                "pi2",
                (("stage", CHURN_STAGE), ("seed", s)),
                5 * CHURN_STAGE,
            ),
            CellSpec(
                f"tcp_udp-pi2-s{s}",
                "tcp_plus_udp",
                "pi2",
                (("duration", CHURN_UDP_DURATION), ("seed", s)),
                CHURN_UDP_DURATION,
            ),
        ]
    raise KeyError(f"{workload} has no simulation cells")


def build_experiment(spec: CellSpec):
    """The ``Experiment`` for one cell, through the public builders."""
    from repro.harness import FACTORIES, scenarios

    builder = getattr(scenarios, spec.builder)
    return builder(FACTORIES[spec.aqm](), **dict(spec.params))


def grid_argv(seed: int, cache_dir: str) -> List[str]:
    """``repro grid`` arguments for one pass of ``fig15_sweep``; ``--jobs 0``
    is the program's own one worker per CPU."""
    return [
        "grid",
        "--aqm", "coupled",
        "--links", GRID_LINKS,
        "--rtts", GRID_RTTS,
        "--duration", repr(GRID_DURATION),
        "--seed", str(experiment_seed(seed)),
        "--jobs", "0",
        "--cache-dir", cache_dir,
    ]
