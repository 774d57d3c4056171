"""Record the golden digests the benchmark judges every cell by.

Usage (from the root of a checkout, on the commit whose results are the
reference)::

    python3 perfbench/record_golden.py

Runs one untraced pass of every workload for each experiment seed in
``0 .. SEED_SPACE-1`` and writes ``perfbench/golden.json``: the
``digest_hex()`` of every cell and the ``grid digest`` that ``repro
grid`` prints for ``fig15_sweep``.  A cell that raises or breaks queue
conservation aborts the recording.  :data:`PARALLEL` passes of the
simulation workloads run at once; ``fig15_sweep`` passes, which run their
own worker pool, one at a time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import RUN_DEADLINE_S, Runner  # noqa: E402
from workloads import ROOT, SEED_SPACE, WORKLOADS  # noqa: E402

#: Passes of a simulation workload recorded at once.
PARALLEL = 2


def record(workload: str, seed: int, tmp_root: str) -> dict:
    """Digests of one untraced pass; raises if any cell failed."""
    runner = Runner(workload, os.path.join(tmp_root, f"{workload}-{seed}"))
    report, _, _, error = runner.run_pass(seed, RUN_DEADLINE_S)
    if error is not None:
        raise RuntimeError(f"{workload} seed {seed}: {error}")
    cells = {}
    for cell in report["cells"]:
        if "error" in cell or not cell["conserved"]:
            raise RuntimeError(f"{workload} seed {seed}: {cell['cell']} failed: {cell}")
        cells[cell["cell"]] = cell["digest"]
    grids = {}
    if workload == "fig15_sweep":
        if report.get("exit_code") != 0 or report.get("cache_hits") != 0:
            raise RuntimeError(f"{workload} seed {seed}: {report}")
        grids[f"fig15-s{seed}"] = report["grid_digest"]
    print(f"{workload} seed {seed}: {len(cells)} cells", flush=True)
    return {"cells": cells, "grids": grids}


def main() -> int:
    """Record every workload at every seed and write golden.json."""
    tmp_root = os.path.join(ROOT, ".perfbench_tmp", f"golden-{os.getpid()}")
    golden = {"seed_space": SEED_SPACE, "cells": {}, "grids": {}}
    try:
        for workload in WORKLOADS:
            parallel = 1 if workload == "fig15_sweep" else PARALLEL
            with ThreadPoolExecutor(max_workers=parallel) as pool:
                futures = [
                    pool.submit(record, workload, seed, tmp_root)
                    for seed in range(SEED_SPACE)
                ]
                for future in futures:
                    part = future.result()
                    golden["cells"].update(part["cells"])
                    golden["grids"].update(part["grids"])
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    output = os.path.join(HERE, "golden.json")
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden['cells'])} cell and {len(golden['grids'])} grid digests "
          f"to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
