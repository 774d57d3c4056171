#!/usr/bin/env python3
"""Fault tolerance: AQMs under injected faults, and sweeps that survive
broken cells.

Part 1 drives PI2 and PIE through the same hostile schedule — a 1 s
bottleneck outage followed by a 4 s window of Gilbert–Elliott bursty
loss — with invariant checking enabled, and shows each controller
re-pinning its 20 ms target once the faults clear.

Part 2 runs a coexistence sweep in which one cell's AQM is sabotaged to
diverge (its controller update returns NaN).  With
``RunPolicy(on_error="capture")`` the sweep retries the cell on a bumped
seed, records a structured failure with the virtual time of the
divergence, and still completes every other cell — a 25-cell overnight
sweep no longer dies at cell 23.

Part 3 runs a small grid under the supervised backend with a result
journal, then "resumes" it: every cell is replayed from the journal
instead of re-simulated, with identical digests.  The same ``RunPolicy``
value drives every sweep entry point and figure generator.

Run:  python examples/fault_tolerance.py
"""

import os
import random
import tempfile

from repro.aqm.pi import PiAqm
from repro.harness import (
    Experiment,
    FlowGroup,
    ResultJournal,
    RunPolicy,
    SupervisorConfig,
    pi2_factory,
    pie_factory,
    run_coexistence_grid,
    run_experiment,
)
from repro.net.faults import BurstLossFault, LinkFlapFault

FAULTS = [
    LinkFlapFault(10.0, 1.0),
    BurstLossFault(15.0, 4.0, loss_rate=0.05, mean_burst=8.0),
]


def run_through_faults(name, factory):
    result = run_experiment(
        Experiment(
            capacity_bps=10e6,
            duration=40.0,
            warmup=5.0,
            aqm_factory=factory,
            flows=[FlowGroup(cc="reno", count=5, rtt=0.02)],
            faults=FAULTS,
            validate=True,
        )
    )
    print(f"\n=== {name} through link flap + burst loss ===")
    for t, msg in result.fault_timeline:
        print(f"  t={t:6.2f}s  {msg}")
    during = result.queue_delay.window(10.0, 19.0)
    after = result.queue_delay.window(30.0, 40.0)
    print(f"  queue delay during faults  mean {during.mean() * 1e3:6.1f} ms")
    print(f"  queue delay after recovery mean {after.mean() * 1e3:6.1f} ms"
          f"  (target 20 ms)")
    print(f"  fault-gate drops {result.queue_stats.fault_dropped}"
          f"   invariant checks passed {result.invariant_checks}")


def divergent_pi_factory():
    """A PI factory whose first build is sabotaged: its controller sees a
    NaN delay on every update, so the run diverges deterministically."""
    built = {"n": 0}

    def make(rng: random.Random):
        built["n"] += 1
        aqm = PiAqm(rng=rng)
        if built["n"] <= 2:  # first attempt and its seed-bumped retry
            original = aqm.controller.update

            def poisoned(delay, gain_scale=1.0):
                return original(float("nan"))

            aqm.controller.update = poisoned
        return aqm

    return make


def resilient_sweep():
    print("\n=== resilient sweep with one sabotaged cell ===")
    outcome = run_coexistence_grid(
        divergent_pi_factory(),
        links_mbps=[10],
        rtts_ms=[10, 20, 40],
        duration=4.0,
        warmup=1.0,
        policy=RunPolicy(on_error="capture", max_retries=1),
    )
    print(f"  cells completed: {len(outcome)} of 3")
    print("  " + outcome.failure_report().replace("\n", "\n  "))


def journaled_sweep():
    print("\n=== supervised, journaled sweep and its resume ===")
    grid = dict(links_mbps=[10], rtts_ms=[10, 20], duration=4.0, warmup=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.journal")
        runs = []
        for resume in (False, True):
            with ResultJournal(path) as journal:
                policy = RunPolicy(supervisor=SupervisorConfig(),
                                   journal=journal, resume=resume)
                runs.append(run_coexistence_grid(pi2_factory(), policy=policy, **grid))
            print(f"  {'resumed' if resume else 'first  '}: "
                  f"{runs[-1].recovery.summary()}")
    digests = [[cell.result.digest() for cell in run] for run in runs]
    print(f"  resumed digests identical: {digests[0] == digests[1]}")


def main():
    run_through_faults("PI2", pi2_factory())
    run_through_faults("PIE", pie_factory())
    resilient_sweep()
    journaled_sweep()
    print("\nSweeps degrade gracefully: partial results plus a structured "
          "failure report, never a dead overnight run.")


if __name__ == "__main__":
    main()
