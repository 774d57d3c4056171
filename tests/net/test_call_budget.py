"""Call budget of the per-packet datapath.

Every bottleneck packet crosses the same chain of handlers: sender →
queue + AQM → link → forward pipe → receiver → reverse pipe → sender.
Each extra Python frame on that chain is paid on every packet of every
cell, so the chain's length is pinned here.  The deterministic profiler
counts every call (Python frames and builtins alike) during one short,
seeded coexistence cell; the count is exact for a fixed seed, so the
ratio below is a property of the code, not of the host.

Measured: 41.1 calls per bottleneck arrival on this cell.  A new hop on
the packet path costs about one call per packet, so the budget leaves
room for three or four before this fails.
"""

import cProfile
import pstats

from repro.harness import run_experiment
from repro.harness.factories import coupled_factory
from repro.harness.scenarios import coexistence_pair

#: Ceiling on profiled calls per packet arriving at the bottleneck.
CALLS_PER_PACKET_BUDGET = 45.0


def test_calls_per_bottleneck_packet_within_budget():
    experiment = coexistence_pair(
        coupled_factory(),
        capacity_bps=40e6,
        rtt=0.010,
        duration=2.0,
        warmup=1.0,
        seed=0,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_experiment(experiment)
    finally:
        profiler.disable()
    calls = sum(entry[1] for entry in pstats.Stats(profiler).stats.values())
    arrived = result.bed.queue.stats.arrived
    assert arrived > 5000
    per_packet = calls / arrived
    assert per_packet <= CALLS_PER_PACKET_BUDGET, (
        f"{per_packet:.1f} calls per bottleneck packet "
        f"({calls} calls / {arrived} arrivals) exceeds the budget of "
        f"{CALLS_PER_PACKET_BUDGET}: a new hop on the packet path?"
    )
