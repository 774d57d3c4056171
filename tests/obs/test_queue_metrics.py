"""``queue.*`` telemetry: the bottleneck's counters on every result."""

from repro.harness import light_tcp, run_experiment
from repro.harness.factories import pi2_factory
from repro.net.queue import QueueStats
from repro.obs import RecordingTracer
from repro.obs.metrics import MetricsRegistry

MBPS = 1e6


def _queue_keys(telemetry):
    return {k: v for k, v in telemetry.items() if k.startswith("queue.")}


def test_run_telemetry_exports_every_queue_counter():
    result = run_experiment(
        light_tcp(pi2_factory(), capacity_bps=10 * MBPS, duration=3.0, seed=3)
    )
    queue = _queue_keys(result.telemetry)
    assert set(queue) == {f"queue.{name}" for name in QueueStats.__slots__}
    stats = result.bed.queue.stats
    for name in QueueStats.__slots__:
        assert queue[f"queue.{name}"] == getattr(stats, name)
    assert queue["queue.arrived"] > 0
    assert queue["queue.arrived"] == (
        queue["queue.enqueued"] + queue["queue.aqm_dropped"]
        + queue["queue.tail_dropped"] + queue["queue.fault_dropped"]
    )


def test_queue_telemetry_identical_traced_and_untraced():
    exp = light_tcp(
        pi2_factory(), capacity_bps=40 * MBPS, rtt=0.010, duration=3.0, seed=3
    )
    untraced = run_experiment(exp)
    traced = run_experiment(exp, tracer=RecordingTracer())
    assert traced.digest() == untraced.digest()
    assert _queue_keys(traced.telemetry) == _queue_keys(untraced.telemetry)
    assert _queue_keys(traced.telemetry)


def test_provider_reads_stats_at_snapshot_time(sim):
    from repro.net.queue import AQMQueue
    from tests.conftest import make_packet

    queue = AQMQueue(sim, None, 10e6)
    registry = MetricsRegistry()
    queue.register_metrics(registry)
    queue.enqueue(make_packet(size=100))
    assert registry.snapshot()["queue.bytes_arrived"] == 100
    queue.enqueue(make_packet(size=200))
    assert registry.snapshot()["queue.arrived"] == 2
