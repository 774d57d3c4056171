"""MetricsRegistry: named counters/gauges from every layer of a run.

Components implement ``register_metrics(registry)`` and either set
values directly or register a *provider* — a zero-argument callable
returning a flat ``{name: value}`` mapping, evaluated lazily at
:meth:`MetricsRegistry.snapshot` time so the registry always reflects
end-of-run state without components pushing updates.

The snapshot is a flat, sorted, JSON-able dict with dotted names
(``engine.events_processed``, ``aqm.marked``, ``link.outages``, ...).
It is attached to results as the ``telemetry`` block
(:class:`~repro.harness.frozen.FrozenResult`) and embedded in
``BENCH_<date>.json`` — and deliberately excluded from
``ResultMetrics.digest()``, so telemetry can grow without perturbing
the bit-exactness gates.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Union

__all__ = ["MetricsRegistry"]

#: What a metric value may be: numbers for counters/gauges, strings for
#: small identity facts (AQM class).
MetricValue = Union[int, float, str, None]


class MetricsRegistry:
    """A write-mostly registry of named metrics with lazy providers."""

    def __init__(self) -> None:
        self._values: Dict[str, MetricValue] = {}
        self._providers: Dict[str, Callable[[], Mapping[str, Any]]] = {}

    def set(self, name: str, value: MetricValue) -> None:
        """Set gauge ``name`` to ``value`` (overwrites)."""
        self._values[name] = value

    def increment(self, name: str, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` to counter ``name`` (creates at 0)."""
        current = self._values.get(name, 0)
        if not isinstance(current, (int, float)):
            raise TypeError(f"metric {name!r} is not numeric: {current!r}")
        self._values[name] = current + amount

    def register_provider(
        self, prefix: str, provider: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Register a lazy metric source under dotted ``prefix``.

        ``provider()`` is called at snapshot time; its keys are emitted
        as ``{prefix}.{key}``.  Duplicate prefixes are rejected so two
        components cannot silently shadow each other's metrics.
        """
        if prefix in self._providers:
            raise ValueError(f"duplicate metrics provider prefix {prefix!r}")
        self._providers[prefix] = provider

    def snapshot(self) -> Dict[str, MetricValue]:
        """Evaluate providers and render the flat, sorted metric dict."""
        out: Dict[str, MetricValue] = dict(self._values)
        for prefix in sorted(self._providers):
            for key, value in self._providers[prefix]().items():
                out[f"{prefix}.{key}"] = value
        return dict(sorted(out.items()))
