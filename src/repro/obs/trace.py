"""The Tracer protocol, the JSONL sink, and the AQM instrumentation hook.

A tracer is a passive observer: components *emit* typed events into it
and never read anything back (the ``OBS`` static-analysis rule bans
tracer calls whose result feeds simulation state, and tracers passed
into scheduling calls).  Because instrumentation is installed by
swapping bound methods / setting an optional engine field — never by
adding ``if tracing`` branches to per-packet hot paths — a run without
a tracer executes exactly the code it executed before this module
existed, and a run *with* a tracer produces bit-identical
:meth:`~repro.harness.experiment.ResultMetrics.digest` values.

Event records are JSON objects with three reserved keys — ``cat`` (one
of :data:`CATEGORIES`), ``event`` (the type), ``t`` (virtual time, or
0.0 for parent-process harness spans that carry ``wall`` instead) —
plus event-specific fields.  The first line of a JSONL trace is a
header carrying :data:`TRACE_SCHEMA_VERSION`; the full field-by-field
schema is documented in ``docs/OBSERVABILITY.md`` and locked by
``tests/obs/test_tracing.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

try:  # pragma: no cover - Protocol is 3.8+; the repo floor is 3.10
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "CATEGORIES",
    "Tracer",
    "JsonlTracer",
    "RecordingTracer",
    "engine_tracer",
    "install_aqm_tracer",
]

#: Version of the on-disk JSONL event schema.  Bump only with a
#: migration note in docs/OBSERVABILITY.md; tests lock the value.
#: Schema 2 reduced ``engine_epoch`` to the single event heap.
TRACE_SCHEMA_VERSION = 2

#: Schema versions :func:`repro.obs.read_trace` accepts.  A schema-1
#: trace carries lane fields schema 2 dropped; readers ignore them.
READABLE_TRACE_SCHEMAS = (1, 2)

#: Event categories, in documentation order: AQM control-law events,
#: engine dispatch-epoch snapshots, harness lifecycle spans.
CATEGORIES = ("aqm", "engine", "harness")


class Tracer(Protocol):
    """What a telemetry sink must implement.

    Implementations must treat every method as fire-and-forget: no
    exceptions for unknown categories, no feedback into the caller.
    """

    def wants(self, category: str) -> bool:
        """Whether events of ``category`` should be generated at all.

        Instrumentation sites may use this to skip *installing* hooks
        (never to branch per event — sinks filter in :meth:`emit`).
        """
        ...

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, Any]
    ) -> None:
        """Record one event at virtual time ``t`` with extra ``fields``."""
        ...

    def close(self) -> None:
        """Flush and release the sink; further emits are undefined."""
        ...


def _parse_categories(categories: Optional[Iterable[str]]) -> frozenset:
    """Validate a category selection against :data:`CATEGORIES`."""
    if categories is None:
        return frozenset(CATEGORIES)
    selected = frozenset(str(c).strip() for c in categories if str(c).strip())
    unknown = selected - frozenset(CATEGORIES)
    if unknown:
        raise ValueError(
            f"unknown trace categories {sorted(unknown)} "
            f"(known: {', '.join(CATEGORIES)})"
        )
    return selected


class JsonlTracer:
    """Append-only JSONL sink: one header line, then one object per event.

    Parameters
    ----------
    path:
        Output file; truncated on open.
    categories:
        Subset of :data:`CATEGORIES` to record (None = all).  Events of
        unselected categories are dropped silently in :meth:`emit`, so
        instrumented components may emit unconditionally.
    """

    def __init__(
        self,
        path: Union[str, Path],
        categories: Optional[Iterable[str]] = None,
    ):
        self.path = Path(path)
        self.categories = _parse_categories(categories)
        #: Events written, per category (header line not counted).
        self.counts: Dict[str, int] = {c: 0 for c in CATEGORIES}
        self._fh = open(self.path, "w", encoding="utf-8")
        header = {
            "schema": TRACE_SCHEMA_VERSION,
            "kind": "repro-trace",
            "categories": sorted(self.categories),
        }
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")

    def wants(self, category: str) -> bool:
        """Whether ``category`` is in this sink's selection."""
        return category in self.categories

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, Any]
    ) -> None:
        """Serialize one event; unselected categories are dropped."""
        if category not in self.categories:
            return
        record = {"cat": category, "event": event, "t": t}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self.counts[category] += 1

    @property
    def total_events(self) -> int:
        """Events written across all categories."""
        return sum(self.counts.values())

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RecordingTracer:
    """In-memory sink for tests: keeps ``(category, event, t, fields)``."""

    def __init__(self, categories: Optional[Iterable[str]] = None):
        self.categories = _parse_categories(categories)
        #: Every emitted event, in emission order.
        self.events: List[Tuple[str, str, float, Dict[str, Any]]] = []

    def wants(self, category: str) -> bool:
        """Whether ``category`` is in this sink's selection."""
        return category in self.categories

    def emit(
        self, category: str, event: str, t: float, fields: Mapping[str, Any]
    ) -> None:
        """Append one event to :attr:`events`."""
        if category in self.categories:
            self.events.append((category, event, t, dict(fields)))

    def close(self) -> None:
        """No-op (nothing to flush)."""

    def by_event(self, event: str) -> List[Tuple[str, str, float, Dict[str, Any]]]:
        """Events of one type, in emission order."""
        return [e for e in self.events if e[1] == event]


def engine_tracer(tracer: Optional[Any]) -> Optional[Any]:
    """``tracer`` when it subscribes to ``engine`` events, else None.

    The engine only switches to its chunked, epoch-snapshotting run
    loop when it holds a tracer, so the subscription check must happen
    *here* (in the observability layer) rather than inside the engine —
    simulation packages never read tracer results (the OBS rule).
    """
    if tracer is not None and tracer.wants("engine"):
        return tracer
    return None


def install_aqm_tracer(aqm: Optional[Any], tracer: Optional[Any]) -> Optional[Any]:
    """Instrument one AQM instance with control-law tracing.

    Installs ``update``/``decide`` wrappers as *instance attributes*, so
    it must run **before** the AQM is attached to a simulator/queue
    (attachment binds ``aqm.update`` into the periodic update timer and
    the queue looks up ``aqm.decide`` per packet — both find the
    wrapper only if it is already installed).  An un-traced AQM carries
    no wrapper and pays zero overhead.

    The wrappers are read-only observers: the update wrapper reads the
    controller's ``prev_delay`` before and after the real update (the
    controller stores the delay it acted on there), so no state is
    recomputed or mutated and seeded behaviour is bit-identical.

    Emits per update: ``aqm_update`` with the queue-delay input, the
    target, the error terms, ``p_prime`` (the linear probability the PI
    core computed) and ``p`` (the applied probability; for coupled AQMs
    additionally ``ps``/``pc``).  Emits per enqueue verdict:
    ``aqm_decision`` with the verdict name, applied probability, ECN
    codepoint and flow id.

    Returns ``aqm`` (possibly None, possibly uninstrumented when the
    tracer does not subscribe to the ``aqm`` category).
    """
    if aqm is None or tracer is None or not tracer.wants("aqm"):
        return aqm
    original_update = aqm.update
    original_decide = aqm.decide
    emit = tracer.emit
    kind = type(aqm).__name__
    controller = getattr(aqm, "controller", None)

    def traced_update() -> None:
        """Run the real control-law update, then emit ``aqm_update``."""
        prev_delay = controller.prev_delay if controller is not None else None
        original_update()
        sim = aqm.sim
        now = sim.now if sim is not None else 0.0
        fields: Dict[str, Any] = {
            "aqm": kind,
            "p_prime": aqm.raw_probability,
            "p": aqm.probability,
        }
        if controller is not None:
            # PIController.update() stores the delay it acted on in
            # prev_delay, so this re-reads — never recomputes — state.
            delay = controller.prev_delay
            fields["delay"] = delay
            fields["target"] = controller.target
            fields["error"] = delay - controller.target
            if prev_delay is not None:
                fields["delta_error"] = delay - prev_delay
        classic = getattr(aqm, "classic_probability", None)
        if classic is not None:
            fields["ps"] = aqm.probability
            fields["pc"] = classic
        emit("aqm", "aqm_update", now, fields)

    def traced_decide(packet: Any) -> Any:
        """Run the real verdict, then emit ``aqm_decision``."""
        decision = original_decide(packet)
        sim = aqm.sim
        now = sim.now if sim is not None else 0.0
        ecn = getattr(packet, "ecn", None)
        emit(
            "aqm",
            "aqm_decision",
            now,
            {
                "aqm": kind,
                "verdict": decision.name.lower(),
                "p": aqm.probability,
                "ecn": ecn.name if ecn is not None else None,
                "flow": getattr(packet, "flow_id", None),
            },
        )
        return decision

    aqm.update = traced_update
    aqm.decide = traced_decide
    return aqm
