"""SCHED — scheduling expressions must be virtual-time derived.

Every event the engine dispatches comes from a ``schedule``/``at``/
``call_later``/``call_at``/``every`` call; the time argument is
where wall-clock contamination or past-time bugs enter.  The engine
raises at runtime for past times, but only on the seed/path that happens
to reach the call — this rule rejects the two statically decidable bug
classes at every call site in the simulation packages:

* a **negative literal** time/delay argument (a past time by
  construction, on every path);
* a time expression containing a **wall-clock read** (``time.time()``,
  ``time.monotonic()``, ``datetime.now()``, ...) — host time must never
  be mixed into virtual-time arithmetic.  Correct expressions derive
  from ``self.now`` / ``sim.now``, event fields, or configured offsets.

The rule keys on method *names*, so any object exposing the engine's
scheduling interface (the simulator itself, facades, test doubles) is
covered.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.static.core import Finding, Rule, Severity, SourceFile, register
from repro.analysis.static.rules.common import attr_chain
from repro.analysis.static.rules.det import _is_wall_clock

__all__ = ["SchedulingRule"]

#: Engine scheduling entry points (see repro.sim.engine.Simulator).
_SCHEDULING_METHODS = frozenset(
    {"schedule", "at", "call_later", "call_at", "every"}
)


def _negative_literal(node: ast.AST) -> bool:
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return node.operand.value > 0
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and node.value < 0
    )


def _wall_clock_calls(node: ast.AST) -> Iterator[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = attr_chain(sub.func)
            if chain is not None and _is_wall_clock(chain):
                yield sub


@register
class SchedulingRule(Rule):
    """Scheduling time arguments: no literal past times, no wall clock."""

    name = "SCHED"
    severity = Severity.ERROR
    description = (
        "schedule/at/call_later/call_at/every time arguments "
        "must derive from virtual time — no negative literals, no "
        "wall-clock reads"
    )
    packages = ("sim", "net", "aqm", "tcp", "core", "harness", "traffic")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _SCHEDULING_METHODS
            ):
                continue
            if not node.args:
                continue
            time_arg = node.args[0]
            if _negative_literal(time_arg):
                yield self.finding(
                    source,
                    time_arg,
                    f"{func.attr}() called with a negative literal time — "
                    "a past time on every execution path",
                )
            for clock_call in _wall_clock_calls(time_arg):
                chain = attr_chain(clock_call.func)
                yield self.finding(
                    source,
                    clock_call,
                    f"{func.attr}() time argument reads the host clock "
                    f"({'.'.join(chain or ())}); scheduling must use "
                    "virtual time (self.now / sim.now)",
                )
