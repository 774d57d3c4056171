"""Source-file → layer map and the per-layer split of a cProfile run.

Layers are named by the files their functions are defined in, not by
module or class names, so renaming a function inside a file keeps its
layer.  A pattern ending in ``/`` names a directory under ``src/repro``;
any other pattern names one file.  A file takes the layer of its longest
matching pattern (``tcp/receiver.py`` beats ``tcp/``).  Everything
defined outside ``src/repro`` — the interpreter's builtins, the standard
library, numpy, and this benchmark's own files — is the ``python`` layer.

:func:`check_layer_map` is the self-check: every module under
``src/repro`` must resolve to a named layer, and every pattern must still
match a file, so a module added (or removed) later cannot silently drop
out of the split.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, List, Tuple

#: Layer name → source patterns relative to ``src/repro``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/",),
    "net.link": ("net/link.py",),
    "net.pipe": ("net/pipe.py",),
    "net.queue": ("net/queue.py",),
    "net.packet": ("net/packet.py", "net/node.py"),
    "net.other": ("net/",),
    "aqm": ("aqm/",),
    "core": ("core/",),
    "tcp.sender": ("tcp/",),
    "tcp.receiver": ("tcp/receiver.py",),
    "traffic": ("traffic/",),
    "metrics": ("metrics/",),
    "harness.run": (
        "harness/",
        "harness/experiment.py",
        "harness/topology.py",
        "harness/scenarios.py",
        "harness/factories.py",
    ),
    "harness.sweep": (
        "harness/sweep.py",
        "harness/parallel.py",
        "harness/supervisor.py",
        "harness/journal.py",
        "harness/resilience.py",
        "harness/repeat.py",
        "harness/figures.py",
    ),
    "harness.cache": ("harness/cache.py", "harness/frozen.py"),
    "obs": ("obs/",),
    "cli": ("cli.py", "__main__.py", "__init__.py", "errors.py", "units.py"),
    "analysis": ("analysis/",),
    "perf": ("perf/",),
}

#: Everything defined outside ``src/repro``.
OUTSIDE = "python"
#: Files under ``src/repro`` the map does not place (a map defect).
UNATTRIBUTED = "unattributed"

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + (OUTSIDE,)


def _patterns() -> List[Tuple[str, str]]:
    return [(pattern, layer) for layer, pats in LAYERS.items() for pattern in pats]


def layer_of_relpath(relpath: str) -> str:
    """Layer of one file given its path relative to ``src/repro``."""
    relpath = relpath.replace(os.sep, "/")
    best = ""
    found = None
    for pattern, layer in _patterns():
        hit = relpath.startswith(pattern) if pattern.endswith("/") else relpath == pattern
        if hit and len(pattern) > len(best):
            best, found = pattern, layer
    if found is None:
        raise KeyError(f"src/repro/{relpath} maps to no layer")
    return found


class LayerMap:
    """Resolves profiler filenames to layers for one checkout."""

    def __init__(self, package_dir: str):
        self.package_dir = os.path.realpath(package_dir)
        self._cache: Dict[str, str] = {}

    def layer_of(self, filename: str) -> str:
        """Layer of a profiler filename (``~`` marks builtins)."""
        layer = self._cache.get(filename)
        if layer is None:
            path = os.path.realpath(filename) if filename.endswith(".py") else ""
            if path.startswith(self.package_dir + os.sep):
                try:
                    layer = layer_of_relpath(os.path.relpath(path, self.package_dir))
                except KeyError:
                    layer = UNATTRIBUTED
            else:
                layer = OUTSIDE
            self._cache[filename] = layer
        return layer


def package_modules(package_dir: str) -> List[str]:
    """Every ``.py`` file under the package, relative to it, sorted."""
    found = []
    for root, _dirs, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(root, name), package_dir)
                found.append(rel.replace(os.sep, "/"))
    return sorted(found)


def check_layer_map(package_dir: str) -> List[str]:
    """Problems with the layer map for this package (empty when sound)."""
    problems = []
    modules = package_modules(package_dir)
    for rel in modules:
        try:
            layer_of_relpath(rel)
        except KeyError as exc:
            problems.append(str(exc.args[0]))
    seen: Dict[str, str] = {}
    for pattern, layer in _patterns():
        if pattern in seen:
            problems.append(f"pattern {pattern!r} is in both {seen[pattern]} and {layer}")
        seen[pattern] = layer
        if pattern.endswith("/"):
            matched = any(rel.startswith(pattern) for rel in modules)
        else:
            matched = pattern in modules
        if not matched:
            problems.append(f"pattern {pattern!r} of layer {layer} matches no module")
    return problems


def split_profile(stats: dict, layer_map: LayerMap) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls_in`` from a ``pstats.Stats.stats`` dict.

    ``self_s`` sums the profiler's own time (``tt``) over the functions a
    layer defines.  ``calls_in`` counts calls into a layer's functions
    from functions of another layer.  Every layer in :data:`LAYER_NAMES`
    is present, zero when unused, plus :data:`UNATTRIBUTED` for functions
    in package files the map does not place (zero when the map is sound).
    """
    split = {name: {"self_s": 0.0, "calls_in": 0} for name in LAYER_NAMES + (UNATTRIBUTED,)}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_map.layer_of(func[0])
        entry = split[layer]
        entry["self_s"] += tt
        for caller, counts in callers.items():
            if layer_map.layer_of(caller[0]) != layer:
                entry["calls_in"] += counts[1]
    return split


def total_self_s(stats: dict) -> float:
    """The profiled total: ``tt`` summed over every function."""
    return math.fsum(row[2] for row in stats.values())


def iter_layer_metrics(split: Dict[str, Dict[str, float]]) -> Iterable[Tuple[str, float, str]]:
    """(metric name, value, unit) rows for a profile split."""
    for layer in LAYER_NAMES:
        yield f"{layer}.self_s", split[layer]["self_s"], "s"
        yield f"{layer}.calls_in", split[layer]["calls_in"], "count"
