"""The domain static-analysis framework: every rule fires on a fixture
that violates it and stays quiet on the compliant twin, suppressions
behave as documented, the JSON schema is locked, and — the acceptance
gate — the repository's own tree is clean.
"""

import ast
import json
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis.static import (
    JSON_SCHEMA_VERSION,
    RULES,
    SourceFile,
    analyze_paths,
    check_source,
    run_check,
)
from repro.analysis.static.core import parse_allow_comments


def _check(text, package, rules=None, path="fixture.py"):
    """Run selected rules over an in-memory fixture; returns findings."""
    source = SourceFile(Path(path), text=text, package=package)
    selected = [RULES[name] for name in rules] if rules else None
    findings, suppressed = check_source(source, selected)
    return findings, suppressed


def _rules_hit(findings):
    return {finding.rule for finding in findings}


# ----------------------------------------------------------------------
# Registry / framework basics
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_builtin_rules_registered(self):
        assert {
            "DET", "ORD", "PROB", "SCHED", "PICKLE", "FLOAT", "OBS"
        } <= set(RULES)

    def test_rules_have_descriptions_and_severity(self):
        for rule in RULES.values():
            assert rule.description
            assert rule.severity.value in ("error", "warning")

    def test_package_scoping(self):
        # A DET violation in a package the rule does not cover is ignored.
        text = "import random\nrng = random.Random()\n"
        findings, _ = _check(text, package="metrics", rules=["DET"])
        assert findings == []
        findings, _ = _check(text, package="sim", rules=["DET"])
        assert _rules_hit(findings) == {"DET"}

    def test_syntax_error_yields_syntax_finding(self):
        findings, _ = _check("def broken(:\n", package="aqm")
        assert [finding.rule for finding in findings] == ["SYNTAX"]

    def test_finding_is_sorted_and_locatable(self):
        text = "import random\nb = random.Random()\na = random.Random()\n"
        findings, _ = _check(text, package="sim", rules=["DET"])
        assert [finding.line for finding in findings] == [2, 3]
        assert all(finding.col >= 1 for finding in findings)


# ----------------------------------------------------------------------
# DET — seeded randomness, no wall clock
# ----------------------------------------------------------------------
class TestDetRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random()\n",
            "import random\nrng = random.Random(42)\n",
            "import random\nx = random.random()\n",
            "import numpy\nx = numpy.random.rand()\n",
            "import numpy as np\nx = np.random.uniform()\n",
            "import time\nt = time.time()\n",
            "import time\nt = time.monotonic()\n",
            "from datetime import datetime\nt = datetime.now()\n",
            "import os\nkey = os.urandom(8)\n",
            "import uuid\nu = uuid.uuid4()\n",
            "import secrets\nx = secrets.token_bytes(8)\n",
            "import time\nclock = time.monotonic\n",
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="sim", rules=["DET"])
        assert _rules_hit(findings) == {"DET"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            # Randomness through the sanctioned stream factory.
            "def build(streams):\n    return streams.stream('aqm')\n",
            # Injected rng, used not constructed.
            "def decide(rng, p):\n    return rng.random() < p\n",
            # Virtual time, not wall time.
            "def later(sim):\n    return sim.now + 1.0\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="sim", rules=["DET"])
        assert findings == []

    def test_stream_factory_module_is_exempt(self):
        text = "import random\n\ndef default_stream(seed=0):\n    return random.Random(seed)\n"
        source = SourceFile(
            Path("src/repro/sim/random.py"), text=text, package="sim"
        )
        findings, _ = check_source(source, [RULES["DET"]])
        assert findings == []


# ----------------------------------------------------------------------
# ORD — deterministic iteration
# ----------------------------------------------------------------------
class TestOrdRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "names = {'a', 'b'}\nfor n in names:\n    print(n)\n",
            "names = set()\nout = [n for n in names]\n",
            "import os\nfor f in os.listdir('.'):\n    print(f)\n",
            "import glob\nfor f in glob.glob('*.py'):\n    print(f)\n",
            "from pathlib import Path\nfor f in Path('.').iterdir():\n    print(f)\n",
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="harness", rules=["ORD"])
        assert _rules_hit(findings) == {"ORD"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "names = {'a', 'b'}\nfor n in sorted(names):\n    print(n)\n",
            "import os\nfor f in sorted(os.listdir('.')):\n    print(f)\n",
            # Dicts iterate in insertion order — deliberately not flagged.
            "d = {'a': 1}\nfor k in d:\n    print(k)\n",
            "items = [1, 2]\nfor x in items:\n    print(x)\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="harness", rules=["ORD"])
        assert findings == []


# ----------------------------------------------------------------------
# PROB — probability domain
# ----------------------------------------------------------------------
class TestProbRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(ps, k):\n    pc = ps / k\n    return pc\n",
            "class A:\n    def update(self, d):\n        self.p = self.p + d\n",
            "class A:\n    @property\n    def probability(self):\n"
            "        return self.p ** 2\n",
            "def f(p, denom):\n    pa = min(p / denom, 1.0)\n    return pa\n",  # one-sided
            "class A:\n    def bump(self, d):\n        self.p += d\n",  # attribute aug
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="aqm", rules=["PROB"])
        assert _rules_hit(findings) == {"PROB"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(ps, k):\n    pc = clamp_unit(ps / k)\n    return pc\n",
            "def f(x):\n    p = min(max(x, 0.0), 1.0)\n    return p\n",
            "class A:\n    @property\n    def probability(self):\n"
            "        return clamp_unit(self.p ** 2)\n",
            "p = 0.5\n",
            "def f(other):\n    p = other.p\n    return p\n",
            # Local accumulator then clamped store is the tolerated pattern.
            "class A:\n    def update(self, d):\n        acc = self.p\n        acc += d\n"
            "        self.p = clamp_unit(acc)\n",
            # bool-returning range *checks* are not probability producers.
            "def is_unit_probability(value: float) -> bool:\n"
            "    return 0.0 <= value <= 1.0\n",
            # p_max is a configuration bound, not a probability write.
            "p_max = 5.0\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="aqm", rules=["PROB"])
        assert findings == []


# ----------------------------------------------------------------------
# FLOAT — order-stable float accumulation
# ----------------------------------------------------------------------
class TestFloatRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(values):\n    total = 0.0\n"
            "    for v in set(values):\n        total += v\n    return total\n",
            "def f(values):\n    total = 0.0\n"
            "    for v in {1.0, 2.0}:\n        total += v\n    return total\n",
            "def f(values):\n    total = 0.0\n"
            "    for v in frozenset(values):\n"
            "        total = total + v\n    return total\n",
            "import os\n\ndef f(d):\n    total = 0.0\n"
            "    for name in os.listdir(d):\n"
            "        total += float(name)\n    return total\n",
            "def f(xs, ys):\n    total = 0.0\n"
            "    for v in {x for x in xs}:\n        total += v\n    return total\n",
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="metrics", rules=["FLOAT"])
        assert _rules_hit(findings) == {"FLOAT"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            # The sanctioned fix: a sorted sequence fixes the order.
            "def f(values):\n    total = 0.0\n"
            "    for v in sorted(set(values)):\n        total += v\n"
            "    return total\n",
            # Lists/tuples/ranges iterate in a reproducible order.
            "def f(values):\n    total = 0.0\n"
            "    for v in values:\n        total += v\n    return total\n",
            "def f():\n    total = 0.0\n"
            "    for v in range(10):\n        total += v\n    return total\n",
            # Unordered iteration without accumulation is ORD's concern.
            "def f(values):\n    out = []\n"
            "    for v in set(values):\n        out.append(v)\n    return out\n",
            # sum()/fsum over an explicit sort are the recommended forms.
            "import math\n\ndef f(values):\n"
            "    return math.fsum(sorted(values))\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="metrics", rules=["FLOAT"])
        assert findings == []

    def test_scoped_to_float_sensitive_packages(self):
        text = (
            "def f(values):\n    total = 0.0\n"
            "    for v in set(values):\n        total += v\n    return total\n"
        )
        findings, _ = _check(text, package="harness", rules=["FLOAT"])
        assert findings == []
        findings, _ = _check(text, package="sim", rules=["FLOAT"])
        assert _rules_hit(findings) == {"FLOAT"}


# ----------------------------------------------------------------------
# SCHED — virtual-time scheduling
# ----------------------------------------------------------------------
class TestSchedRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(sim, cb):\n    sim.schedule(-1.0, cb)\n",
            "def f(sim, cb):\n    sim.call_at(-0.5, cb)\n",
            "import time\n\ndef f(sim, cb):\n    sim.schedule(time.time(), cb)\n",
            "import time\n\ndef f(sim, cb):\n    sim.call_later(time.monotonic(), cb)\n",
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="net", rules=["SCHED"])
        assert _rules_hit(findings) == {"SCHED"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            "def f(sim, cb):\n    sim.schedule(sim.now + 0.1, cb)\n",
            "def f(sim, cb, delay):\n    sim.schedule(delay, cb)\n",
            "def f(sim, cb):\n    sim.every(0.032, cb)\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="net", rules=["SCHED"])
        assert findings == []


# ----------------------------------------------------------------------
# PICKLE — the process-pool seam
# ----------------------------------------------------------------------
class TestPickleRule:
    def test_lambda_into_seam_constructor_fires(self):
        text = "f = NamedAqmFactory(lambda rng: None)\n"
        findings, _ = _check(text, package="harness", rules=["PICKLE"])
        assert _rules_hit(findings) == {"PICKLE"}

    def test_function_local_class_fires(self):
        text = (
            "def build():\n"
            "    class LocalAqm:\n"
            "        pass\n"
            "    return NamedAqmFactory(LocalAqm)\n"
        )
        findings, _ = _check(text, package="harness", rules=["PICKLE"])
        assert _rules_hit(findings) == {"PICKLE"}

    def test_slots_seam_class_without_getstate_fires(self):
        text = (
            "class NamedAqmFactory:\n"
            "    __slots__ = ('cls', 'kwargs')\n"
            "    def __init__(self):\n"
            "        pass\n"
        )
        findings, _ = _check(text, package="harness", rules=["PICKLE"])
        assert _rules_hit(findings) == {"PICKLE"}

    def test_quiet_on_compliant_seam(self):
        text = (
            "class NamedAqmFactory:\n"
            "    __slots__ = ('cls', 'kwargs')\n"
            "    def __getstate__(self):\n"
            "        return (self.cls, self.kwargs)\n"
            "    def __setstate__(self, state):\n"
            "        self.cls, self.kwargs = state\n"
            "\n"
            "def build(cls):\n"
            "    return NamedAqmFactory(cls)\n"
        )
        findings, _ = _check(text, package="harness", rules=["PICKLE"])
        assert findings == []

    def test_module_level_class_is_fine(self):
        text = (
            "class MyAqm:\n"
            "    pass\n"
            "\n"
            "def build():\n"
            "    return NamedAqmFactory(MyAqm)\n"
        )
        findings, _ = _check(text, package="harness", rules=["PICKLE"])
        assert findings == []


# ----------------------------------------------------------------------
# OBS — tracers observe, never steer
# ----------------------------------------------------------------------
class TestObsRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            # Tracer call result assigned.
            "def f(tracer):\n    ok = tracer.emit('aqm', 'x', 0.0, {})\n"
            "    return ok\n",
            # Tracer call result tested in a condition.
            "def f(self):\n    if self._tracer.wants('engine'):\n"
            "        return 1\n    return 0\n",
            # Tracer call result passed onward.
            "def f(tracer, sink):\n"
            "    sink(tracer.emit('aqm', 'x', 0.0, {}))\n",
            # Tracer handed to the scheduler as a callback.
            "def f(sim, tracer):\n    sim.every(0.016, tracer.flush)\n",
            # Tracer state mixed into a scheduling time argument.
            "def f(sim, cb):\n"
            "    sim.schedule(self._tracer.last_t + 0.1, cb)\n",
            # ... including via keyword arguments.
            "def f(sim, tracer, cb):\n"
            "    sim.call_at(1.0, cb, key=tracer)\n",
        ],
    )
    def test_fires(self, snippet):
        findings, _ = _check(snippet, package="sim", rules=["OBS"])
        assert _rules_hit(findings) == {"OBS"}, snippet

    @pytest.mark.parametrize(
        "snippet",
        [
            # The sanctioned shape: emit as a bare statement.
            "def f(tracer):\n    tracer.emit('aqm', 'x', 0.0, {})\n",
            "def f(self):\n    self._tracer.emit('engine', 'x', 0.0, {})\n",
            # Guarding on identity (not a call) is fine.
            "def f(self):\n    if self._tracer is not None:\n"
            "        self._tracer.emit('engine', 'x', 0.0, {})\n",
            # Binding the emit method (attribute read, not a call).
            "def f(tracer):\n"
            "    emit = tracer.emit if tracer is not None else None\n"
            "    if emit is not None:\n"
            "        emit('harness', 'x', 0.0, {})\n",
            # obs-package helpers called by bare name are not tracer chains.
            "def f(sim, tracer):\n"
            "    sim.set_tracer(engine_tracer(tracer))\n",
            # Scheduling without any tracer reference is SCHED's business.
            "def f(sim, cb):\n    sim.schedule(sim.now + 0.1, cb)\n",
        ],
    )
    def test_quiet_on_compliant(self, snippet):
        findings, _ = _check(snippet, package="sim", rules=["OBS"])
        assert findings == [], snippet

    def test_scoped_to_simulation_packages(self):
        # The obs package itself (and anything outside the simulation
        # packages) may consume tracer results — that is where wants()
        # capability checks live.
        text = "def f(tracer):\n    return tracer.wants('aqm')\n"
        findings, _ = _check(text, package="obs", rules=["OBS"])
        assert findings == []
        findings, _ = _check(text, package="harness", rules=["OBS"])
        assert _rules_hit(findings) == {"OBS"}


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_allow_suppresses(self):
        text = (
            "import random\n"
            "rng = random.Random(7)  # repro: allow[DET] fixture justification\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["DET"])
        assert findings == []
        assert [finding.rule for finding in suppressed] == ["DET"]

    def test_standalone_allow_covers_next_code_line(self):
        text = (
            "import random\n"
            "# repro: allow[DET] fixture justification\n"
            "rng = random.Random(7)\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["DET"])
        assert findings == []
        assert len(suppressed) == 1

    def test_allow_is_rule_specific(self):
        text = (
            "import random\n"
            "rng = random.Random(7)  # repro: allow[PROB] wrong rule\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["DET"])
        assert [finding.rule for finding in findings] == ["DET"]
        assert suppressed == []

    def test_multi_rule_allow(self):
        allowed = parse_allow_comments(
            ["x = 1  # repro: allow[DET, PROB] two at once"]
        )
        names, why = allowed[1]
        assert names == frozenset({"DET", "PROB"})
        assert why == "two at once"

    def test_standalone_allow_does_not_leak_past_one_statement(self):
        text = (
            "import random\n"
            "# repro: allow[DET] only the next line\n"
            "a = random.Random(1)\n"
            "b = random.Random(2)\n"
        )
        findings, suppressed = _check(text, package="sim", rules=["DET"])
        assert [finding.line for finding in findings] == [4]
        assert len(suppressed) == 1


# ----------------------------------------------------------------------
# Runner: JSON schema, file walking, exit codes, the tree itself
# ----------------------------------------------------------------------
class TestRunner:
    def _write_fixture(self, tmp_path, name="repro/sim/bad.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("import random\nrng = random.Random()\n")
        return target

    def test_json_schema_locked(self, tmp_path):
        self._write_fixture(tmp_path)
        report = analyze_paths([tmp_path])
        payload = report.to_json()
        assert set(payload) == {
            "schema",
            "files_checked",
            "files_analyzed",
            "rules",
            "counts",
            "findings",
            "suppressed",
        }
        assert payload["schema"] == JSON_SCHEMA_VERSION == 2
        assert payload["files_checked"] == 1
        assert payload["files_analyzed"] == 1
        assert set(payload["counts"]) == set(payload["rules"]) == set(RULES)
        (finding,) = [f for f in payload["findings"] if f["rule"] == "DET"]
        assert set(finding) == {"rule", "severity", "path", "line", "col", "message"}
        assert payload["counts"]["DET"] == 1

    def test_run_check_exit_codes(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        out = StringIO()
        assert run_check([str(bad)], out=out) == 1
        out = StringIO()
        assert run_check([str(bad)], rule_names=["ORD"], out=out) == 0
        out = StringIO()
        assert run_check([str(bad)], rule_names=["NOPE"], out=out) == 2
        assert "unknown rule" in out.getvalue()
        out = StringIO()
        assert run_check(list_rules=True, out=out) == 0
        assert "DET" in out.getvalue()

    def test_json_output_parses(self, tmp_path):
        bad = self._write_fixture(tmp_path)
        out = StringIO()
        run_check([str(bad)], output_format="json", out=out)
        payload = json.loads(out.getvalue())
        assert payload["schema"] == 2

    def test_pycache_skipped_and_order_stable(self, tmp_path):
        self._write_fixture(tmp_path, "repro/sim/bad.py")
        cached = tmp_path / "repro" / "__pycache__" / "junk.py"
        cached.parent.mkdir(parents=True)
        cached.write_text("import random\nx = random.Random()\n")
        report = analyze_paths([tmp_path])
        assert report.files_checked == 1

    def test_repository_tree_is_clean(self):
        """The acceptance gate: zero unsuppressed findings at HEAD."""
        report = analyze_paths()
        assert report.findings == [], "\n" + report.format_human()
        # The deliberate, justified suppressions (engine watchdog wall
        # clock, cache entry count, tune-table sweep variable).
        assert len(report.suppressed) >= 3
        assert report.files_checked > 50

    def test_checker_parses_every_repo_file(self):
        report = analyze_paths()
        assert not any(f.rule == "SYNTAX" for f in report.findings)


class TestCli:
    def test_repro_check_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "OK: 0 findings" in out

    def test_repro_check_rules_and_json(self, capsys):
        from repro.cli import main

        assert main(["check", "--rules", "DET,ORD", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["rules"]) == {"DET", "ORD"}

    def test_repro_check_flags_violation(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrng = random.Random()\n")
        assert main(["check", str(tmp_path)]) == 1
        assert "DET" in capsys.readouterr().out


def test_ast_fixture_roundtrip():
    """Sanity: fixtures in this file are valid Python (guards typos)."""
    ast.parse("def f(sim, cb):\n    sim.schedule(sim.now + 0.1, cb)\n")
