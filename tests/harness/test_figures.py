"""Tests for the programmatic figure-data generators."""

import math
from dataclasses import replace

import pytest

from repro.errors import ConfigError, FigureGenerationError
from repro.harness.experiment import Experiment, FlowGroup
from repro.harness.factories import pi2_factory
from repro.harness.figures import (
    FIGURES,
    FigureData,
    FigureRunner,
    generate_figure,
)
from repro.harness.journal import ResultJournal
from repro.harness.parallel import RunPolicy
from repro.harness.supervisor import SupervisorConfig


def _journaled(directory, resume=False):
    """The policy of ``repro figure fig12 --journal DIR [--resume]``."""
    return RunPolicy(
        journal=ResultJournal(directory / "fig12.journal"), resume=resume
    )


class TestRegistry:
    def test_expected_figures_present(self):
        for name in ("fig04", "fig05", "fig06", "fig07", "fig11", "fig12",
                     "fig13", "fig19"):
            assert name in FIGURES

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            generate_figure("fig99")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_figure("fig05", scale=0)


class TestAnalyticFigures:
    """The cheap, deterministic generators run in milliseconds."""

    def test_fig04_rows(self):
        data = generate_figure("fig04")
        assert data.headers[0] == "p"
        assert len(data.rows) == 8
        # The tune=1 column crosses zero somewhere (the diagonal).
        fixed = [row[2] for row in data.rows]
        assert min(fixed) < 0 < max(fixed)

    def test_fig05_rows(self):
        data = generate_figure("fig05")
        assert all(len(row) == 3 for row in data.rows)
        assert data.rows[-1][0] == 1.0

    def test_fig07_rows(self):
        data = generate_figure("fig07")
        pi2 = [row[2] for row in data.rows]
        assert all(g > 0 for g in pi2)


class TestRenderingAndExport:
    def test_table_includes_note(self):
        data = generate_figure("fig05")
        assert "sqrt(2p)" in data.table()
        assert data.note in data.table()

    def test_csv_round_trip(self, tmp_path):
        import csv

        data = generate_figure("fig04")
        path = tmp_path / "fig04.csv"
        data.to_csv(path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == data.headers
        assert len(rows) == len(data.rows) + 1

    def test_csv_is_utf8_regardless_of_locale(self, tmp_path):
        """Headers carry non-ASCII (µs, ≈); the writer must pin UTF-8
        instead of inheriting a locale encoding that can't express them."""
        data = FigureData(
            "Figure µ", ["delay [µs]", "ratio ≈"], [(1.0, "≤2")],
        )
        path = tmp_path / "fig.csv"
        data.to_csv(path)
        text = path.read_bytes().decode("utf-8")
        assert "delay [µs]" in text
        assert "≤2" in text


def _doomed_experiment():
    """Deterministically exhausts its event budget mid-simulation."""
    return Experiment(
        capacity_bps=10e6, duration=2.0, warmup=0.5, seed=9,
        max_events=500, aqm_factory=pi2_factory(),
        flows=[FlowGroup(cc="reno", count=2, rtt=0.02)],
    )


class FailOncePi2Factory:
    """Picklable PI2 factory whose first construction raises (a flag file
    records it, across processes): the cell fails on its own seed and
    would succeed on a seed-bumped retry."""

    def __init__(self, flag_path):
        self.flag_path = str(flag_path)

    def cache_key(self) -> str:
        return "fail-once-pi2"

    def __call__(self, rng):
        try:
            open(self.flag_path, "x").close()
        except FileExistsError:
            return pi2_factory()(rng)
        raise RuntimeError("first construction fails")


class TestFailurePropagation:
    """A broken cell must raise with figure/cell/sim-time context — the
    old ``_run_one`` dropped the failure and returned ``None``."""

    def test_failing_cell_raises_contextual_error(self, tmp_path):
        journal = ResultJournal(tmp_path / "fig.journal")
        runner = FigureRunner("fig12", RunPolicy(journal=journal))
        with pytest.raises(FigureGenerationError) as excinfo:
            runner.run_cell("pie", _doomed_experiment())
        err = excinfo.value
        assert err.figure == "fig12"
        assert err.label == "pie"
        assert err.error_type == "WatchdogExceeded"
        assert err.sim_time is not None and err.sim_time > 0
        message = str(err)
        assert "fig12" in message and "'pie'" in message
        assert "t=" in message  # virtual time of death
        # The failure was not journaled: a resume re-runs the cell.
        assert runner.report.journal_appends == 0

    def test_failure_is_not_silently_seed_bumped(self, tmp_path):
        """Figures present specific seeds; the runner must not retry a
        failing cell on a bumped seed the way sweeps may — on any
        backend (the supervised one used to take its own default of one
        seed-bump retry)."""
        from repro.harness.cache import ResultCache

        for name, policy in (
            ("cache", RunPolicy(cache=ResultCache(tmp_path))),
            ("supervised", RunPolicy(supervisor=SupervisorConfig())),
        ):
            runner = FigureRunner("fig12", policy)
            with pytest.raises(FigureGenerationError) as excinfo:
                runner.run_cell("pie", _doomed_experiment())
            assert "seed" not in str(excinfo.value).lower()
            assert runner.report.executed == 0
            # A cell that fails once must fail, not come back from a retry.
            fail_once = replace(
                _doomed_experiment(), max_events=None,
                aqm_factory=FailOncePi2Factory(tmp_path / f"{name}.flag"),
            )
            with pytest.raises(FigureGenerationError):
                runner.run_cell("pie", fail_once)


class TestStageWindows:
    """Satellite: short stages used to push the fixed 1 s warmup offset
    past the stage end, feeding np.mean an empty slice -> NaN rows."""

    def test_fig06_small_scale_rows_are_finite(self):
        data = generate_figure("fig06", scale=0.0625)  # stage = 0.5 s
        assert len(data.rows) == 10
        for row in data.rows:
            assert math.isfinite(row[2]), row
            assert math.isfinite(row[3]), row

    def test_fig06_below_minimum_stage_rejected(self):
        with pytest.raises(ConfigError, match="minimum"):
            generate_figure("fig06", scale=0.06)

    def test_fig13_below_minimum_stage_rejected(self):
        with pytest.raises(ConfigError, match="scale >="):
            generate_figure("fig13", scale=0.04)


class TestSimulatedFigure:
    def test_fig12_small_scale(self):
        data = generate_figure("fig12", scale=0.3)
        assert [row[0] for row in data.rows] == ["pie", "pi2"]
        # Transient peaks are present and finite.
        assert all(row[1] > 0 for row in data.rows)


class TestFigureJournalResume:
    """The tentpole contract at the figure surface: journal, resume,
    compaction — all bit-exact against a plain run."""

    def test_journaled_resume_is_bit_exact(self, tmp_path):
        plain = generate_figure("fig12", scale=0.12)
        first = generate_figure("fig12", scale=0.12, policy=_journaled(tmp_path))
        assert first.rows == plain.rows
        assert first.report.journal_appends == 2
        assert first.report.executed == 2
        assert (tmp_path / "fig12.journal").exists()

        resumed = generate_figure(
            "fig12", scale=0.12, policy=_journaled(tmp_path, resume=True)
        )
        assert resumed.rows == plain.rows
        assert resumed.report.replayed == 2
        assert resumed.report.executed == 0
        assert resumed.report.journal_appends == 0

    def test_compacted_journal_resumes_identically(self, tmp_path):
        """Re-recording a figure piles superseded records into its
        journal; compaction must drop them without changing what a
        resume replays."""
        plain = generate_figure("fig12", scale=0.12)
        generate_figure("fig12", scale=0.12, policy=_journaled(tmp_path))
        generate_figure(  # duplicates
            "fig12", scale=0.12, policy=_journaled(tmp_path)
        )
        journal_path = tmp_path / "fig12.journal"
        assert len(ResultJournal(journal_path).read().records) == 4

        dropped = ResultJournal(journal_path).compact()
        assert dropped == 2
        resumed = generate_figure(
            "fig12", scale=0.12, policy=_journaled(tmp_path, resume=True)
        )
        assert resumed.rows == plain.rows
        assert resumed.report.replayed == 2

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ConfigError, match="journal"):
            generate_figure("fig12", scale=0.12, policy=RunPolicy(resume=True))

    def test_report_attached_even_for_analytic_figures(self):
        data = generate_figure("fig05")
        assert data.report is not None
        assert data.report.executed == 0
        assert "executed=0" in data.report.summary()
