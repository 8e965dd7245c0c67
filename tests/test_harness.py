"""Tests for the experiment harness (runner + table generators).

Table generators are exercised on a two-workload subset so the suite
stays fast; the benchmarks directory regenerates the full tables.
"""

import pytest

from repro.errors import HarnessError
from repro.harness import (
    ExperimentRunner,
    RunSpec,
    figure7,
    figure8a,
    figure8b,
    make_instrumentations,
    overhead_percent,
    render_table,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.sampling import Strategy

SUBSET = ["db", "javac"]


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestRunner:
    def test_baseline_cached(self, runner):
        a = runner.baseline("db")
        b = runner.baseline("db")
        assert a[0] is b[0]

    def test_run_full_duplication(self, runner):
        # scale 1 pinned: at db's default scale the loop bodies dwarf
        # the (constant) call count, so interval-31 samples can all
        # land in call-free code and record no edges.
        result = runner.run(
            RunSpec(
                "db",
                Strategy.FULL_DUPLICATION,
                ("call-edge",),
                trigger="counter",
                interval=31,
                scale=1,
            )
        )
        assert result.stats.samples_taken > 0
        assert result.profiles["call-edge"].total() > 0
        assert result.transform_report is not None

    def test_overhead_pct_positive_for_exhaustive(self, runner):
        pct = runner.overhead_pct(
            RunSpec("db", Strategy.EXHAUSTIVE, ("call-edge",))
        )
        assert pct > 0

    def test_perfect_profiles_interval_one(self, runner):
        profiles = runner.perfect_profiles("db", ("call-edge",))
        exhaustive = runner.run(
            RunSpec("db", Strategy.EXHAUSTIVE, ("call-edge",))
        ).profiles
        assert (
            profiles["call-edge"].counts
            == exhaustive["call-edge"].counts
        )

    def test_unknown_instrumentation_kind(self):
        with pytest.raises(HarnessError, match="unknown instrumentation"):
            make_instrumentations(("nonsense",))

    def test_spec_describe(self):
        spec = RunSpec(
            "db",
            Strategy.FULL_DUPLICATION,
            ("call-edge",),
            trigger="counter",
            interval=100,
            yieldpoint_opt=True,
        )
        text = spec.describe()
        assert "db" in text and "counter@100" in text and "yp-opt" in text

    def test_overhead_percent_math(self):
        assert overhead_percent(100, 150) == pytest.approx(50.0)
        with pytest.raises(HarnessError):
            overhead_percent(0, 1)

    def test_semantics_tripwire(self, runner):
        # checks enabled by default — a normal run passes through
        result = runner.run(RunSpec("db", Strategy.EXHAUSTIVE, ("none",)))
        assert result.value == runner.baseline("db")[1].value


class TestFormatting:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "pct"], [["alpha", 1.5], ["b", 20.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert "alpha" in lines[3]
        assert "20.2" in lines[4]

    def test_none_renders_dash(self):
        text = render_table(["a"], [[None]])
        assert "-" in text


class TestTableGenerators:
    def test_table1_rows_and_average(self, runner):
        result = table1(runner, workloads=SUBSET)
        assert len(result.rows) == 3
        assert result.rows[-1][0] == "AVERAGE"
        # measured overheads are positive
        assert all(row[1] > 0 for row in result.rows)
        assert "Table 1" in result.render()

    def test_table2_breakdown_sums_roughly_to_total(self, runner):
        result = table2(runner, workloads=SUBSET)
        for row in result.rows[:-1]:
            total, back, entry = row[1], row[3], row[5]
            # direct checking costs approximate the total (paper §4.3)
            assert back + entry == pytest.approx(total, abs=3.0)

    def test_table3_call_edge_cheap(self, runner):
        result = table3(runner, workloads=SUBSET)
        for row in result.rows[:-1]:
            call, field = row[1], row[3]
            assert call < field  # the paper's central contrast

    def test_table4_shapes(self, runner):
        result = table4(
            runner, workloads=["db"], intervals=[1, 10, 100]
        )
        rows = {row[0]: row for row in result.rows}
        full1 = rows["full-duplication@1"]
        full100 = rows["full-duplication@100"]
        # interval 1: perfect accuracy by construction
        assert full1[6] == pytest.approx(100.0)
        assert full1[8] == pytest.approx(100.0)
        # overhead decreases with interval, samples decrease
        assert full100[4] < full1[4]
        assert full100[1] < full1[1]

    def test_table5_reports_both_triggers(self, runner):
        result = table5(runner, workloads=["db"])
        row = result.rows[0]
        assert 0 <= row[1] <= 100 and 0 <= row[3] <= 100
        # sample counts approximately matched
        assert abs(row[5] - row[6]) <= max(10, row[5] // 2)

    def test_figure7(self, runner):
        table, overlap = figure7(runner, interval=50, scale=3, top_n=10)
        assert 0 < overlap <= 100
        assert len(table.rows) <= 10
        assert all("->" in row[0] for row in table.rows)

    def test_figure8a_cheaper_than_table2(self, runner):
        plain = table2(runner, workloads=SUBSET)
        opt = figure8a(runner, workloads=SUBSET)
        plain_avg = plain.rows[-1][1]
        opt_avg = opt.rows[-1][1]
        assert opt_avg < plain_avg

    def test_figure8b_converges_to_framework_floor(self, runner):
        result = figure8b(
            runner, workloads=["db"], intervals=[10, 1000]
        )
        small, large = result.rows[0][1], result.rows[1][1]
        assert large < small
