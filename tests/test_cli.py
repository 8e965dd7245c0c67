"""Tests for the command-line interface."""

import pytest

from repro.cli import main

DEMO = """
class Counter { field chits; }

func tickCounter(c, step) {
    var next = c.chits + step;
    if (next > 100000) {
        next = next - 100000;
    }
    c.chits = next;
    return next;
}

func main() {
    var c = new Counter;
    var acc = 0;
    for (var i = 0; i < 150; i = i + 1) {
        acc = (acc + tickCounter(c, i % 3)) % 100003;
    }
    print(acc);
    return acc;
}
"""


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.minij"
    path.write_text(DEMO)
    return str(path)


class TestCompile:
    def test_summary(self, demo_file, capsys):
        assert main(["compile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "function(s)" in out
        assert "main(0)" in out

    def test_disasm(self, demo_file, capsys):
        assert main(["compile", demo_file, "--disasm"]) == 0
        out = capsys.readouterr().out
        assert "func main(0)" in out
        assert "class Counter" in out

    def test_opt_levels_change_size(self, demo_file, capsys):
        main(["compile", demo_file, "-O", "0"])
        o0 = capsys.readouterr().out
        main(["compile", demo_file, "-O", "2"])
        o2 = capsys.readouterr().out

        def total(text):
            return int(text.split(" instructions")[0].rsplit(" ", 1)[-1])

        assert total(o2) <= total(o0)

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.minij"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.minij"
        bad.write_text("func main( { }")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_prints_stats(self, demo_file, capsys):
        assert main(["run", demo_file]) == 0
        out = capsys.readouterr().out
        assert "result:" in out and "cycles:" in out


class TestProfile:
    @pytest.fixture(autouse=True)
    def _in_tmp(self, tmp_path, monkeypatch):
        # Without --stacks-out, `repro profile FILE` writes
        # <stem>.collapsed to the working directory.
        monkeypatch.chdir(tmp_path)

    def test_field_access_profile(self, demo_file, capsys):
        code = main(
            [
                "profile", demo_file,
                "--instrument", "field-access",
                "--interval", "7",
                "--top", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Counter:chits:get" in out
        assert "samples" in out

    def test_exhaustive_strategy(self, demo_file, capsys):
        code = main(
            [
                "profile", demo_file,
                "--instrument", "call-edge",
                "--strategy", "exhaustive",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tickCounter" in out

    def test_counted_iterations_flag(self, demo_file, capsys):
        code = main(
            [
                "profile", demo_file,
                "--instrument", "block-count",
                "--interval", "13",
                "--iterations", "4",
            ]
        )
        assert code == 0
        assert "samples" in capsys.readouterr().out

    def test_unknown_instrumentation(self, demo_file, capsys):
        assert main(["profile", demo_file, "--instrument", "bogus"]) == 1
        assert "unknown instrumentation" in capsys.readouterr().err


class TestFileTargets:
    """A FILE target runs as an ad-hoc workload registered under its
    path label."""

    @staticmethod
    def _baseline_cycles(path, capsys):
        assert main(["profile", path, "--no-self-profile"]) == 0
        first = capsys.readouterr().out.split("\n", 1)[0]
        return int(first.split()[1])

    def test_same_label_same_text_reuses_the_workload(self, demo_file):
        from repro.workloads import source_workload

        first = source_workload(demo_file, DEMO)
        assert source_workload(demo_file, DEMO) is first

    def test_same_label_new_text_is_compiled(self, demo_file, capsys):
        before = self._baseline_cycles(demo_file, capsys)
        with open(demo_file, "w") as handle:
            handle.write(DEMO.replace("i < 150", "i < 300"))
        after = self._baseline_cycles(demo_file, capsys)
        assert after > before

    def test_suite_names_cannot_be_shadowed(self):
        from repro.errors import HarnessError
        from repro.workloads import source_workload

        with pytest.raises(HarnessError, match="suite workload"):
            source_workload("compress", DEMO)

    def test_plan_takes_a_file(self, demo_file, capsys):
        assert main(["plan", demo_file]) == 0
        assert demo_file in capsys.readouterr().out


class TestWorkloads:
    def test_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "volano" in out

    def test_run_one(self, capsys):
        assert main(["workloads", "db"]) == 0
        out = capsys.readouterr().out
        assert "result:" in out

    def test_unknown(self, capsys):
        assert main(["workloads", "quake3"]) == 1
        assert "unknown workload" in capsys.readouterr().err


class TestAdaptive:
    def test_lifecycle(self, demo_file, capsys):
        assert main(["adaptive", demo_file, "--interval", "13"]) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out and "optimized:" in out


class TestTables:
    def test_single_table_subset_runs(self, capsys):
        # table1 over the full suite is the fastest table (~3s)
        assert main(["tables", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "AVERAGE" in out

    def test_figure7_runs_at_the_given_scale(self, capsys):
        from repro.harness import ExperimentRunner, tables

        argv = ["tables", "figure7", "--scale", "3", "--no-cache"]
        assert main(argv) == 0
        table, _overlap = tables.figure7(
            ExperimentRunner(cache=False), scale=3
        )
        assert capsys.readouterr().out == table.render() + "\n\n"


class TestCache:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        """A cache directory holding one stored baseline."""
        from repro.harness import ExperimentRunner

        directory = tmp_path / "cache"
        ExperimentRunner(cache=str(directory)).baseline("compress")
        return directory

    def test_info_lists_the_stored_entry(self, cache_dir, capsys):
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"cache directory: {cache_dir}"
        assert out[1].startswith("entries: 1 (")
        assert out[2].endswith("  compress/scale=None")
        assert len(out) == 3

    def test_clear_removes_the_stored_entry(self, cache_dir, capsys):
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert capsys.readouterr().out == (
            f"removed 1 cached baseline(s) from {cache_dir}\n"
        )
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "entries: 0 (0 bytes)" in capsys.readouterr().out


def test_parser_values_match_their_modules():
    """The parser spells out values it would otherwise import."""
    from repro import cli
    from repro.analysis.planner import BUDGETS
    from repro.harness import tables
    from repro.profiling import ledger

    assert cli._BUDGET_NAMES == tuple(sorted(BUDGETS))
    assert cli._LEDGER_FILENAME == ledger.LEDGER_FILENAME
    assert cli._LEDGER_WINDOW == ledger.DEFAULT_WINDOW
    assert cli._LEDGER_NOISE_PCT == ledger.DEFAULT_NOISE_PCT
    for name in cli._TABLES:
        assert callable(getattr(tables, name))


#: Run flags whose zero value is an error, and the verbs taking each.
_ZERO_FLAGS = [
    ("--capacity", ("trace", "metrics", "audit", "compact")),
    ("--interval", ("trace", "metrics", "audit", "profile", "compact")),
    ("--profile-interval", ("metrics", "profile")),
    ("--timer-period", ("trace", "metrics", "audit", "profile")),
]


def _assert_empty_instrument_rejected(verb, value, capsys):
    """An ``--instrument`` list that names no kind is an error."""
    argv = [verb, "--workload", "compress", "--instrument", value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: --instrument names no kind; use 'none' to run "
        "uninstrumented\n"
    )
    assert captured.out == ""


class TestBadRunFlags:
    @pytest.mark.parametrize("verb,flag", [
        (verb, flag) for flag, verbs in _ZERO_FLAGS for verb in verbs
    ])
    def test_zero_is_an_error_not_a_traceback(self, verb, flag, capsys):
        argv = [verb, "--workload", "osr", flag, "0"]
        if verb == "metrics" and flag == "--profile-interval":
            argv.append("--profile-vm")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be >= 1, got 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb,value", [
        ("profile", ","), ("trace", ""), ("metrics", ","), ("audit", ""),
    ])
    def test_empty_instrument_list(self, verb, value, capsys):
        _assert_empty_instrument_rejected(verb, value, capsys)

    @pytest.mark.parametrize("extra", [
        ["--trigger", "never"], ["--strategy", "exhaustive"],
    ])
    def test_unused_zero_interval_still_runs(self, extra, capsys):
        argv = ["metrics", "--workload", "osr", "--interval", "0", *extra]
        assert main(argv) == 0
        assert "reconcile:" in capsys.readouterr().out


class TestBadVerbFlags:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_adaptive_interval_below_one(self, demo_file, value, capsys):
        assert main(["adaptive", demo_file, "--interval", value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: sample interval must be >= 1, got {value}\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_ledger_window_below_one(self, value, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        argv = ["ledger", "check", "--ledger", str(ledger), "--window", value]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: ledger window must be >= 1, got {value}\n"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_plan_interval_below_one(self, value, capsys):
        argv = ["plan", "--workload", "compress", "--interval", value]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: sample interval must be >= 1, got {value}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("verb,value", [
        ("lint", ","), ("plan", ""), ("compact", ","),
    ])
    def test_empty_instrument_list(self, verb, value, capsys):
        _assert_empty_instrument_rejected(verb, value, capsys)

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("verb", ["profile", "watch"])
    def test_top_below_one(self, verb, value, tmp_path, capsys):
        target = ["--workload", "jess"] if verb == "profile" else [
            str(tmp_path)
        ]
        assert main([verb, *target, "--top", value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --top must be >= 1, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_watch_poll_not_positive(self, value, tmp_path, capsys):
        from repro.telemetry.streaming import SpoolWriter

        # A live spool: following it would poll until --timeout.
        writer = SpoolWriter(tmp_path / "live")
        argv = ["watch", str(tmp_path / "live"), "--follow", "--poll", value,
                "--timeout", "1"]
        try:
            assert main(argv) == 1
        finally:
            writer.close()
        captured = capsys.readouterr()
        assert captured.err == f"error: --poll must be > 0, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("content", [
        "not json",
        "[]",
        '{"functions": 3}',
        '{"reports": [{"plan": {}}]}',
        '{"x": 1}',
    ])
    def test_plan_diff_needs_a_plan_artifact(self, content, tmp_path,
                                             capsys):
        artifact = tmp_path / "previous.json"
        artifact.write_text(content)
        argv = ["plan", "--workload", "compress", "--diff", str(artifact)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {artifact} is not a plan artifact: "
        )
        assert captured.out == ""


class TestOutDirectories:
    @pytest.mark.parametrize("argv", [
        ["trace", "--workload", "osr", "--format", "jsonl"],
        ["trace", "--workload", "osr", "--stats"],
        ["audit", "--workload", "osr"],
        ["compact", "--workload", "osr", "--interval", "100"],
        ["plan", "--workload", "osr"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[3:4]))
    def test_out_creates_missing_parent(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "nested" / "out.txt"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").strip()
