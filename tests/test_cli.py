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

    def test_bad_jobs_env_is_an_error_not_a_traceback(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert main(["tables", "table3", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_JOBS must be an integer")
        assert "Traceback" not in err
