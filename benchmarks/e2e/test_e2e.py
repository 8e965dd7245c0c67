"""Smoke test of the end-to-end benchmark at minimal size: one set-up
probe, one process and one operation per workload, ``tables`` limited to
``table3``. Not part of tier-1; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil

import pytest

from benchmarks.e2e import compare, driver
from benchmarks.e2e.golden import GOLDEN_DIR, Golden, mask_tables

SPEC = json.loads((driver.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(tmp_path):
    return driver.Bench(
        seed=0, seconds=0, golden=Golden(), tmp=tmp_path,
        minimal=True, which="table3",
    )


def _line(bench, workload: str, trace: bool) -> dict:
    entry = driver.workload_entry(driver.RUNNERS[workload](bench, trace), trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    # Exactly the metrics BENCHMARK.json lists, no more and no fewer.
    assert set(entry["metrics"]) == {m["name"] for m in spec}
    # Every traced entry point still exists in the program.
    assert entry.get("untraced_entry_points", []) == []
    line = driver.contract_line(entry, spec)
    assert line["correct"] and line["failed"] == 0, entry["failures"]
    assert line["attempted"] >= 1
    return line


@pytest.mark.parametrize("workload", driver.WORKLOADS)
def test_every_metric_emitted_and_layers_reconcile(bench, workload):
    line = _line(bench, workload, trace=False)
    for metric in SPEC["end_to_end"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert line["metrics"][metric["name"]]["value"] > 0

    layers = _line(bench, workload, trace=True)["metrics"]
    wall = layers["trace.wall_ms"]["value"]
    self_times = [
        layers[m["name"]]["value"] for m in SPEC["per_layer"]
        if m["unit"] == "ms" and m["name"] != "trace.wall_ms"
    ]
    # Self times plus unattributed time partition the traced wall time.
    assert sum(self_times) == pytest.approx(wall, rel=1e-9)
    assert 0 <= layers["unattributed.ms"]["value"] <= 0.05 * wall
    assert layers["vm.execute.instructions"]["value"] > 0


def test_corrupted_golden_line_fails_the_run(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, golden)
    tables = golden / "tables.txt"
    lines = tables.read_text(encoding="utf-8").splitlines(keepends=True)
    row = lines.index(next(l for l in lines if l.startswith("Table 3:"))) + 3
    lines[row] = lines[row].replace("1", "7", 1)
    tables.write_text("".join(lines), encoding="utf-8")

    code = driver.main(
        ["--workload", "tables", "--out", str(tmp_path / "result.json")],
        golden=golden, minimal=True, which="table3",
    )
    assert code != 0
    report = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    assert report["workloads"]["tables"]["timed"]["failed_frac"] > 0


def test_mask_hides_only_the_wall_time_column():
    text = (
        "Table 2: Full-Duplication framework overhead (no samples)\n"
        "benchmark    total%  xform ms\n"
        "-----------  ------  --------\n"
        "compress       10.7       3.8\n"
        "AVERAGE         9.0      12.0\n"
        "\n"
        "Table 3: x\n"
        "compress        1.8       0.9\n"
    )
    masked = mask_tables(text).splitlines()
    assert masked[3] == "compress       10.7  <ms>"
    assert masked[4] == "AVERAGE         9.0  <ms>"
    assert masked[7] == "compress        1.8       0.9"


PARENT = [10.0] * 5 + [10.2] * 5


@pytest.mark.parametrize(
    "parent, change, better, failed, expected",
    [
        (PARENT, [9.0] * 10, "lower", (0, 0), "improved"),
        (PARENT, [10.1] * 10, "lower", (0, 0), "no worse"),
        (PARENT, [12.0] * 10, "lower", (0, 0), "regressed"),
        (PARENT, [12.0] * 10, "higher", (0, 0), "improved"),
        ([5.0] * 5 + [15.0] * 5, [11.0] * 10, "lower", (0, 0), "unresolved"),
        # one win out of one pair is not enough
        ([10.0], [9.0], "lower", (0, 0), "unresolved"),
        (PARENT[:9], [9.0] * 9, "lower", (0, 0), "unresolved"),
        # a gain does not count when the change fails more operations
        (PARENT, [9.0] * 10, "lower", (0, 1), "no worse"),
        # a change run without the metric is a pair the change lost
        (PARENT, [9.0] * 9 + [None], "lower", (0, 1), "no worse"),
        (PARENT, [9.0] * 8 + [None] * 2, "lower", (0, 0), "no worse"),
        (PARENT, [None] * 10, "lower", (0, 10), "regressed"),
    ],
)
def test_compare_verdicts(parent, change, better, failed, expected):
    row = compare.verdict(parent, change, better, 0.1, *failed)
    assert row["verdict"] == expected


def test_compare_pairs_runs_by_index():
    # A parent run without the metric must not shift the later pairs:
    # pair 0 is lost, the other nine are won.
    row = compare.verdict([None] + [10.0] * 9, [9.0] * 10, "lower", 0.1)
    assert (row["wins"], row["pairs"]) == (9, 10)
    with pytest.raises(ValueError):
        compare.verdict([10.0] * 10, [9.0] * 9, "lower", 0.1)
