"""Compare a parent commit and a change from alternating benchmark runs.

    python -m benchmarks.e2e.compare --parent P1.json P2.json ... \\
        --change C1.json C2.json ...

Each file is a results JSON of ``python -m benchmarks.e2e``. Pair *i* is
``(parent[i], change[i])``: run them alternately, with the parent first
in even pairs, at the same ``--seconds`` on both sides. For every
workload and end-to-end metric of ``BENCHMARK.json`` this prints both
sides' median and quartiles, the pairs the change won, the operations
each side failed, and a verdict:

* ``improved`` -- the change wins at least 9 of 10 pairs (ties count
  for neither side), the medians differ by more than the parent's
  interquartile range, and the change failed no more operations than
  the parent;
* ``unresolved`` -- fewer than ten pairs, or no parent run has the
  metric, or the parent's spread is wider than the metric's bound and
  not every change run beats every parent run;
* ``regressed`` -- no change run has the metric, or the change's median
  is worse than the parent's by more than the bound;
* ``no worse`` -- otherwise.

A run that lacks the metric (every operation of it failed) still counts
as a pair, one the change did not win. Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.driver import ROOT, WORKLOADS

#: Pairs a verdict needs (choosing-metrics, section 8).
MIN_PAIRS = 10


def _side(reports: List[dict], workload: str,
          metric: str) -> Tuple[List[Optional[float]], int]:
    """Each report's value of *metric*, None where it has none, and the
    operations the reports failed on *workload*."""
    values: List[Optional[float]] = []
    failed = 0
    for report in reports:
        entry = report["workloads"].get(workload, {}).get("timed") or {}
        value = entry.get("metrics", {}).get(metric)
        values.append(None if value is None else value["value"])
        failed += entry.get("failed", 0)
    return values, failed


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[Optional[float]], change: List[Optional[float]],
            better: str, bound: float, parent_failed: int = 0,
            change_failed: int = 0) -> Dict[str, object]:
    """One comparison row's numbers and verdict (see the module doc).
    ``parent[i]`` and ``change[i]`` are pair *i*; None is a run without
    the metric."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs, {len(change)} change runs")
    sign = 1.0 if better == "higher" else -1.0
    pairs = len(parent)
    wins = sum(
        1 for p, c in zip(parent, change)
        if p is not None and c is not None and sign * (c - p) > 0
    )
    row: Dict[str, object] = {
        "wins": wins, "pairs": pairs, "failed": (parent_failed, change_failed),
        "parent": None, "change": None, "delta_pct": None,
    }
    parent = [p for p in parent if p is not None]
    change = [c for c in change if c is not None]
    if pairs < MIN_PAIRS or not parent:
        row["verdict"] = "unresolved"
        return row
    if not change:
        row["verdict"] = "regressed"
        return row
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = _quartiles(parent)
    gain = sign * (c_med - p_med)
    if (wins >= 0.9 * pairs and gain > p_q3 - p_q1
            and change_failed <= parent_failed):
        result = "improved"
    elif (p_q3 - p_q1) / p_med > bound and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        result = "unresolved"
    elif -gain / p_med > bound:
        result = "regressed"
    else:
        result = "no worse"
    row.update(
        parent=p_med, parent_q=(p_q1, p_q3),
        change=c_med, change_q=_quartiles(change),
        delta_pct=100.0 * (c_med / p_med - 1.0), verdict=result,
    )
    return row


def compare(parent: Sequence[pathlib.Path],
            change: Sequence[pathlib.Path]) -> List[Dict[str, object]]:
    """Rows for every workload x end-to-end metric either side measured;
    ValueError when the sides have different numbers of files."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent_reports, change_reports = (
        [json.loads(pathlib.Path(path).read_text(encoding="utf-8")) for path in paths]
        for paths in (parent, change)
    )
    rows = []
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            p, p_failed = _side(parent_reports, workload, metric["name"])
            c, c_failed = _side(change_reports, workload, metric["name"])
            if all(v is None for v in p + c):
                continue
            row = verdict(p, c, metric["better"], metric["bound"],
                          p_failed, c_failed)
            row.update(workload=workload, metric=metric["name"],
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows


def _cell(row: dict, side: str) -> str:
    if row[side] is None:
        return "-"
    return "{:.4g} [{:.4g}, {:.4g}]".format(row[side], *row[f"{side}_q"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--parent", nargs="+", type=pathlib.Path, required=True)
    parser.add_argument("--change", nargs="+", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(args.parent, args.change)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{'workload':10s} {'metric':20s} {'parent [q1, q3]':>30s} "
          f"{'change [q1, q3]':>30s} {'delta':>8s} {'wins':>6s} "
          f"{'failed':>9s} {'bound':>6s}  verdict")
    for row in rows:
        delta = "-" if row["delta_pct"] is None else f"{row['delta_pct']:+7.2f}%"
        wins = f"{row['wins']}/{row['pairs']}"
        failed = "{}/{}".format(*row["failed"])
        print(
            f"{row['workload']:10s} {row['metric']:20s} "
            f"{_cell(row, 'parent'):>30s} {_cell(row, 'change'):>30s} "
            f"{delta:>8s} {wins:>6s} {failed:>9s} {row['bound']:6.0%}  "
            f"{row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
