"""Continuous perf-regression ledger: append-only JSONL history plus a
rolling-baseline comparator.

The ROADMAP north star ("as fast as the hardware allows") needs a
persisted trajectory to be enforceable. Every benchmark run appends
machine-normalized records to ``BENCH_history.jsonl`` at the repo root;
the comparator then flags any series whose newest record falls outside
a noise band around a rolling baseline (the median of the preceding
``window`` records).

Machine normalization: raw wall-clock scores are divided by a host
*calibration score* — the throughput of a fixed pure-Python spin loop
measured on the spot — so records appended from a laptop and from a CI
runner land on a comparable scale. Normalization cannot erase
micro-architectural differences; the noise band (default 10%) is the
honest acknowledgment of that, and CI runs the comparator warn-only
(docs/PROFILING.md covers the methodology).

Record schema (one JSON object per line)::

    {"ts": "2026-08-06T12:00:00Z", "bench": "vm_throughput",
     "key": "compress/fast", "metric": "instr_per_sec",
     "value": 1.23e7, "normalized": 0.81, "higher_is_better": true,
     "host": {...}, "meta": {...}}
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Environment variable naming the default ledger path for harness runs
#: (read by :func:`repro.harness.experiment.resolve_ledger`).
LEDGER_ENV = "REPRO_LEDGER"

#: Default ledger filename (resolved against the cwd by the CLI, and
#: against the repo root by benchmarks/).
LEDGER_FILENAME = "BENCH_history.jsonl"

#: Rolling-baseline depth: the comparator baselines against the median
#: of up to this many records preceding the newest one.
DEFAULT_WINDOW = 5

#: Noise band, percent: deviations inside it are never flagged.
DEFAULT_NOISE_PCT = 10.0

_calibration_cache: Optional[float] = None


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i ^ (total >> 3)
    return total


def calibration_score(loops: int = 300_000, repeats: int = 3) -> float:
    """Host speed in spin-loop iterations per second (best of N).

    Cached per process: every record appended by one run shares one
    calibration, so intra-run ratios stay exact.
    """
    global _calibration_cache
    if _calibration_cache is None:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            _spin(loops)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
        _calibration_cache = loops / best if best and best > 0 else 1.0
    return _calibration_cache


def host_fingerprint() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def make_record(
    bench: str,
    key: str,
    metric: str,
    value: float,
    higher_is_better: bool = True,
    meta: Optional[Dict[str, Any]] = None,
    ts: Optional[str] = None,
) -> Dict[str, Any]:
    """A ledger record with machine normalization applied.

    ``normalized`` is ``value / calibration_score()`` — dimensionless,
    comparable across hosts of different raw speed. The comparator
    prefers it whenever every record in a series carries one.
    """
    if ts is None:
        ts = (
            datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ")
        )
    return {
        "ts": ts,
        "bench": bench,
        "key": key,
        "metric": metric,
        "value": value,
        "normalized": value / calibration_score(),
        "higher_is_better": bool(higher_is_better),
        "host": host_fingerprint(),
        "meta": dict(meta or {}),
    }


@dataclass
class TrendVerdict:
    """Comparator outcome for one (bench, key, metric) series."""

    bench: str
    key: str
    metric: str
    records: int
    baseline: Optional[float]
    latest: Optional[float]
    delta_pct: float  # positive = regression (worse than baseline)
    noise_pct: float
    regressed: bool
    note: str = ""

    @property
    def label(self) -> str:
        return f"{self.bench}/{self.key}/{self.metric}"

    def summary(self) -> str:
        if self.baseline is None:
            return f"{self.label}: {self.note or 'insufficient history'}"
        status = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.label}: latest {self.latest:.4g} vs rolling baseline "
            f"{self.baseline:.4g} ({self.delta_pct:+.1f}% worse; band "
            f"{self.noise_pct:.0f}%): {status}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "key": self.key,
            "metric": self.metric,
            "records": self.records,
            "baseline": self.baseline,
            "latest": self.latest,
            "delta_pct": self.delta_pct,
            "noise_pct": self.noise_pct,
            "regressed": self.regressed,
            "note": self.note,
        }


@dataclass
class LedgerReport:
    """All series verdicts from one comparator pass."""

    verdicts: List[TrendVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> List[TrendVerdict]:
        return [v for v in self.verdicts if v.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        if not self.verdicts:
            return "perf ledger: no series to compare"
        lines = [v.summary() for v in self.verdicts]
        lines.append(
            f"perf ledger: {len(self.verdicts)} series, "
            f"{len(self.regressions)} regression(s)"
        )
        return "\n".join(lines)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _score(record: Dict[str, Any], normalized: bool) -> Optional[float]:
    value = record.get("normalized") if normalized else record.get("value")
    return float(value) if value is not None else None


class PerfLedger:
    """Append-only JSONL perf history with a trend comparator."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)

    def append(self, record: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def append_many(self, records: Sequence[Dict[str, Any]]) -> int:
        for record in records:
            self.append(record)
        return len(records)

    def records(
        self,
        bench: Optional[str] = None,
        key: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Records in file order, optionally filtered. Unparseable lines
        are skipped (an append-only log survives partial writes)."""
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if bench is not None and record.get("bench") != bench:
                continue
            if key is not None and record.get("key") != key:
                continue
            if metric is not None and record.get("metric") != metric:
                continue
            out.append(record)
        return out

    def series(self) -> Dict[Tuple[str, str, str], List[Dict[str, Any]]]:
        """Records grouped by (bench, key, metric), file order kept."""
        grouped: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
        for record in self.records():
            ident = (
                str(record.get("bench", "?")),
                str(record.get("key", "?")),
                str(record.get("metric", "?")),
            )
            grouped.setdefault(ident, []).append(record)
        return grouped

    def check(
        self,
        window: int = DEFAULT_WINDOW,
        noise_pct: float = DEFAULT_NOISE_PCT,
    ) -> LedgerReport:
        """Compare each series' newest record against its rolling
        baseline (median of up to *window* preceding records)."""
        report = LedgerReport()
        for (bench, key, metric), records in sorted(self.series().items()):
            report.verdicts.append(
                _check_series(bench, key, metric, records, window, noise_pct)
            )
        return report


def _check_series(
    bench: str,
    key: str,
    metric: str,
    records: List[Dict[str, Any]],
    window: int,
    noise_pct: float,
) -> TrendVerdict:
    if len(records) < 2:
        return TrendVerdict(
            bench=bench, key=key, metric=metric, records=len(records),
            baseline=None, latest=None, delta_pct=0.0,
            noise_pct=noise_pct, regressed=False,
            note=f"insufficient history ({len(records)} record(s))",
        )
    # Normalized scores only when the whole series has them — mixing
    # normalized and raw values would compare incomparable units.
    normalized = all(r.get("normalized") is not None for r in records)
    history = records[-(window + 1):-1]
    scores = [_score(r, normalized) for r in history]
    scores = [s for s in scores if s is not None]
    latest = _score(records[-1], normalized)
    if not scores or latest is None:
        return TrendVerdict(
            bench=bench, key=key, metric=metric, records=len(records),
            baseline=None, latest=None, delta_pct=0.0,
            noise_pct=noise_pct, regressed=False,
            note="records carry no comparable score",
        )
    baseline = _median(scores)
    higher_is_better = bool(records[-1].get("higher_is_better", True))
    if baseline <= 0:
        delta_pct = 0.0
    elif higher_is_better:
        delta_pct = 100.0 * (baseline - latest) / baseline
    else:
        delta_pct = 100.0 * (latest - baseline) / baseline
    return TrendVerdict(
        bench=bench, key=key, metric=metric, records=len(records),
        baseline=baseline, latest=latest, delta_pct=delta_pct,
        noise_pct=noise_pct, regressed=delta_pct > noise_pct,
    )
