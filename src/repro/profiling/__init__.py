"""Self-sampling VM overhead profiling (docs/PROFILING.md).

The paper's counter-based sampling machinery, pointed at the host
interpreters themselves:

* :mod:`repro.profiling.profiler` — :class:`OverheadProfiler`, sampling
  at the engines' observer boundaries and attributing wall time to cost
  components (dispatch / compiled / check / dup / trampoline / payload / poll /
  runtime), plus heat maps and calling-context stack samples, and the
  profile snapshot's merge and diff;
* :mod:`repro.profiling.decomposition` — per-cell overhead-decomposition
  reports whose component sum reconciles against measured wall time;
* :mod:`repro.profiling.flamegraph` — collapsed-stack, speedscope, and
  Chrome trace_event flame-graph exporters;
* :mod:`repro.profiling.ledger` — the continuous perf-regression
  ledger (``BENCH_history.jsonl``) and its rolling-baseline comparator;
* :mod:`repro.profiling.cct` — the first-class calling-context tree:
  dense context interning and per-context cost attribution.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "cct": (
        "PATH_SEPARATOR", "CallingContextTree", "ContextTracker",
        "cct_from_events", "join_path", "split_path", "top_contexts",
    ),
    "decomposition": ("DEFAULT_TOLERANCE", "DecompositionReport", "decompose"),
    "flamegraph": (
        "stacks_to_chrome_flame", "stacks_to_collapsed", "stacks_to_speedscope",
        "write_chrome_flame", "write_collapsed", "write_speedscope",
    ),
    "ledger": (
        "DEFAULT_NOISE_PCT", "DEFAULT_WINDOW", "LEDGER_ENV", "LEDGER_FILENAME",
        "LedgerReport", "PerfLedger", "TrendVerdict", "calibration_score",
        "host_fingerprint", "make_record",
    ),
    # The runner's reading of its ``ledger=`` argument.
    ".harness.experiment": ("resolve_ledger",),
    "profiler": (
        "COMPONENTS", "DEFAULT_INTERVAL", "OverheadProfiler", "diff_snapshot",
        "merge_snapshots",
    ),
})
