"""End-to-end benchmark driver: ``python -m benchmarks.e2e``.

One closed-loop client: this process runs one child process at a time
and waits for it. Every measured operation is a child, so the program is
measured cold where users run it cold, and this process never imports
``repro``. Each child's environment drops every ``REPRO_*`` variable
(a stray ``REPRO_LEDGER`` would append to ``BENCH_history.jsonl``) and
sets only ``REPRO_ENGINE``, when ``--engine`` is given. Temporary files
and spools live under a temporary root inside ``results/``, removed at
exit.

With ``--workload`` it runs that workload and prints, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
-- the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. Without ``--workload`` it runs all
four workloads, then the traced pass. Either way it writes a results
JSON under ``results/`` and exits 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from benchmarks.e2e.cells import COLD_CELLS
from benchmarks.e2e.golden import GOLDEN_DIR, Golden
from benchmarks.e2e.tracer import LAYERS, chrome_trace, layer_totals

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
WORKLOADS = ("tables", "cold_cell", "long_run", "observed")

#: A child still running after this long is killed and counted failed.
CHILD_TIMEOUT_S = 170.0
#: Fresh-interpreter set-up probes per ``tables``/``cold_cell`` run, and
#: warm processes per ``long_run``/``observed`` run: ``setup_s`` is the
#: median of these.
SETUP_PROBES = 7
ROUND_CHILDREN = 3
#: Cells of the traced ``cold_cell`` pass, each also run untraced.
TRACED_CELLS = 6


@dataclass
class Child:
    """One finished child process."""

    code: int
    stdout: str
    stderr: str
    spawned: float
    reaped: float
    maxrss_kb: int

    @property
    def wall(self) -> float:
        return self.reaped - self.spawned

    def failure(self, label: str) -> Optional[str]:
        if self.code == 0:
            return None
        tail = self.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return f"{label}: exit {self.code}: {tail[0]}"


@dataclass
class Outcome:
    """Everything one workload measured."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: guest instructions of the operations in ``samples["op_s"]``
    instructions: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: spool bytes of the last observed round
    spool_bytes: int = 0
    #: spans and counts of each traced process
    processes: List[dict] = field(default_factory=list)
    #: per-layer metrics of the traced pass
    layers: Optional[Dict[str, float]] = None

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, wall: float, instructions: int) -> None:
        """One timed operation that passed its check."""
        self.add("op_s", wall)
        self.instructions += instructions

    def check(self, error: Optional[str]) -> None:
        """Count one checked operation; *error* None means it passed."""
        self.attempted += 1
        if error is not None:
            self.failures.append(error)


@dataclass
class Bench:
    """Settings shared by every workload of one invocation."""

    seed: int
    seconds: float
    golden: Golden
    tmp: pathlib.Path
    engine: Optional[str] = None
    #: smallest run of each kind (one probe, one child, one operation);
    #: the smoke test uses it
    minimal: bool = False
    #: ``repro tables`` selection of the ``tables`` workload
    which: str = "all"
    _spawned: int = 0

    def env(self) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.tmp)
        if self.engine is not None:
            env["REPRO_ENGINE"] = self.engine
        return env

    def run(self, argv: List[str]) -> Child:
        """Run one child to completion; stdout and stderr go to files so
        neither pipe can stall it."""
        self._spawned += 1
        out_path = self.tmp / f"child-{self._spawned}.out"
        err_path = self.tmp / f"child-{self._spawned}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env(), stdout=out, stderr=err
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted: leave no child behind.
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            reaped = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            spawned=spawned,
            reaped=reaped,
            maxrss_kb=usage.ru_maxrss,
        )

    def child(self, job: dict) -> Child:
        """Run ``benchmarks.e2e.child`` with *job*; ``spawned`` is stamped
        here on the shared monotonic clock (``perf_counter`` is
        ``CLOCK_MONOTONIC`` on Linux, the same in every process)."""
        job = dict(job, spawned=time.perf_counter())
        return self.run(
            [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(job)]
        )

    def traced(self, job: dict, label: str, out: Outcome) -> Child:
        """Run *job* with layer tracing; its spans join ``out.processes``."""
        path = self.tmp / f"trace-{self._spawned + 1}.json"
        result = self.child(dict(job, trace=str(path)))
        if result.code == 0:
            data = json.loads(path.read_text(encoding="utf-8"))
            spans = data["spans"] + [
                ["process", "start", result.spawned, data["started"], -1],
                ["process", "exit", data["finished"], result.reaped, -1],
            ]
            out.processes.append({
                "label": label, "spawned": result.spawned,
                "reaped": result.reaped, "spans": spans,
                "counts": data["counts"], "missing": data["missing"],
            })
        return result

    def keep_going(self, started: float, done: int, last: float) -> bool:
        """Closed-loop budget: start another operation only while it is
        expected to end within ``seconds``; always run one."""
        if done == 0:
            return True
        if self.minimal:
            return False
        return time.perf_counter() - started + last <= self.seconds


# -- workloads ---------------------------------------------------------------


def _setup_probes(bench: Bench, out: Outcome) -> None:
    """``setup_s``: fresh interpreters importing the CLI and loading the
    workload registry. The first probe, which may compile bytecode
    caches, is not timed."""
    for probe in range(1 + (1 if bench.minimal else SETUP_PROBES)):
        result = bench.child({"mode": "setup"})
        out.check(result.failure("setup"))
        if probe and result.code == 0:
            out.add("setup_s", result.wall)


def _tables_op(bench: Bench, out: Outcome) -> Child:
    result = bench.run([
        sys.executable, "-m", "repro", "tables", bench.which,
        "--jobs", "1", "--no-cache",
    ])
    error = result.failure(f"tables {bench.which}") or (
        bench.golden.check_tables(result.stdout, bench.which)
    )
    out.check(error)
    if error is None:
        # Guest instructions are deterministic, so the golden count
        # stands in for the child's, which only a traced run can see.
        out.op(result.wall, bench.golden.tables_instructions[bench.which])
        out.add("peak_rss_mb", result.maxrss_kb / 1024)
    return result


def run_tables(bench: Bench, trace: bool) -> Outcome:
    out = Outcome()
    if trace:
        untraced = _tables_op(bench, out)
        result = bench.traced(
            {"mode": "tables", "which": bench.which}, "tables", out
        )
        out.check(result.failure("traced tables") or (
            bench.golden.check_tables(result.stdout, bench.which)
        ))
        _layers("tables", out, untraced.wall)
        return out
    _setup_probes(bench, out)
    started = time.perf_counter()
    done, last = 0, 0.0
    while bench.keep_going(started, done, last):
        last = _tables_op(bench, out).wall
        done += 1
    return out


def _cell_order(seed: int):
    """Endless seed-shuffled passes over every cold-cell candidate."""
    rng = random.Random(seed)
    while True:
        order = list(range(len(COLD_CELLS)))
        rng.shuffle(order)
        yield from order


def _cell_op(bench: Bench, out: Outcome, index: int, traced: bool = False) -> Child:
    cell = COLD_CELLS[index]
    job = {"mode": "cell", "cell": index}
    result = bench.traced(job, cell.key, out) if traced else bench.child(job)
    error = result.failure(cell.key)
    if error is None:
        data = json.loads(result.stdout.strip().splitlines()[-1])
        error = bench.golden.check_cell(cell.key, data["value"], data["cycles"])
    out.check(error)
    if error is None and not traced:
        out.op(result.wall, data["instructions"])
        out.add("peak_rss_mb", result.maxrss_kb / 1024)
    return result


def run_cold_cell(bench: Bench, trace: bool) -> Outcome:
    out = Outcome()
    order = _cell_order(bench.seed)
    if trace:
        untraced = 0.0
        for i in range(1 if bench.minimal else TRACED_CELLS):
            index = next(order)
            # Alternate which side runs first.
            if i % 2:
                _cell_op(bench, out, index, traced=True)
            untraced += _cell_op(bench, out, index).wall
            if not i % 2:
                _cell_op(bench, out, index, traced=True)
        _layers("cold_cell", out, untraced)
        return out
    _setup_probes(bench, out)
    started = time.perf_counter()
    done, pass_s = 0, 0.0
    # Whole passes over all candidates, so every seed measures the same
    # set of cells and only their order differs.
    while done % len(COLD_CELLS) or bench.keep_going(started, done, pass_s):
        _cell_op(bench, out, next(order))
        done += 1
        if bench.minimal:
            break
        if done % len(COLD_CELLS) == 0:
            pass_s = (time.perf_counter() - started) / (done // len(COLD_CELLS))
    return out


def _rounds_child(bench: Bench, out: Outcome, kind: str, job: dict,
                  traced: bool = False) -> Child:
    """One warm process: parse and check its round lines."""
    job = dict(job, mode="rounds", kind=kind, tmp=str(bench.tmp))
    result = bench.traced(job, kind, out) if traced else bench.child(job)
    for raw in result.stdout.splitlines():
        line = json.loads(raw)
        error = line.get("error")
        for key, (value, cycles) in line["cells"].items():
            error = error or bench.golden.check_cell(key, value, cycles)
        if error is None and kind == "observed" and not line["spool_ok"]:
            error = f"{kind}: spool final metrics differ from the manifest"
        out.check(error)
        out.spool_bytes = line.get("spool_bytes", 0)
        if error is not None or traced:
            continue
        if line["warmup"]:
            out.add("setup_s", line["setup"])
        else:
            out.op(line["wall"], line["instructions"])
    crashed = result.failure(kind)
    if crashed is not None:
        out.check(crashed)
    elif not traced:
        out.add("peak_rss_mb", result.maxrss_kb / 1024)
    return result


def run_rounds(bench: Bench, kind: str, trace: bool) -> Outcome:
    out = Outcome()
    if trace:
        # Warm-up plus one round, untraced then traced.
        job = {"seed": f"{bench.seed}/trace", "seconds": 0}
        untraced = _rounds_child(bench, out, kind, job)
        _rounds_child(bench, out, kind, job, traced=True)
        _layers(kind, out, untraced.wall)
        return out
    # Each process gets an equal share of the timed seconds, after its
    # own warm-up, and runs at least one timed round.
    children = 1 if bench.minimal else ROUND_CHILDREN
    for index in range(children):
        _rounds_child(bench, out, kind, {
            "seed": f"{bench.seed}/{index}",
            "seconds": 0 if bench.minimal else bench.seconds / children,
        })
    return out


RUNNERS: Dict[str, Callable[[Bench, bool], Outcome]] = {
    "tables": run_tables,
    "cold_cell": run_cold_cell,
    "long_run": lambda bench, trace: run_rounds(bench, "long_run", trace),
    "observed": lambda bench, trace: run_rounds(bench, "observed", trace),
}


# -- metrics -------------------------------------------------------------------


def _layers(workload: str, out: Outcome, untraced_wall: float) -> None:
    """Set ``out.layers`` from the traced processes, whose untraced
    twins took *untraced_wall*; also write their Chrome trace to
    ``results/trace-<workload>.json``."""
    processes = out.processes
    if not processes:
        return
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    counts: Dict[str, int] = {}
    wall = 0.0
    for proc in processes:
        proc_self, proc_calls = layer_totals(proc["spans"])
        for layer in LAYERS:
            self_s[layer] += proc_self[layer]
            calls[layer] += proc_calls[layer]
        for name, value in proc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        wall += proc["reaped"] - proc["spawned"]
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{workload}.json").write_text(
        json.dumps(chrome_trace(processes)), encoding="utf-8"
    )
    execute_s = self_s["vm.execute"]
    instructions = counts.get("vm.execute.instructions", 0)
    out.layers = {
        "process.ms": self_s["process"] * 1e3,
        "import.ms": self_s["import"] * 1e3,
        "harness.self_ms": self_s["harness"] * 1e3,
        "frontend.ms": self_s["frontend"] * 1e3,
        "frontend.calls": calls["frontend"],
        "sampling.transform.ms": self_s["sampling.transform"] * 1e3,
        "sampling.transform.calls": calls["sampling.transform"],
        "analysis.audit.ms": self_s["analysis.audit"] * 1e3,
        "analysis.audit.calls": calls["analysis.audit"],
        "analysis.reconcile.ms": self_s["analysis.reconcile"] * 1e3,
        "vm.lower.ms": self_s["vm.lower"] * 1e3,
        "vm.lower.calls": calls["vm.lower"],
        "vm.lower.regions": counts.get("vm.lower.regions", 0),
        "vm.lower.cache_hits": counts.get("vm.lower.cache_hits", 0),
        "vm.lower.fallbacks": counts.get("vm.lower.fallbacks", 0),
        "vm.execute.ms": execute_s * 1e3,
        "vm.execute.instructions": instructions,
        "vm.execute.minstr_per_s": instructions / execute_s / 1e6 if execute_s else 0.0,
        "telemetry.ms": self_s["telemetry"] * 1e3,
        "telemetry.spool_bytes": out.spool_bytes,
        "profiling.ms": self_s["profiling"] * 1e3,
        "unattributed.ms": (wall - sum(self_s.values())) * 1e3,
        "trace.wall_ms": wall * 1e3,
        "trace.overhead_pct": 100.0 * (wall / untraced_wall - 1.0),
    }


def _summary(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(out: Outcome) -> Dict[str, Dict[str, float]]:
    """``setup_s`` and ``op_s`` as median, quartiles and count;
    ``guest_minstr_per_s`` as mean guest instructions per operation over
    the median ``op_s``; ``peak_rss_mb`` as the peak over the workload's
    processes."""
    metrics = {
        name: _summary(out.samples[name])
        for name in ("setup_s", "op_s") if out.samples.get(name)
    }
    if out.samples.get("op_s"):
        # Guest work per operation is deterministic, so this is the
        # median operation's throughput.
        ops = len(out.samples["op_s"])
        metrics["guest_minstr_per_s"] = {
            "value": out.instructions / ops / metrics["op_s"]["value"] / 1e6,
            "n": ops,
        }
    if out.samples.get("peak_rss_mb"):
        metrics["peak_rss_mb"] = {
            "value": max(out.samples["peak_rss_mb"]),
            "n": len(out.samples["peak_rss_mb"]),
        }
    return metrics


# -- entry point ---------------------------------------------------------------


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all, then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: traced per-layer pass")
    parser.add_argument("--engine", default=None,
                        help="REPRO_ENGINE for the children (default: unset)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="results JSON (default: a new file in results/)")
    return parser.parse_args(argv)


def _render(workload: str, metrics: Dict[str, dict], spec: List[dict]) -> List[str]:
    lines = []
    for entry in spec:
        m = metrics.get(entry["name"])
        if m is None:
            continue
        line = f"{workload:10s} {entry['name']:26s} {m['value']:14.6g} {entry['unit']:9s}"
        if "q1" in m:
            line += f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
        if "n" in m:
            line += f"  n={m['n']}"
        lines.append(line.rstrip())
    return lines


def main(argv: Optional[List[str]] = None, *, golden: pathlib.Path = GOLDEN_DIR,
         minimal: bool = False, which: str = "all") -> int:
    """Command-line entry point; the keyword arguments are for tests
    (see :class:`Bench`)."""
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        passes = [bool(args.trace)]
    else:
        passes = [False] if args.workload else [False, True]
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        bench = Bench(
            seed=args.seed, seconds=seconds, golden=Golden(golden), tmp=tmp,
            engine=args.engine, minimal=minimal, which=which,
        )
        report = run(bench, workloads, passes, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out_path = args.out or RESULTS / (
        f"e2e-{args.workload or 'all'}-seed{args.seed}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"results -> {out_path}")
    if args.workload is not None:
        trace = passes[0]
        entry = report["workloads"][args.workload]["traced" if trace else "timed"]
        line = contract_line(entry, spec["per_layer" if trace else "end_to_end"])
        if line is None:
            print("error: a metric has no successful sample", file=sys.stderr)
            return 1
        print(json.dumps(line))
    return 1 if report["failed"] else 0


def workload_entry(out: Outcome, trace: bool) -> dict:
    """The results-file entry of one workload pass."""
    if trace:
        metrics = {name: {"value": v} for name, v in (out.layers or {}).items()}
    else:
        metrics = end_to_end(out)
    failed = len(out.failures)
    entry = {
        "metrics": metrics, "samples": out.samples,
        "attempted": out.attempted, "failed": failed,
        "failed_frac": failed / out.attempted if out.attempted else 1.0,
        "failures": out.failures,
    }
    if trace:
        entry["untraced_entry_points"] = sorted(
            {name for proc in out.processes for name in proc["missing"]}
        )
    return entry


def contract_line(entry: dict, spec: List[dict]) -> Optional[dict]:
    """The last output line: every listed metric, by name, with its unit;
    None when some metric has no sample."""
    if any(m["name"] not in entry["metrics"] for m in spec):
        return None
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            m["name"]: {"value": entry["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in spec
        },
    }


def run(bench: Bench, workloads: List[str], passes: List[bool],
        spec: dict) -> dict:
    """Run *workloads* for each pass; print the human report as it goes."""
    report: dict = {
        "seed": bench.seed, "seconds": bench.seconds, "engine": bench.engine,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "workloads": {}, "attempted": 0, "failed": 0,
    }
    for trace in passes:
        for workload in workloads:
            entry = workload_entry(RUNNERS[workload](bench, trace), trace)
            report["workloads"].setdefault(workload, {})[
                "traced" if trace else "timed"] = entry
            report["attempted"] += entry["attempted"]
            report["failed"] += entry["failed"]
            for line in _render(workload, entry["metrics"],
                                spec["per_layer" if trace else "end_to_end"]):
                print(line)
            print(f"{workload:10s} {'failed_frac':26s} "
                  f"{entry['failed_frac']:14.6g} ratio      "
                  f"({entry['failed']} of {entry['attempted']})")
            for failure in entry["failures"]:
                print(f"{workload:10s} FAILED: {failure}")
            sys.stdout.flush()
    return report
