"""Every bad input the CLI reads, in one table.

Each row builds one bad input under a scratch directory, runs it through
:func:`repro.cli.main`, and states the exact stderr it prints and the
exit code it returns. None may end in a traceback or a silently wrong
number: a corrupt baseline-cache entry reads as a miss (the run
recomputes the baseline and stores it again), a torn spool tail reads as
a truncated spool and says so, and every other row is one ``error: …``
line and exit 1. Tests of the modules behind these inputs stay with
their modules (``tests/test_baseline_cache.py``,
``tests/test_streaming.py``, ``tests/test_parallel_harness.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

import pytest

from repro.cli import main
from repro.harness import ExperimentRunner, parallel
from repro.harness.experiment import make_instrumentations
from repro.sampling import CounterTrigger, SamplingFramework, Strategy
from repro.telemetry import SpoolReader, StreamingRecorder
from repro.telemetry.streaming import MANIFEST_NAME
from repro.vm import run_program
from repro.workloads import get_workload, workload_names

EXAMPLE = str(
    pathlib.Path(__file__).resolve().parent.parent / "examples"
    / "counter.minij"
)

#: What ``repro profile --workload compress`` prints first; a baseline
#: read from a corrupt cache entry would change its numbers.
COMPRESS_PROFILE = (
    "baseline 622046 cycles; instrumented 689343 cycles (+10.82%); "
    "12 samples"
)


@dataclass
class Case:
    """One bad input: the command line, and what it must print."""

    argv: List[str]
    err: str
    code: int = 1
    #: a further check of the run's stdout, or of what it left behind
    check: Optional[Callable[[str], None]] = None


def _not_a_cache_directory(argv, env=False):
    def build(tmp_path, monkeypatch):
        path = tmp_path / "not-a-directory"
        path.write_text("")
        if env:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        flag = [] if env else ["--cache-dir", str(path)]

        def untouched(_out):
            assert path.read_text() == ""

        return Case(
            [*argv, *flag],
            f"error: cache directory {path} is not a directory\n",
            check=untouched,
        )
    return build


def _corrupt_cache_entry(tmp_path, payload):
    """A cache directory whose one entry, compress's baseline, is
    overwritten with *payload*; returns the directory, the entry and
    the entry's stored text."""
    directory = tmp_path / "cache"
    ExperimentRunner(cache=str(directory)).baseline("compress")
    (entry,) = directory.glob("*.json")
    stored = entry.read_text()
    entry.write_text(payload)
    return directory, entry, stored


def _corrupt_entry_listed(payload):
    def build(tmp_path, monkeypatch):
        directory, _entry, _stored = _corrupt_cache_entry(tmp_path, payload)

        def unreadable(out):
            lines = out.splitlines()
            assert lines[2].endswith("  (unreadable)")
            assert len(lines) == 3

        return Case(["cache", "info", "--cache-dir", str(directory)], "", 0,
                    unreadable)
    return build


def _corrupt_entry_missed(payload):
    def build(tmp_path, monkeypatch):
        directory, entry, stored = _corrupt_cache_entry(tmp_path, payload)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))

        def recomputed(out):
            assert out.splitlines()[0] == COMPRESS_PROFILE
            assert json.loads(entry.read_text()) == json.loads(stored)

        return Case(["profile", "--workload", "compress"], "", 0, recomputed)
    return build


def _recorded_spool(tmp_path, close=True):
    """osr under Full-Duplication at interval 20, in epochs of 32
    events: one segment of 17 epochs, 18 once closed. Unclosed, it
    reads as live."""
    path = tmp_path / "spool"
    recorder = StreamingRecorder(path, epoch_events=32)
    program = SamplingFramework(Strategy.FULL_DUPLICATION).transform(
        get_workload("osr").compile(None), make_instrumentations(("call-edge",))
    )
    run_program(program, trigger=CounterTrigger(20), recorder=recorder)
    recorder.sync_metrics()
    if close:
        recorder.close()
    return path


_FOLLOW = ["--follow", "--poll", "0.01", "--timeout", "5"]


def _torn_tail(follow):
    def build(tmp_path, monkeypatch):
        spool = _recorded_spool(tmp_path, close=False)
        (segment,) = spool.glob("segment-*.jsonl")
        segment.write_bytes(segment.read_bytes()[:-20])

        def flagged(out):
            assert out.splitlines()[0] == f"{spool}: live (truncated tail)"

        return Case(["watch", str(spool), *follow], "", 0, flagged)
    return build


def _corrupt_mid_stream(line, follow):
    def build(tmp_path, monkeypatch):
        spool = _recorded_spool(tmp_path)
        (segment,) = spool.glob("segment-*.jsonl")
        lines = segment.read_text().splitlines(keepends=True)
        lines[1] = line
        segment.write_text("".join(lines))
        return Case(
            ["watch", str(spool), *follow],
            "error: spool segment-000000.jsonl: corrupt epoch line 1\n",
        )
    return build


def _torn_manifest(cut, follow):
    """A MANIFEST.json cut at one of four seeded offsets (the first is
    0 bytes), or (*cut* 4) holding a JSON list."""
    def build(tmp_path, monkeypatch):
        spool = _recorded_spool(tmp_path)
        manifest = (spool / MANIFEST_NAME).read_bytes().rstrip()
        rng = random.Random(len(SpoolReader(spool).epochs))
        offsets = [0] + sorted(rng.sample(range(1, len(manifest)), 3))
        payloads = [manifest[:offset] for offset in offsets] + [b"[1,2]"]
        (spool / MANIFEST_NAME).write_bytes(payloads[cut])
        return Case(
            ["watch", str(spool), *follow],
            f"error: spool {spool}: {MANIFEST_NAME} is not a JSON object\n",
        )
    return build


def _missing_spool(tmp_path, monkeypatch):
    path = tmp_path / "nope"
    return Case(["watch", str(path)],
                f"error: {path} is not a spool (no {MANIFEST_NAME})\n")


def _die(specs):
    """A pool task whose worker dies with the first family it is given
    (module level, so the pool can send it by name). Every worker
    dies, so no family finishes, whatever the timing."""
    os._exit(1)


def _killed_worker(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "_run_family", _die)
    families = [
        f"{name}@1 / no-duplication / {kind}"
        for name in workload_names()
        for kind in ("call-edge", "field-access")
    ]
    return Case(
        ["tables", "table3", "--jobs", "2", "--no-cache", "--scale", "1"],
        "error: a pool worker died before it finished the cell families "
        f"of {'; '.join(families)}\n",
    )


def _env(name, value, argv, err):
    def build(tmp_path, monkeypatch):
        monkeypatch.setenv(name, value)
        return Case(argv, err)
    return build


def _fuel(tmp_path, monkeypatch):
    return Case(["run", EXAMPLE, "--fuel", "10"],
                "error: instruction budget of 10 exhausted in main@11\n")


_FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the forked workers inherit the dying task",
)

#: The rows: (id, builder). A builder takes the scratch directory and
#: monkeypatch, sets the input up, and returns its :class:`Case`.
ROWS = [
    pytest.param(
        _env("REPRO_JOBS", "abc", ["tables", "table3", "--no-cache"],
             "error: REPRO_JOBS must be an integer, got 'abc'\n"),
        id="REPRO_JOBS=abc",
    ),
    pytest.param(
        _env("REPRO_ENGINE", "bogus", ["run", EXAMPLE],
             "error: unknown engine 'bogus': expected one of fast, "
             "reference, compiled\n"),
        id="REPRO_ENGINE=bogus",
    ),
    pytest.param(_not_a_cache_directory(["cache", "info"], env=True),
                 id="REPRO_CACHE_DIR=file"),
    *[
        pytest.param(_not_a_cache_directory(argv),
                     id="--cache-dir=file-" + "-".join(argv[:2]))
        for argv in (
            ["cache", "info"], ["cache", "clear"],
            ["tables", "table3", "--report"],
        )
    ],
    pytest.param(_fuel, id="run-fuel-10"),
    *[
        pytest.param(build(payload), id=f"corrupt-cache-entry-{name}-{verb}")
        for name, payload in (
            ("list", "[]"), ("no-stats", '{"schema": 1}'), ("torn", "{ torn"),
        )
        for verb, build in (
            ("info", _corrupt_entry_listed), ("run", _corrupt_entry_missed),
        )
    ],
    *[
        pytest.param(_torn_tail(follow), id="torn-spool-tail" + suffix)
        for follow, suffix in (([], ""), (_FOLLOW, "-follow"))
    ],
    *[
        pytest.param(_corrupt_mid_stream(line, follow),
                     id=f"spool-corrupt-mid-stream-{name}{suffix}")
        for name, line in (("garbage", "{corrupt\n"), ("list", "[1, 2]\n"))
        for follow, suffix in (([], ""), (_FOLLOW, "-follow"))
    ],
    *[
        pytest.param(_torn_manifest(cut, follow),
                     id=f"torn-spool-manifest-{cut}{suffix}")
        for cut in range(5)
        for follow, suffix in (([], ""), (_FOLLOW, "-follow"))
    ],
    pytest.param(_missing_spool, id="missing-spool"),
    pytest.param(_killed_worker, id="killed-pool-worker", marks=_FORK_ONLY),
]


@pytest.mark.parametrize("build", ROWS)
def test_bad_input(build, tmp_path, monkeypatch, capsys):
    case = build(tmp_path, monkeypatch)
    capsys.readouterr()
    assert main(case.argv) == case.code
    captured = capsys.readouterr()
    assert captured.err == case.err
    if case.check is not None:
        case.check(captured.out)
    elif case.code:
        assert captured.out == ""
