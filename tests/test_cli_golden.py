"""Golden outputs of the CLI verbs that run an instrumented program.

Each case runs one verb (``profile``, ``trace``, ``metrics``, ``audit``)
in-process on one target and compares its stdout and exit code with
``tests/golden/cli/<case>.txt``. The targets are a MiniJ file
(``examples/counter.minij``), a static workload (compress) and the two
dynamic-code workloads (dynload, osr); the strategies rotate so every
verb sees full, partial and no duplication, exhaustive, and
checks-only-entry somewhere.

Before comparing, both sides go through :func:`normalize`, which masks
exactly what may legitimately differ between runs and versions:

* wall-clock figures (the ``profile`` overhead decomposition);
* in ``audit``'s JSON document, LNT004 findings (the whole-program
  unreachable-function lint, which belongs to ``repro lint``) and the
  ``label`` fields of its report, certificate and incremental payloads.

Regenerate the golden files with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile
from typing import Dict, List, Tuple

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "cli"

TARGETS: List[Tuple[str, List[str], str]] = [
    ("file", ["examples/counter.minij"], "10"),
    ("compress", ["--workload", "compress"], "50"),
    ("dynload", ["--workload", "dynload"], "25"),
    ("osr", ["--workload", "osr"], "25"),
]

STRATEGIES = ["full", "partial", "none", "exhaustive", "entry"]

VIEWS: List[Tuple[str, List[str]]] = [
    ("trace-chrome", ["trace", "--format", "chrome", "--capacity", "48"]),
    ("trace-jsonl", ["trace", "--format", "jsonl", "--capacity", "48"]),
    ("trace-compact", ["trace", "--format", "compact", "--capacity", "48"]),
    ("trace-stats", ["trace", "--stats", "--compact"]),
    ("metrics", ["metrics"]),
    ("metrics-json", ["metrics", "--json"]),
    ("audit-json", ["audit", "--format", "json"]),
]

TMP = "<tmp>"


def cases() -> Dict[str, List[str]]:
    """Case name -> argv; ``<tmp>`` stands for a scratch directory."""
    out: Dict[str, List[str]] = {}
    for t, (target, target_args, interval) in enumerate(TARGETS):
        out[f"profile-{target}"] = [
            "profile", *target_args, "--strategy", "full",
            "--iterations", "4", "--interval", interval,
            "--instrument", "block-count", "--top", "5",
            "--stacks-out", f"{TMP}/stacks.collapsed",
        ]
        for v, (view, view_args) in enumerate(VIEWS):
            strategy = STRATEGIES[(t + v) % len(STRATEGIES)]
            out[f"{view}-{target}-{strategy}"] = [
                view_args[0], *target_args, *view_args[1:],
                "--strategy", strategy, "--interval", interval,
            ]
    return out


def run_case(argv: List[str]) -> str:
    """Run one case from the repository root; its exit code and stdout,
    with the scratch directory's path written as ``<tmp>``."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace(TMP, tmp) for arg in argv]
        stdout = io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
        finally:
            os.chdir(cwd)
        return f"exit {code}\n" + stdout.getvalue().replace(tmp, TMP)


_WALL = re.compile(r" *[+-]?\d+\.\d+")


def _mask_decomposition(text: str) -> str:
    """Mask the wall-clock figures of an overhead-decomposition block
    (from its header line through its ``component sum`` line)."""
    lines = []
    inside = False
    for line in text.split("\n"):
        if line.startswith("overhead decomposition"):
            inside = True
        elif inside:
            line = _WALL.sub(" <wall>", line)
            if line.startswith("  component sum"):
                inside = False
        lines.append(line)
    return "\n".join(lines)


def _normalize_audit(node):
    """Drop LNT004 findings (recounting warnings) and mask labels."""
    if isinstance(node, list):
        return [
            _normalize_audit(item)
            for item in node
            if not (isinstance(item, dict) and item.get("rule_id") == "LNT004")
        ]
    if not isinstance(node, dict):
        return node
    out = {
        key: ("<label>" if key == "label" else _normalize_audit(value))
        for key, value in node.items()
    }
    if isinstance(out.get("findings"), list) and "warnings" in out:
        out["warnings"] = sum(
            1 for f in out["findings"] if f["severity"] == "warning"
        )
    return out


def normalize(name: str, text: str) -> str:
    text = _mask_decomposition(text)
    if name.startswith("audit-json"):
        status, _, body = text.partition("\n")
        document = _normalize_audit(json.loads(body))
        text = status + "\n" + json.dumps(document, indent=2, sort_keys=True)
    return text


CASES = cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    actual = run_case(CASES[name])
    assert normalize(name, actual) == normalize(name, golden)


def test_every_golden_file_has_a_case():
    stored = {path.stem for path in GOLDEN_DIR.glob("*.txt")}
    assert stored == set(CASES)


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for path in GOLDEN_DIR.glob("*.txt"):
        path.unlink()
    for name, argv in sorted(CASES.items()):
        text = _mask_decomposition(run_case(argv))
        (GOLDEN_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {name}.txt", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
