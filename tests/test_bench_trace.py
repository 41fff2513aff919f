"""Smoke test of the benchmark's traced path: ``bench/child.py`` with a trace file.

The tracer patches names inside the package (``Interval.__post_init__``
among them), so a refactor that removes one breaks every traced run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from temposcore.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "fixtures" / "mixed_corpus.jsonl"


@pytest.mark.parametrize("command", ["eval", "reward"])
def test_traced_child_matches_untraced_output(tmp_path, capsys, command):
    args = [command, "--dataset", str(CORPUS)]
    assert main(args) == 0
    untraced = capsys.readouterr().out
    if command == "eval":
        assert untraced == (ROOT / "tests" / "fixtures" / "golden_report.txt").read_text()

    trace = tmp_path / "trace.jsonl"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), repr(time.monotonic()), str(trace),
         "--", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    output, _, result = proc.stdout.rstrip("\n").rpartition("\n")
    assert json.loads(result)["rc"] == 0
    assert output + "\n" == untraced
    last = json.loads(trace.read_text().splitlines()[-1])
    assert last["name"] == "counters" and "intervals.Interval" in last["attrs"]
