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


def traced_run(tmp_path, args):
    """``args`` run through ``bench/child.py`` with a trace file: (stdout, trace records)."""
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
    return output + "\n", [json.loads(line) for line in trace.read_text().splitlines()]


@pytest.mark.parametrize("command", ["eval", "reward"])
def test_traced_child_matches_untraced_output(tmp_path, capsys, command):
    args = [command, "--dataset", str(CORPUS)]
    assert main(args) == 0
    untraced = capsys.readouterr().out
    if command == "eval":
        assert untraced == (ROOT / "tests" / "fixtures" / "golden_report.txt").read_text()

    output, records = traced_run(tmp_path, args)
    assert output == untraced
    last = records[-1]
    assert last["name"] == "counters" and "intervals.Interval" in last["attrs"]


def test_traced_simulate_matches_untraced_output(tmp_path, capsys):
    """The tracer wraps ``ToyPolicy``'s methods; a traced GRPO run prints the same bytes."""
    steps = 4
    args = ["simulate", "--scenario", str(ROOT / "scenarios" / "tg_basic.json"),
            "--steps", str(steps), "--seed", "3"]
    assert main(args) == 0
    untraced = capsys.readouterr().out

    output, records = traced_run(tmp_path, args)
    assert output == untraced
    names = [r["name"] for r in records]
    assert names.count("grpo.grpo_step") == steps
    # the initial policy's tables and KL, then one of each per step (tg_basic has one prompt)
    assert names.count("grpo.ToyPolicy.head_log_probs") == steps + 1
    assert names.count("grpo.prompt_kl") == steps + 1
    assert names.count("grpo.objective_and_gradients") == steps
