"""The benchmark's reference scorer (``bench/reference.py``) as an oracle.

``bench/run.py`` is imported as it is, and two of its workloads run in
process: inputs generated at one fixed seed, ``cli.main`` on them, and the
workload's own check against the reference. reward-dense has TAL lines
whose matchings tie exactly, so its check pins the DP's tie rule.
eval-mixed is left out: its 100k lines are too many for this suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from temposcore.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module; the ``sys.path`` entry it adds goes after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_agrees_with_the_documented_example(bench_run):
    bench_run.reference.self_check()


@pytest.mark.parametrize("workload, seed", [("reward-dense", 4242), ("simulate-multitask", 17)])
def test_workload_output_passes_its_reference_check(bench_run, tmp_path, workload, seed):
    w = bench_run.WORKLOADS[workload](seed, tmp_path)
    w.meta = w.generate(tmp_path)
    out = tmp_path / "out.txt"
    assert main(w.cli_args(out)) == 0
    w.check(out.read_text(encoding="utf-8"))
