#!/usr/bin/env python3
"""Regenerate the test fixture corpora, their golden reports and the simulate goldens.

Run from the repository root:

    python3 scripts/make_fixtures.py          # rewrite tests/fixtures/
    python3 scripts/make_fixtures.py --check  # regenerate into a temporary
                                              # directory, diff, exit 1 on drift

The perfect corpus serializes each sample's ground truth as its prediction,
so every metric sits at its maximum. The varied corpus deterministically
degrades a share of predictions (jitter, wrong counts, wrong answers,
inverted pairs, garbage) to pin non-trivial report bytes. The simulate
goldens are seeded ``temposcore simulate`` runs on the bundled scenarios.
"""

from __future__ import annotations

import argparse
import difflib
import random
import sys
import tempfile
from pathlib import Path

from temposcore import Interval, ParsedOutput, Sample, TaskKind, serialize, write_dataset
from temposcore.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
SCENARIOS = ROOT / "scenarios"

# (golden file, scenario, seed, extra flags); every run takes 200 steps
SIMULATIONS = (
    ("simulate_tg_basic_s7.txt", "tg_basic.json", 7, []),
    ("simulate_tal_three_s0.txt", "tal_three.json", 0, []),
    ("simulate_tal_three_s0_norm_g4.txt", "tal_three.json", 0,
     ["--tal-normalize", "--group-size", "4"]),
    ("simulate_multitask_five_s3.txt", "multitask_five.json", 3, []),
    ("simulate_multitask_five_s3_norm_g5_kl02.txt", "multitask_five.json", 3,
     ["--tal-normalize", "--group-size", "5", "--kl-beta", "0.2"]),
)

OPTIONS = ("A", "B", "C", "D")


def _segments(rng: random.Random, duration: float, n: int) -> tuple[Interval, ...]:
    """n sorted, disjoint segments with >= 1 s gaps, 0.1 s resolution."""
    out = []
    cursor = 0.0
    for k in range(n):
        remaining = n - k
        max_start = duration - remaining * 3.0
        start = round(rng.uniform(cursor + 1.0, max(cursor + 1.0, max_start)), 1)
        length = round(rng.uniform(1.0, min(15.0, duration - start - (remaining - 1) * 3.0)), 1)
        end = round(start + max(length, 1.0), 1)
        out.append(Interval(start, end))
        cursor = end + 1.0
    return tuple(out)


def _gt_counts(task: TaskKind, rng: random.Random) -> int:
    if task is TaskKind.TG:
        return 1
    if task is TaskKind.GVQA:
        return rng.randint(1, 2)
    if task is TaskKind.VHD:
        return rng.randint(1, 3)
    return rng.randint(2, 4)


def perfect_corpus(rng: random.Random, per_task: int = 20) -> list[Sample]:
    samples = []
    for task in TaskKind:
        for i in range(per_task):
            duration = float(rng.randrange(60, 181, 10))
            gts = _segments(rng, duration, _gt_counts(task, rng))
            answer = rng.choice(OPTIONS) if task is TaskKind.GVQA else None
            prediction = serialize(ParsedOutput(intervals=gts, answer_text=answer), task)
            samples.append(
                Sample(
                    id=f"{task.value.lower()}-{i:03d}",
                    task=task,
                    gt_intervals=gts,
                    prediction_raw=prediction,
                    duration=duration,
                    gt_answer=answer,
                )
            )
    return samples


def _jitter(iv: Interval, rng: random.Random, duration: float) -> Interval:
    shift = round(rng.uniform(-4.0, 4.0), 1)
    start = min(max(iv.start + shift, 0.0), duration)
    end = min(max(iv.end + shift, start), duration)
    return Interval(round(start, 1), round(end, 1))


def _degrade(sample: Sample, rng: random.Random) -> str:
    kind = rng.randrange(6)
    gts = sample.gt_intervals
    duration = sample.duration or 100.0
    answer = sample.gt_answer
    if kind == 0:  # jittered but well-formed
        intervals = tuple(_jitter(iv, rng, duration) for iv in gts)
        return serialize(ParsedOutput(intervals=intervals, answer_text=answer), sample.task)
    if kind == 1:  # wrong count: drop or duplicate one interval
        intervals = gts[:-1] if len(gts) > 1 else gts + (gts[0],)
        if sample.task is TaskKind.TG:
            intervals = gts + (gts[0],)
        body = ", ".join(f"{iv.start} to {iv.end}" for iv in intervals)
        if sample.task is TaskKind.GVQA:
            return f"<answer>{answer}</answer><glue>{body}</glue>"
        return f"<answer>{body}</answer>"
    if kind == 2:  # wrong answer / chain-of-thought noise around a good block
        if sample.task is TaskKind.GVQA:
            wrong = OPTIONS[(OPTIONS.index(answer) + 1) % len(OPTIONS)]
            return serialize(ParsedOutput(intervals=gts, answer_text=wrong), sample.task)
        good = serialize(ParsedOutput(intervals=gts), sample.task)
        return f"let me think about the video first. {good} that is my answer."
    if kind == 3:  # inverted pair: format failure, nothing extractable
        iv = gts[0]
        return f"<answer>{iv.end} to {iv.start}</answer>"
    if kind == 4:  # plain garbage
        return "the highlight happens around the middle of the video"
    return serialize(ParsedOutput(intervals=gts, answer_text=answer), sample.task)


def varied_corpus(rng: random.Random, per_task: int = 8) -> list[Sample]:
    out = []
    for s in perfect_corpus(rng, per_task=per_task):
        out.append(
            Sample(
                id=f"v-{s.id}",
                task=s.task,
                gt_intervals=s.gt_intervals,
                prediction_raw=_degrade(s, rng),
                duration=s.duration,
                gt_answer=s.gt_answer,
            )
        )
    return out


def write_fixtures(out: Path) -> list[str]:
    """Write every fixture into ``out``; return the file names written."""
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def cli(args: list[str], name: str) -> None:
        code = cli_main(args + ["--out", str(out / name)])
        assert code == 0, f"{name}: exit {code}"
        written.append(name)

    for seed, build, corpus, report in (
        (20240817, perfect_corpus, "mixed_corpus.jsonl", "golden_report.txt"),
        (917, varied_corpus, "varied_corpus.jsonl", "varied_report.txt"),
    ):
        write_dataset(build(random.Random(seed)), out / corpus)
        written.append(corpus)
        cli(["eval", "--dataset", str(out / corpus)], report)

    for name, scenario, seed, extra in SIMULATIONS:
        cli(["simulate", "--scenario", str(SCENARIOS / scenario),
             "--steps", "200", "--seed", str(seed), *extra], name)
    return written


def check() -> int:
    """Regenerate into a temporary directory and diff against the committed fixtures."""
    drifted = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in write_fixtures(Path(tmp)):
            new = (Path(tmp) / name).read_text(encoding="utf-8")
            path = FIXTURES / name
            old = path.read_text(encoding="utf-8") if path.exists() else ""
            if new != old:
                drifted.append(name)
                diff = difflib.unified_diff(
                    old.splitlines(keepends=True), new.splitlines(keepends=True),
                    f"tests/fixtures/{name}", f"regenerated/{name}", n=1,
                )
                sys.stdout.writelines(list(diff)[:40])
    if drifted:
        print(f"{len(drifted)} fixture(s) drifted: {', '.join(drifted)}")
        return 1
    print("fixtures match")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and exit 1 on any drift")
    if parser.parse_args().check:
        return check()
    write_fixtures(FIXTURES)
    print("fixtures written to", FIXTURES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
