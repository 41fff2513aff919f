"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import GARBAGE_PREDICTION, brute_force_match, collect_metrics

from temposcore import (
    GrpoConfig,
    Interval,
    ParsedOutput,
    ParseError,
    Sample,
    TalConfig,
    TaskKind,
    aggregate,
    dp_match,
    group_advantages,
    instance_number_reward,
    iter_dataset,
    load_scenario,
    read,
    run_simulation,
    sequential_match,
    serialize,
)
from temposcore.cli import main as cli_main
from temposcore.rewards import _tal_terms
from test_grpo import finite_difference, policy_objective, random_gradient_config

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = ROOT / "scenarios"


def verdict(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: PASS{suffix}")


def random_interval(rng: random.Random) -> Interval:
    a = rng.uniform(0.0, 100.0)
    b = rng.uniform(0.0, 100.0)
    return Interval(min(a, b), max(a, b))


def test_c1_matching_oracle_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(1000):
        preds = [random_interval(rng) for _ in range(rng.randint(0, 5))]
        gts = [random_interval(rng) for _ in range(rng.randint(1, 5))]
        assert dp_match(preds, gts).siou == brute_force_match(preds, gts).siou
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    verdict("C1 matching oracle equivalence", f"1000 instances in {elapsed:.2f}s, exact")


def test_c2_matching_dominance():
    rng = random.Random(202)
    violations = 0
    for _ in range(10000):
        preds = [random_interval(rng) for _ in range(rng.randint(0, 6))]
        gts = [random_interval(rng) for _ in range(rng.randint(1, 6))]
        if dp_match(preds, gts).siou < sequential_match(preds, gts).siou:
            violations += 1
    assert violations == 0
    verdict("C2 matching dominance", "10000 instances, 0 violations")


def test_c3_reward_formula_fidelity():
    assert abs(instance_number_reward(3, 3, 1.0) - 1.0) <= 1e-9
    assert abs(instance_number_reward(5, 2, 1.0) - math.exp(-1.5)) <= 1e-9
    assert abs(instance_number_reward(7, 10, 1.0) - math.exp(-1.0)) <= 1e-9
    # 4-decimal worked figures
    assert instance_number_reward(5, 2, 1.0) == pytest.approx(0.2231, abs=1e-4)
    assert instance_number_reward(7, 10, 1.0) == pytest.approx(0.3679, abs=1e-4)
    tal = _tal_terms([Interval(0, 4), Interval(6, 10)], [Interval(2, 8)], TalConfig(1.0))[0]
    assert tal == pytest.approx(0.5346, abs=1e-4)
    verdict("C3 reward formula fidelity", f"count-penalty triple exact, tal={tal:.6f}")


def test_c4_advantage_normalization():
    rng = random.Random(404)
    for _ in range(1000):
        g = rng.randint(2, 32)
        rewards = [rng.uniform(-10.0, 10.0) for _ in range(g)]
        if len(set(rewards)) == 1:
            continue
        adv = np.array(group_advantages(rewards))
        assert abs(adv.mean()) <= 1e-9
        assert abs(np.sqrt(np.mean(adv * adv)) - 1.0) <= 1e-9
        scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        rescaled = np.array(group_advantages([scale * r + shift for r in rewards]))
        assert np.allclose(adv, rescaled, atol=1e-9)
    for g in (2, 5, 32):
        assert group_advantages([3.25] * g) == [0.0] * g
    verdict("C4 advantage normalization", "1000 groups, G in [2,32]")


def test_c5_gradient_check():
    rng = np.random.default_rng(505)
    cfg = GrpoConfig(clip_eps=0.2, kl_beta=0.1)
    worst = 0.0
    for _ in range(100):
        batch = random_gradient_config(rng, cfg)
        _, analytic, _, _ = policy_objective(*batch, cfg)
        numeric = finite_difference(batch[0].params[0], lambda: policy_objective(*batch, cfg)[0])
        flat_a = np.concatenate([analytic[k].ravel() for k in sorted(analytic)])
        flat_n = np.concatenate([numeric[k].ravel() for k in sorted(numeric)])
        err = float(np.linalg.norm(flat_a - flat_n) / max(np.linalg.norm(flat_n), 1e-8))
        worst = max(worst, err)
        assert err < 1e-5
    verdict("C5 gradient check", f"100 configurations, worst rel err {worst:.2e}")


def test_c6_simulation_convergence():
    start = time.monotonic()
    tg = run_simulation(load_scenario(SCENARIOS / "tg_basic.json"), GrpoConfig(), steps=500, seed=7)
    tg_elapsed = time.monotonic() - start
    assert tg_elapsed < 60.0
    assert tg.curve[-1].mean_reward >= 1.8

    tal = run_simulation(
        load_scenario(SCENARIOS / "tal_three.json"), GrpoConfig(), steps=500, seed=7
    )
    gt_count = len(tal.policy.prompts[0].gt_intervals)
    modal_count = int(tal.tables[0].probs["count"].argmax()) + 1
    assert modal_count == gt_count
    verdict(
        "C6 simulation convergence",
        f"tg final reward {tg.curve[-1].mean_reward:.3f} in {tg_elapsed:.1f}s, "
        f"tal modal count {modal_count} == {gt_count}",
    )


def _random_valid_output(rng: random.Random, task: TaskKind) -> ParsedOutput:
    def ts() -> float:
        raw = rng.uniform(0.0, 10000.0)
        return round(raw, rng.randint(0, 3)) if rng.random() < 0.7 else raw

    def iv() -> Interval:
        a, b = ts(), ts()
        return Interval(min(a, b), max(a, b))

    if task is TaskKind.TG:
        return ParsedOutput(intervals=(iv(),))
    if task is TaskKind.GVQA:
        answer = rng.choice(["A", "B", "C", "D", "yes", "no", "the red car", "42"])
        return ParsedOutput(
            intervals=tuple(iv() for _ in range(rng.randint(0, 4))), answer_text=answer
        )
    return ParsedOutput(intervals=tuple(iv() for _ in range(rng.randint(1, 5))))


def test_c7_round_trip_and_fuzz():
    rng = random.Random(707)
    tasks = list(TaskKind)
    failures = 0
    for _ in range(10000):
        task = rng.choice(tasks)
        p = _random_valid_output(rng, task)
        raw = serialize(p, task)
        if read(raw, task).parsed != p:
            failures += 1
    assert failures == 0

    fragments = ["<answer>", "</answer>", "<glue>", "</glue>", " to ", ",", "1.5", "nan", "1e999"]
    for i in range(100000):
        if rng.random() < 0.5:
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(80))).decode("latin-1")
        else:
            raw = "".join(rng.choice(fragments) for _ in range(rng.randrange(8)))
        assert isinstance(read(raw, tasks[i % len(tasks)]).parsed, (ParsedOutput, ParseError))
    verdict("C7 round-trip parsing + fuzz", "10000 round trips, 100000 fuzz inputs, no crash")


def test_c8_eval_self_consistency(tmp_path):
    samples = list(iter_dataset(FIXTURES / "mixed_corpus.jsonl"))
    assert len(samples) == 100
    for s in samples:  # predictions in the fixture are the serialized ground truth
        expected = serialize(
            ParsedOutput(intervals=s.gt_intervals, answer_text=s.gt_answer), s.task
        )
        assert s.prediction_raw == expected

    report = aggregate(samples)
    for task in TaskKind:
        block = report.blocks[task]
        assert block.n_samples == 20
        if block.miou is not None:
            assert block.miou == 1.0
        if block.recall_at is not None:
            assert all(v == 1.0 for v in block.recall_at.values())
        if block.accuracy is not None:
            assert block.accuracy == 1.0
        if block.mf1 is not None:
            assert block.mf1 == 1.0

    golden = (FIXTURES / "golden_report.txt").read_bytes()
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        code = cli_main(
            ["eval", "--dataset", str(FIXTURES / "mixed_corpus.jsonl"), "--out", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == golden
    verdict("C8 eval self-consistency", "all metrics maximal, golden report byte-identical")


def test_c9_metric_monotonicity():
    samples = list(iter_dataset(FIXTURES / "mixed_corpus.jsonl"))
    baseline = collect_metrics(aggregate(samples))
    for i, victim in enumerate(samples):
        mutated = list(samples)
        mutated[i] = Sample(
            id=victim.id,
            task=victim.task,
            gt_intervals=victim.gt_intervals,
            prediction_raw=GARBAGE_PREDICTION,
            duration=victim.duration,
            gt_answer=victim.gt_answer,
        )
        degraded = collect_metrics(aggregate(mutated))
        assert degraded.keys() == baseline.keys()
        for key, value in degraded.items():
            assert value <= baseline[key] + 1e-12, (
                f"{key} increased after garbling sample {victim.id}"
            )
    verdict("C9 metric monotonicity", "100 single-sample corruptions, no metric increased")
