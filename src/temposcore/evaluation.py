"""Benchmark-style evaluation of prediction corpora.

Per-task metrics:

  TG    mIoU of the predicted interval vs the single ground truth, plus
        R1@{0.3, 0.5, 0.7}
  DTG   mIoU via positional mean IoU (count mismatches dilute by the longer
        count, matching the training reward); recall is reported per
        (sample, gt-event) pair, with a per-sample variant alongside
  VHD   merged-union IoU per sample (aggregated-segment protocol), mIoU + R1@
  GVQA  answer accuracy plus merged-evidence mIoU + R1@
  TAL   F1 from DP matching, thresholded at IoU {0.1, 0.3, 0.5, 0.7}: a
        matched pair with IoU >= theta is a true positive, F1 is computed
        per (sample, theta), mF1 averages over thresholds then samples

Scoring uses the same lenient interval extraction as the reward engine, so
training rewards and evaluation metrics agree on partially malformed
outputs; ``n_parse_failures`` counts samples whose strict template parse
failed regardless of whether anything was still extractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .intervals import Interval, iou, merge, set_iou
from .parsing import ParseError, TaskKind, read
from .rewards import _prf, classification_reward, dp_match, reward_type1

RECALL_THRESHOLDS = (0.3, 0.5, 0.7)
TAL_THRESHOLDS = (0.1, 0.3, 0.5, 0.7)
TAL_PROTOCOL = "dp-tp-f1-v1"


@dataclass(frozen=True)
class Sample:
    """One evaluation record: ground truth plus the raw predicted text."""

    id: str
    task: TaskKind
    gt_intervals: tuple[Interval, ...]
    prediction_raw: str
    duration: float | None = None
    gt_answer: str | None = None

    def __post_init__(self) -> None:
        if not self.gt_intervals:
            raise ValueError(f"sample {self.id}: gt_intervals must be non-empty")
        if (self.gt_answer is not None) != (self.task is TaskKind.GVQA):
            raise ValueError(f"sample {self.id}: gt_answer must be present exactly for GVQA")
        if self.task is TaskKind.TG and len(self.gt_intervals) != 1:
            raise ValueError(f"sample {self.id}: TG requires exactly one ground-truth interval")
        if self.duration is not None and not self.duration > 0:
            raise ValueError(f"sample {self.id}: duration must be positive")


@dataclass
class TaskBlock:
    """Metrics for one task; metric fields stay None when n_samples is 0."""

    task: TaskKind
    n_samples: int = 0
    n_parse_failures: int = 0
    miou: float | None = None
    recall_at: dict[float, float] | None = None
    per_sample_recall_at: dict[float, float] | None = None
    accuracy: float | None = None
    f1_at: dict[float, float] | None = None
    mf1: float | None = None


@dataclass
class EvalReport:
    blocks: dict[TaskKind, TaskBlock] = field(default_factory=dict)


def _check_task(samples: Sequence[Sample], task: TaskKind) -> None:
    for s in samples:
        if s.task is not task:
            raise ValueError(f"sample {s.id} has task {s.task.value}, expected {task.value}")


def _clamp_interval(iv: Interval, duration: float) -> Interval:
    return Interval(min(iv.start, duration), min(iv.end, duration))


def _predicted(
    sample: Sample, strict: bool, clamp: bool
) -> tuple[tuple[Interval, ...], bool, str | None]:
    """Scoreable intervals, whether the template parse failed, and the answer text."""
    reading = read(sample.prediction_raw, sample.task, strict)
    failed = isinstance(reading.parsed, ParseError)
    intervals = (reading.intervals or ()) if failed else reading.parsed.intervals
    if clamp and sample.duration is not None:
        intervals = tuple(_clamp_interval(iv, sample.duration) for iv in intervals)
    return intervals, failed, reading.answer_text


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def _recall_map(scores: Sequence[float], thresholds: Sequence[float]) -> dict[float, float]:
    return {t: sum(1 for s in scores if s >= t) / len(scores) for t in thresholds}


def eval_tg(samples: Sequence[Sample], strict: bool = False, clamp: bool = False) -> TaskBlock:
    _check_task(samples, TaskKind.TG)
    block = TaskBlock(task=TaskKind.TG, n_samples=len(samples))
    if not samples:
        return block
    scores: list[float] = []
    for s in samples:
        preds, failed, _ = _predicted(s, strict, clamp)
        block.n_parse_failures += failed
        scores.append(iou(preds[0], s.gt_intervals[0]) if preds else 0.0)
    block.miou = _mean(scores)
    block.recall_at = _recall_map(scores, RECALL_THRESHOLDS)
    return block


def eval_dtg(samples: Sequence[Sample], strict: bool = False, clamp: bool = False) -> TaskBlock:
    _check_task(samples, TaskKind.DTG)
    block = TaskBlock(task=TaskKind.DTG, n_samples=len(samples))
    if not samples:
        return block
    sample_scores: list[float] = []
    pair_ious: list[float] = []
    for s in samples:
        preds, failed, _ = _predicted(s, strict, clamp)
        block.n_parse_failures += failed
        sample_scores.append(reward_type1(preds, s.gt_intervals))
        # every gt event is a recall unit; events beyond the prediction count miss
        for i, gt in enumerate(s.gt_intervals):
            pair_ious.append(iou(preds[i], gt) if i < len(preds) else 0.0)
    block.miou = _mean(sample_scores)
    block.recall_at = _recall_map(pair_ious, RECALL_THRESHOLDS)
    block.per_sample_recall_at = _recall_map(sample_scores, RECALL_THRESHOLDS)
    return block


def eval_vhd(samples: Sequence[Sample], strict: bool = False, clamp: bool = False) -> TaskBlock:
    _check_task(samples, TaskKind.VHD)
    block = TaskBlock(task=TaskKind.VHD, n_samples=len(samples))
    if not samples:
        return block
    scores: list[float] = []
    for s in samples:
        preds, failed, _ = _predicted(s, strict, clamp)
        block.n_parse_failures += failed
        scores.append(set_iou(merge(preds), merge(s.gt_intervals)) if preds else 0.0)
    block.miou = _mean(scores)
    block.recall_at = _recall_map(scores, RECALL_THRESHOLDS)
    return block


def eval_gvqa(samples: Sequence[Sample], strict: bool = False, clamp: bool = False) -> TaskBlock:
    _check_task(samples, TaskKind.GVQA)
    block = TaskBlock(task=TaskKind.GVQA, n_samples=len(samples))
    if not samples:
        return block
    scores: list[float] = []
    correct: list[int] = []
    for s in samples:
        if s.gt_answer is None:
            raise ValueError(f"sample {s.id}: GVQA evaluation requires gt_answer")
        preds, failed, answer = _predicted(s, strict, clamp)
        block.n_parse_failures += failed
        scores.append(set_iou(merge(preds), merge(s.gt_intervals)) if preds else 0.0)
        correct.append(classification_reward(answer, s.gt_answer) if answer is not None else 0)
    block.accuracy = _mean(correct)
    block.miou = _mean(scores)
    block.recall_at = _recall_map(scores, RECALL_THRESHOLDS)
    return block


def eval_tal(samples: Sequence[Sample], strict: bool = False, clamp: bool = False) -> TaskBlock:
    _check_task(samples, TaskKind.TAL)
    block = TaskBlock(task=TaskKind.TAL, n_samples=len(samples))
    if not samples:
        return block
    per_threshold: dict[float, list[float]] = {t: [] for t in TAL_THRESHOLDS}
    for s in samples:
        preds, failed, _ = _predicted(s, strict, clamp)
        block.n_parse_failures += failed
        match = dp_match(preds, s.gt_intervals)
        for t in TAL_THRESHOLDS:
            tp = sum(1 for v in match.pair_ious if v >= t)
            per_threshold[t].append(_prf(tp, len(preds), len(s.gt_intervals))[2])
    block.f1_at = {t: _mean(v) for t, v in per_threshold.items()}
    block.mf1 = _mean(list(block.f1_at.values()))
    return block


_EVALUATORS = {
    TaskKind.TG: eval_tg,
    TaskKind.DTG: eval_dtg,
    TaskKind.VHD: eval_vhd,
    TaskKind.GVQA: eval_gvqa,
    TaskKind.TAL: eval_tal,
}


def aggregate(samples: Sequence[Sample], strict: bool = False, clamp: bool = False) -> EvalReport:
    """Partition a mixed corpus by task and evaluate each block.

    Every task gets a block (with n_samples = 0 when absent) so report
    shapes are stable; blocks appear in fixed task order and samples are
    scored in input order, making the report deterministic.
    """
    by_task: dict[TaskKind, list[Sample]] = {task: [] for task in TaskKind}
    for s in samples:
        by_task[s.task].append(s)
    report = EvalReport()
    for task in TaskKind:
        report.blocks[task] = _EVALUATORS[task](by_task[task], strict=strict, clamp=clamp)
    return report
