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
from typing import Iterable, Sequence

from .intervals import Interval, _finite_float, _intervals_from_pairs, _left_sum, _unchecked, iou
from .parsing import ParseError, TaskKind, _field_fault, read
from .rewards import _prf, classification_reward, dp_match, reward_type1, reward_type2

RECALL_THRESHOLDS = (0.3, 0.5, 0.7)
TAL_THRESHOLDS = (0.1, 0.3, 0.5, 0.7)
TAL_PROTOCOL = "dp-tp-f1-v1"


@dataclass(frozen=True)
class Sample:
    """One evaluation record: ground truth plus the raw predicted text.

    The constructor is the one home of the dataset rules, JSON types included.
    Pairs may be Intervals, ``[start, end]`` lists or ``(start, end)`` tuples.
    """

    id: str
    task: TaskKind
    gt_intervals: tuple[Interval, ...]
    prediction_raw: str
    duration: float | None = None
    gt_answer: str | None = None

    def __post_init__(self) -> None:
        # the types first, then the values: the order docs/formats.md gives for two faults
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("id must be a non-empty string")
        if not isinstance(self.task, TaskKind):
            raise ValueError(f"unknown task tag {self.task!r}")
        if not isinstance(self.prediction_raw, str):
            raise ValueError("prediction must be a string")
        if not isinstance(self.gt_intervals, (list, tuple)) or not self.gt_intervals:
            raise ValueError("gt_intervals must be a non-empty list")
        gts = _intervals_from_pairs(self.gt_intervals, "gt interval")
        object.__setattr__(self, "gt_intervals", gts)
        if self.duration is not None:
            object.__setattr__(self, "duration", _finite_float(self.duration))
            if self.duration is None:
                raise ValueError("duration must be a finite number")
        if self.gt_answer is not None and not isinstance(self.gt_answer, str):
            raise ValueError("gt_answer must be a string")
        fault = _field_fault(self.id)
        if fault is not None:
            raise ValueError(f"id {self.id!r} {fault}")
        if (self.gt_answer is not None) != (self.task is TaskKind.GVQA):
            raise ValueError(f"sample {self.id}: gt_answer must be present exactly for GVQA")
        if self.gt_answer is not None and not self.gt_answer.strip():
            raise ValueError(f"sample {self.id}: gt_answer must not be blank")
        if self.task is TaskKind.TG and len(gts) != 1:
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


def _clamp_interval(iv: Interval, duration: float) -> Interval:
    """``iv`` with both endpoints cut at ``duration``, a positive float."""
    start, end = iv
    return _unchecked((min(start, duration), min(end, duration)))


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
    return _left_sum(xs) / len(xs)


def _recall_map(scores: Sequence[float], thresholds: Sequence[float]) -> dict[float, float]:
    return {t: sum(1 for s in scores if s >= t) / len(scores) for t in thresholds}


@dataclass
class _Tally:
    """What one task's metrics need of each sample it has scored, in input order.

    ``scores`` holds the per-sample score (mIoU, or the DTG sample score);
    ``pair_ious`` the DTG IoU of every (sample, gt event) pair; ``correct``
    the GVQA answer rewards; ``f1_at`` the TAL F1 of each sample per
    threshold. No sample is kept.
    """

    task: TaskKind
    n_samples: int = 0
    n_parse_failures: int = 0
    scores: list[float] = field(default_factory=list)
    pair_ious: list[float] = field(default_factory=list)
    correct: list[int] = field(default_factory=list)
    f1_at: dict[float, list[float]] = field(
        default_factory=lambda: {t: [] for t in TAL_THRESHOLDS}
    )


def _score_tg(tally: _Tally, s: Sample, preds: tuple[Interval, ...], answer: str | None) -> None:
    tally.scores.append(iou(preds[0], s.gt_intervals[0]) if preds else 0.0)


def _score_dtg(tally: _Tally, s: Sample, preds: tuple[Interval, ...], answer: str | None) -> None:
    tally.scores.append(reward_type1(preds, s.gt_intervals))
    # every gt event is a recall unit; events beyond the prediction count miss
    for i, gt in enumerate(s.gt_intervals):
        tally.pair_ious.append(iou(preds[i], gt) if i < len(preds) else 0.0)


def _score_union(tally: _Tally, s: Sample, preds: tuple[Interval, ...], answer: str | None) -> None:
    tally.scores.append(reward_type2(preds, s.gt_intervals))


def _score_gvqa(tally: _Tally, s: Sample, preds: tuple[Interval, ...], answer: str | None) -> None:
    _score_union(tally, s, preds, answer)
    tally.correct.append(classification_reward(answer, s.gt_answer) if answer is not None else 0)


def _score_tal(tally: _Tally, s: Sample, preds: tuple[Interval, ...], answer: str | None) -> None:
    match = dp_match(preds, s.gt_intervals)
    for t, f1s in tally.f1_at.items():
        tp = sum(1 for v in match.pair_ious if v >= t)
        f1s.append(_prf(tp, len(preds), len(s.gt_intervals))[2])


def _finish_scores(tally: _Tally, block: TaskBlock) -> None:
    block.miou = _mean(tally.scores)
    block.recall_at = _recall_map(tally.scores, RECALL_THRESHOLDS)


def _finish_dtg(tally: _Tally, block: TaskBlock) -> None:
    block.miou = _mean(tally.scores)
    block.recall_at = _recall_map(tally.pair_ious, RECALL_THRESHOLDS)
    block.per_sample_recall_at = _recall_map(tally.scores, RECALL_THRESHOLDS)


def _finish_gvqa(tally: _Tally, block: TaskBlock) -> None:
    _finish_scores(tally, block)
    block.accuracy = _mean(tally.correct)


def _finish_tal(tally: _Tally, block: TaskBlock) -> None:
    block.f1_at = {t: _mean(v) for t, v in tally.f1_at.items()}
    block.mf1 = _mean(list(block.f1_at.values()))


# each task's per-sample scorer and the finisher that turns its tally into metrics
_TASK_METRICS = {
    TaskKind.TG: (_score_tg, _finish_scores),
    TaskKind.DTG: (_score_dtg, _finish_dtg),
    TaskKind.VHD: (_score_union, _finish_scores),
    TaskKind.GVQA: (_score_gvqa, _finish_gvqa),
    TaskKind.TAL: (_score_tal, _finish_tal),
}


def _add(tally: _Tally, s: Sample, strict: bool, clamp: bool) -> None:
    """Score one sample of ``tally``'s task into it."""
    preds, failed, answer = _predicted(s, strict, clamp)
    tally.n_samples += 1
    tally.n_parse_failures += failed
    _TASK_METRICS[tally.task][0](tally, s, preds, answer)


def _finish(tally: _Tally) -> TaskBlock:
    block = TaskBlock(
        task=tally.task, n_samples=tally.n_samples, n_parse_failures=tally.n_parse_failures
    )
    if tally.n_samples:
        _TASK_METRICS[tally.task][1](tally, block)
    return block


def aggregate(samples: Iterable[Sample], strict: bool = False, clamp: bool = False) -> EvalReport:
    """Score a mixed corpus in one pass and report every task.

    ``samples`` may be any iterable, a generator included: each sample is
    scored as it arrives and only its per-sample scores are kept. Every task
    gets a block (with n_samples = 0 when absent) so report shapes are
    stable; blocks appear in fixed task order and each task's scores are
    summed in input order, making the report deterministic.
    """
    tallies = {task: _Tally(task) for task in TaskKind}
    for s in samples:
        _add(tallies[s.task], s, strict, clamp)
    return EvalReport(blocks={task: _finish(tally) for task, tally in tallies.items()})
