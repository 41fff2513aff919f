"""Line-delimited dataset records and deterministic report rendering.

Datasets are JSON Lines, one sample per line (schema in docs/formats.md):

    {"id": "tg-000", "task": "TG", "duration": 100.0,
     "gt_intervals": [[12.3, 34.5]], "prediction": "<answer>12.3 to 34.5</answer>"}

``gt_answer`` is required for GVQA lines and forbidden elsewhere. Reports
and per-sample reward records are emitted as ``key=value`` lines with all
numbers fixed to 4 decimals, so golden files stay byte-stable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .evaluation import (
    EvalReport,
    RECALL_THRESHOLDS,
    Sample,
    TAL_PROTOCOL,
    TAL_THRESHOLDS,
    TaskBlock,
)
from .intervals import _finite_float, _interval_from_pair
from .parsing import TaskKind
from .rewards import RewardBreakdown

REPORT_VERSION = 1


class DatasetError(ValueError):
    """A malformed dataset line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_REQUIRED_FIELDS = {"id", "task", "gt_intervals", "prediction"}
_ALL_FIELDS = _REQUIRED_FIELDS | {"duration", "gt_answer"}
_TASKS = {task.value: task for task in TaskKind}


def sample_from_record(record: dict, line_no: int) -> Sample:
    if not isinstance(record, dict):
        raise DatasetError(line_no, "record must be a JSON object")
    if missing := _REQUIRED_FIELDS - record.keys():
        raise DatasetError(line_no, f"missing fields: {', '.join(sorted(missing))}")
    if unknown := record.keys() - _ALL_FIELDS:
        raise DatasetError(line_no, f"unexpected fields: {', '.join(sorted(unknown))}")
    if not isinstance(record["id"], str) or not record["id"]:
        raise DatasetError(line_no, "id must be a non-empty string")
    tag = record["task"]
    task = _TASKS.get(tag) if isinstance(tag, str) else None
    if task is None:
        raise DatasetError(line_no, f"unknown task tag {tag!r}")
    if not isinstance(record["prediction"], str):
        raise DatasetError(line_no, "prediction must be a string")
    raw_gts = record["gt_intervals"]
    if not isinstance(raw_gts, list) or not raw_gts:
        raise DatasetError(line_no, "gt_intervals must be a non-empty list")
    intervals = []
    for pair in raw_gts:
        try:
            intervals.append(_interval_from_pair(pair))
        except ValueError as exc:
            raise DatasetError(line_no, f"bad gt interval {pair!r}: {exc}") from exc
    duration = record.get("duration")
    if duration is not None:
        duration = _finite_float(duration)
        if duration is None:
            raise DatasetError(line_no, "duration must be a finite number")
    gt_answer = record.get("gt_answer")
    if gt_answer is not None and not isinstance(gt_answer, str):
        raise DatasetError(line_no, "gt_answer must be a string")
    try:
        return Sample(
            id=record["id"],
            task=task,
            gt_intervals=tuple(intervals),
            prediction_raw=record["prediction"],
            duration=duration,
            gt_answer=gt_answer,
        )
    except ValueError as exc:
        raise DatasetError(line_no, str(exc)) from exc


def iter_dataset(path: str | Path) -> Iterator[Sample]:
    """Yield the samples of a JSONL dataset in file order, one line at a time.

    Each line is decoded and checked as it is reached, so a malformed line,
    bytes that are not UTF-8 included, raises DatasetError (naming it) only
    after every earlier sample has been yielded.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():  # redo strictly what surrogateescape let through
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:  # both decode errors are ValueErrors
                raise DatasetError(line_no, f"invalid JSON: {exc}") from exc
            yield sample_from_record(record, line_no)


def sample_to_record(sample: Sample) -> dict:
    record: dict = {
        "id": sample.id,
        "task": sample.task.value,
        "gt_intervals": [[iv.start, iv.end] for iv in sample.gt_intervals],
        "prediction": sample.prediction_raw,
    }
    if sample.duration is not None:
        record["duration"] = sample.duration
    if sample.gt_answer is not None:
        record["gt_answer"] = sample.gt_answer
    return record


def write_dataset(samples: Iterable[Sample], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in samples:
            f.write(json.dumps(sample_to_record(s)) + "\n")


# ---------------------------------------------------------------------------
# Rendering


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _block_line(block: TaskBlock) -> str:
    parts = [f"task={block.task.value}"]
    if block.task is TaskKind.TAL:
        parts.append(f"protocol={TAL_PROTOCOL}")
    parts.append(f"n_samples={block.n_samples}")
    parts.append(f"n_parse_failures={block.n_parse_failures}")
    if block.n_samples == 0:
        return " ".join(parts)
    if block.accuracy is not None:
        parts.append(f"accuracy={_fmt(block.accuracy)}")
    if block.miou is not None:
        parts.append(f"miou={_fmt(block.miou)}")
    if block.recall_at is not None:
        parts.extend(f"r@{t}={_fmt(block.recall_at[t])}" for t in RECALL_THRESHOLDS)
    if block.per_sample_recall_at is not None:
        parts.extend(f"sr@{t}={_fmt(block.per_sample_recall_at[t])}" for t in RECALL_THRESHOLDS)
    if block.f1_at is not None:
        parts.extend(f"f1@{t}={_fmt(block.f1_at[t])}" for t in TAL_THRESHOLDS)
    if block.mf1 is not None:
        parts.append(f"mf1={_fmt(block.mf1)}")
    return " ".join(parts)


def render_report(report: EvalReport) -> str:
    lines = [f"report_version={REPORT_VERSION}"]
    lines.extend(_block_line(report.blocks[task]) for task in TaskKind)
    return "\n".join(lines) + "\n"


def render_reward_record(sample: Sample, breakdown: RewardBreakdown) -> str:
    parts = [
        f"id={sample.id}",
        f"task={sample.task.value}",
        f"format={int(breakdown.format)}",
        f"loc={_fmt(breakdown.localization)}",
        f"cls={'-' if breakdown.classification is None else int(breakdown.classification)}",
        f"total={_fmt(breakdown.total)}",
    ]
    if breakdown.num is not None:
        parts.append(f"num={_fmt(breakdown.num)}")
    match = breakdown.match
    if match is not None:
        parts.append(f"siou={_fmt(match.siou)}")
        parts.append(f"f1={_fmt(match.f1)}")
        pairs = ",".join(f"{i}:{j}" for i, j in match.pairs) if match.pairs else "-"
        parts.append(f"pairs={pairs}")
    return " ".join(parts)
