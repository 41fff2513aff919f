"""Shared helpers for the test suite."""

from __future__ import annotations

import re
from itertools import combinations
from typing import Sequence

import numpy as np

from temposcore import (
    EvalReport,
    Interval,
    MatchResult,
    ParsedOutput,
    ParseError,
    ParseFailure,
    TaskKind,
    iou,
)
from temposcore.grpo import Params, SampledResponse
from temposcore.parsing import _PAIR_RE, _parse_interval_list
from temposcore.rewards import _empty_match, _prf, _sorted_chrono

GARBAGE_PREDICTION = "uh, somewhere near the start probably??"


def collect_metrics(report: EvalReport) -> dict[str, float]:
    """Flatten every numeric metric in a report into one name -> value map."""
    out: dict[str, float] = {}
    for task, block in report.blocks.items():
        prefix = task.value
        for name in ("miou", "accuracy", "mf1"):
            value = getattr(block, name)
            if value is not None:
                out[f"{prefix}.{name}"] = value
        for attr in ("recall_at", "per_sample_recall_at", "f1_at"):
            mapping = getattr(block, attr)
            if mapping:
                for t, v in mapping.items():
                    out[f"{prefix}.{attr}@{t}"] = v
    return out


def dense_dp_match(preds: Sequence[Interval], gts: Sequence[Interval]) -> MatchResult:
    """Reference monotone matching: the full O(m*n) DP with an explicit path table.

    This is the original form of :func:`temposcore.dp_match`, kept as an
    oracle: it computes every IoU cell and records each cell's choice
    (diagonal on ties, then skip a ground truth, then skip a prediction).
    """
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if not preds:
        return MatchResult(pairs=(), pair_ious=(), siou=0.0, precision=0.0, recall=0.0, f1=0.0)

    sp = sorted(preds, key=lambda iv: (iv.start, iv.end))
    sg = sorted(gts, key=lambda iv: (iv.start, iv.end))
    m, n = len(sp), len(sg)
    ious = [[iou(p, g) for g in sg] for p in sp]

    d = [[0.0] * (n + 1) for _ in range(m + 1)]
    # choice codes: 2 = diagonal (match), 1 = skip gt, 0 = skip pred
    path = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            skip_pred = d[i - 1][j]
            skip_gt = d[i][j - 1]
            diag = d[i - 1][j - 1] + ious[i - 1][j - 1]
            if diag >= skip_pred and diag >= skip_gt:
                d[i][j] = diag
                path[i][j] = 2
            elif skip_gt >= skip_pred:
                d[i][j] = skip_gt
                path[i][j] = 1
            else:
                d[i][j] = skip_pred
                path[i][j] = 0

    pairs: list[tuple[int, int]] = []
    pair_ious: list[float] = []
    i, j = m, n
    while i > 0 and j > 0:
        if path[i][j] == 2:
            if ious[i - 1][j - 1] > 0.0:
                pairs.append((i - 1, j - 1))
                pair_ious.append(ious[i - 1][j - 1])
            i -= 1
            j -= 1
        elif path[i][j] == 1:
            j -= 1
        else:
            i -= 1
    pairs.reverse()
    pair_ious.reverse()

    siou = d[m][n]
    precision = siou / m
    recall = siou / n
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MatchResult(tuple(pairs), tuple(pair_ious), siou, precision, recall, f1)


def choice_sample(logps: Params, rng: np.random.Generator) -> SampledResponse:
    """Reference sampler: one ``rng.choice`` per head draw.

    This is the original form of :meth:`temposcore.ToyPolicy.sample`, kept
    as an oracle for the group sampler, which builds each head's CDF once.
    """
    count = 1 + int(rng.choice(len(logps["count"]), p=np.exp(logps["count"])))
    slots = tuple(
        int(rng.choice(logps["slots"].shape[1], p=np.exp(logps["slots"][s])))
        for s in range(count)
    )
    answer = None
    if "answer" in logps:
        answer = int(rng.choice(len(logps["answer"]), p=np.exp(logps["answer"])))
    return SampledResponse(slots=slots, answer=answer)


BRUTE_FORCE_LIMIT = 8


def _iou_matrix(preds: list[Interval], gts: list[Interval]) -> list[list[float]]:
    return [[iou(p, g) for g in gts] for p in preds]


def brute_force_match(preds: Sequence[Interval], gts: Sequence[Interval]) -> MatchResult:
    """Exhaustive monotone-matching oracle for small instances.

    Enumerates every monotone matching (each way of choosing k predictions
    and k ground truths, paired in order) and returns the sIoU-maximal one.
    Deliberately avoids the DP recurrence so it can serve as an independent
    check of :func:`dp_match`. Refuses lists longer than 8.
    """
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if len(preds) > BRUTE_FORCE_LIMIT or len(gts) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_LIMIT} intervals per side")
    if not preds:
        return _empty_match()

    sp = _sorted_chrono(preds)
    sg = _sorted_chrono(gts)
    m, n = len(sp), len(sg)
    ious = _iou_matrix(sp, sg)

    best_siou = 0.0
    best: tuple[tuple[int, int], ...] = ()
    for k in range(1, min(m, n) + 1):
        for pk in combinations(range(m), k):
            for gk in combinations(range(n), k):
                s = sum(ious[i][j] for i, j in zip(pk, gk))
                if s > best_siou:
                    best_siou = s
                    best = tuple(zip(pk, gk))

    pairs = tuple((i, j) for i, j in best if ious[i][j] > 0.0)
    pair_ious = tuple(ious[i][j] for i, j in pairs)
    precision, recall, f1 = _prf(best_siou, m, n)
    return MatchResult(pairs, pair_ious, best_siou, precision, recall, f1)


# ---------------------------------------------------------------------------
# Regex readers: the original block finding of temposcore.parsing, kept as
# oracles for parsing.read. Each findall retries every later opening tag
# when no closing tag follows, so these take quadratic time on unclosed tags.

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_GLUE_RE = re.compile(r"<glue>(.*?)</glue>", re.DOTALL)

_STRICT_SINGLE_RE = re.compile(r"\A\s*<answer>(.*?)</answer>\s*\Z", re.DOTALL)
_STRICT_GVQA_RE = re.compile(
    r"\A\s*<answer>(.*?)</answer>\s*<glue>(.*?)</glue>\s*\Z", re.DOTALL
)

_MIN_INTERVALS = {
    TaskKind.TG: 1,
    TaskKind.DTG: 1,
    TaskKind.VHD: 1,
    TaskKind.TAL: 1,
    TaskKind.GVQA: 0,
}


def _blocks(raw: str, task: TaskKind, strict: bool) -> tuple[str, str | None]:
    """Locate the answer block content and, for GVQA, the glue block content."""
    if strict:
        pattern = _STRICT_GVQA_RE if task is TaskKind.GVQA else _STRICT_SINGLE_RE
        m = pattern.match(raw)
        if m is None:
            raise ParseError(
                ParseFailure.MISSING_TAGS, "output does not match the exact task template"
            )
        return (m.group(1), m.group(2)) if task is TaskKind.GVQA else (m.group(1), None)

    answers = _ANSWER_RE.findall(raw)
    if not answers:
        raise ParseError(ParseFailure.MISSING_TAGS, "no <answer> block found")
    if task is not TaskKind.GVQA:
        return answers[-1], None
    glues = _GLUE_RE.findall(raw)
    if not glues:
        raise ParseError(ParseFailure.MISSING_TAGS, "no <glue> block found")
    return answers[-1], glues[-1]


def regex_parse(raw: str, task: TaskKind, strict: bool = False) -> ParsedOutput:
    """Parse a raw model response against its task template.

    Returns a :class:`ParsedOutput` whose interval count satisfies the task
    arity; raises :class:`ParseError` with a reason otherwise. Never raises
    anything else, regardless of input.
    """
    answer, glue = _blocks(raw, task, strict)

    if task is TaskKind.GVQA:
        text = answer.strip()
        if not text:
            raise ParseError(ParseFailure.WRONG_ARITY, "GVQA answer text is empty")
        assert glue is not None
        return ParsedOutput(intervals=_parse_interval_list(glue), answer_text=text)

    intervals = _parse_interval_list(answer)
    if task is TaskKind.TG and len(intervals) != 1:
        raise ParseError(
            ParseFailure.WRONG_ARITY, f"TG requires exactly one interval, got {len(intervals)}"
        )
    if len(intervals) < _MIN_INTERVALS[task]:
        raise ParseError(ParseFailure.WRONG_ARITY, f"{task.value} requires at least one interval")
    return ParsedOutput(intervals=intervals)


def regex_extract_intervals(raw: str, task: TaskKind) -> tuple[Interval, ...] | None:
    """Lenient interval extraction for partial-credit scoring.

    Returns None when the relevant tag block is absent (a hard parse
    failure); otherwise returns every well-formed pair found inside it, in
    textual order, skipping inverted or non-finite pairs. Arity is ignored.
    """
    block_re = _GLUE_RE if task is TaskKind.GVQA else _ANSWER_RE
    blocks = block_re.findall(raw)
    if not blocks:
        return None
    out: list[Interval] = []
    for s, e in _PAIR_RE.findall(blocks[-1]):
        try:
            iv = Interval(float(s), float(e))
        except ValueError:
            continue
        out.append(iv)
    return tuple(out)


def regex_extract_answer_text(raw: str) -> str | None:
    """Lenient answer-text extraction: last answer block, stripped, or None."""
    answers = _ANSWER_RE.findall(raw)
    if not answers:
        return None
    text = answers[-1].strip()
    return text if text else None
