"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from temposcore import EvalReport, Interval, MatchResult, iou
from temposcore.grpo import Params, SampledResponse

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
