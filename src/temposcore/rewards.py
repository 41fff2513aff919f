"""Localization, classification, and composite rewards.

Three correspondence types between predicted intervals and ground-truth
instances drive the localization term:

  Type 1 (one-to-one, TG/DTG)    mean IoU over positionally paired intervals
  Type 2 (many-to-one, VHD/GVQA) IoU between the merged prediction union and
                                 the merged ground-truth union
  Type 3 (many-to-many, TAL)     exp(-|n_pred - n_gt| / (min(n_gt, 3) * sigma))
                                 plus the F1 of a DP monotone matching that
                                 maximizes summed IoU

The total per-sample reward is format + localization, plus the binary
answer reward for GVQA.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .intervals import Interval, _finite_float, iou, merge, set_iou
from .parsing import ParseError, TaskKind, read

@dataclass(frozen=True)
class TalConfig:
    """Knobs for the many-to-many (TAL) reward; sigma sharpens the count penalty."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        # an infinite sigma would score every count mismatch as 1
        if _finite_float(self.sigma) is None:
            raise ValueError("sigma must be a finite number")
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching predictions to ground-truth instances.

    ``pairs`` are (pred_index, gt_index) into the chronologically sorted
    lists, strictly increasing in both coordinates; zero-IoU pairs are
    omitted from the listing (they contribute nothing to any score).
    ``siou`` is the summed IoU over matched pairs; precision and recall
    divide it by the prediction and ground-truth counts.
    """

    pairs: tuple[tuple[int, int], ...]
    pair_ious: tuple[float, ...]
    siou: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class RewardBreakdown:
    """Per-sample reward components; total = format + localization (+ classification).

    For a TAL sample whose answer block was found, ``match`` and ``num`` hold
    the two terms of the many-to-many reward (before ``tal_normalize``);
    they are None otherwise.
    """

    format: float
    localization: float
    classification: float | None
    total: float
    match: MatchResult | None = None
    num: float | None = None


def _prf(siou: float, n_pred: int, n_gt: int) -> tuple[float, float, float]:
    precision = siou / n_pred if n_pred else 0.0
    recall = siou / n_gt if n_gt else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _empty_match() -> MatchResult:
    return MatchResult(pairs=(), pair_ious=(), siou=0.0, precision=0.0, recall=0.0, f1=0.0)


def reward_type1(preds: Sequence[Interval], gts: Sequence[Interval]) -> float:
    """One-to-one reward: mean IoU over positional pairs.

    With matched counts this is the plain mean over N pairs. When the model
    emits the wrong number of intervals, pairs are formed positionally up to
    the shorter list and the sum is divided by the longer count, so missing
    or extra segments dilute the reward.
    """
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if not preds:
        return 0.0
    n = min(len(preds), len(gts))
    total = sum(iou(preds[i], gts[i]) for i in range(n))
    return total / max(len(preds), len(gts))


def reward_type2(preds: Sequence[Interval], gts: Sequence[Interval]) -> float:
    """Many-to-one reward: IoU between the merged unions of both lists."""
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if not preds:
        return 0.0
    return set_iou(merge(preds), merge(gts))


def instance_number_reward(n_pred: int, n_gt: int, sigma: float) -> float:
    """Exponential penalty on the instance-count mismatch, in (0, 1].

    exp(-|n_pred - n_gt| / (min(n_gt, 3) * sigma)); the min(n_gt, 3) keeps
    the penalty scale comparable across sparse and dense videos.
    """
    if n_gt < 1:
        raise ValueError("ground-truth instance count must be >= 1")
    if not (sigma > 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return math.exp(-abs(n_pred - n_gt) / (min(n_gt, 3) * sigma))


_Window = tuple[int, list[float]]


def _dp_table(sp: list[Interval], sg: list[Interval]) -> tuple[list[list[float]], list[_Window]]:
    """DP table of the monotone matching of two chronologically sorted lists.

    ``d[i][j]`` is the best summed IoU of the first i predictions against the
    first j ground truths. Prediction i also gets a window ``(lo, ious)``:
    ``ious[k]`` is its IoU with ground truth ``lo + k``, computed as
    :func:`iou` does, and its IoU with every ground truth outside the window
    is exactly 0.0. A non-zero IoU needs ``g.start <= p.end`` (bounded by a
    bisect on the sorted starts) and ``g.end >= p.start`` (bounded by a
    bisect on the running maximum of the ends).

    A zero cell never changes the recurrence: ``d[i-1][j-1] + 0.0`` never
    beats ``d[i-1][j]`` because rows are non-decreasing. So row i equals row
    i-1 left of the window, and right of it until the two meet again; only
    that stretch is computed, and every value is the double the full
    recurrence would give.
    """
    n = len(sg)
    g_start = [g.start for g in sg]
    g_end = [g.end for g in sg]
    reach = list(accumulate(g_end, max))
    prev = [0.0] * (n + 1)
    d = [prev]
    windows: list[_Window] = []
    for p in sp:
        ps, pe = p.start, p.end
        lo = bisect_left(reach, ps)
        hi = bisect_right(g_start, pe)
        ious: list[float] = []
        windows.append((lo, ious))
        row = prev[:]
        left = row[lo]
        for j in range(lo, hi):
            gs, ge = g_start[j], g_end[j]
            # iou(p, g) on plain floats, with min/max tie order kept
            inter = (ge if ge < pe else pe) - (gs if gs > ps else ps)
            if inter < 0.0:
                inter = 0.0
            union = (pe - ps) + (ge - gs) - inter
            if union <= 0.0:
                v = 1.0 if (ps == gs and pe == ge) else 0.0
            else:
                v = inter / union
            ious.append(v)
            best = prev[j] + v
            if best < left:
                best = left
            up = prev[j + 1]
            if best < up:
                best = up
            row[j + 1] = left = best
        for j in range(hi + 1, n + 1):
            if left <= prev[j]:
                break
            row[j] = left
        d.append(row)
        prev = row
    return d, windows


def dp_match(preds: Sequence[Interval], gts: Sequence[Interval]) -> MatchResult:
    """Monotone matching maximizing summed IoU, via dynamic programming.

    Both lists are sorted chronologically (by start, ties by end); the DP
    table follows D[i,j] = max(D[i-1,j], D[i,j-1], D[i-1,j-1] + IoU[i,j])
    and the backtrack prefers the diagonal on ties, then skipping a ground
    truth, then skipping a prediction, which makes the reported pairing
    deterministic and maximizes the number of matched pairs among
    sIoU-equal solutions. Only cells that can have a non-zero IoU are
    computed (see :func:`_dp_table`).
    """
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if not preds:
        return _empty_match()

    sp = sorted(preds)
    sg = sorted(gts)
    m, n = len(sp), len(sg)
    d, windows = _dp_table(sp, sg)

    pairs: list[tuple[int, int]] = []
    pair_ious: list[float] = []
    i, j = m, n
    while i > 0 and j > 0:
        lo, ious = windows[i - 1]
        k = j - 1 - lo
        v = ious[k] if 0 <= k < len(ious) else 0.0
        skip_pred = d[i - 1][j]
        skip_gt = d[i][j - 1]
        diag = d[i - 1][j - 1] + v
        if diag >= skip_pred and diag >= skip_gt:
            if v > 0.0:
                pairs.append((i - 1, j - 1))
                pair_ious.append(v)
            i -= 1
            j -= 1
        elif skip_gt >= skip_pred:
            j -= 1
        else:
            i -= 1
    pairs.reverse()
    pair_ious.reverse()

    siou = d[m][n]
    precision, recall, f1 = _prf(siou, m, n)
    return MatchResult(tuple(pairs), tuple(pair_ious), siou, precision, recall, f1)


def sequential_match(preds: Sequence[Interval], gts: Sequence[Interval]) -> MatchResult:
    """Naive positional matching baseline: pair (i, i) up to the shorter list."""
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if not preds:
        return _empty_match()

    sp = sorted(preds)
    sg = sorted(gts)
    pairs: list[tuple[int, int]] = []
    pair_ious: list[float] = []
    siou = 0.0
    for i in range(min(len(sp), len(sg))):
        v = iou(sp[i], sg[i])
        siou += v
        if v > 0.0:
            pairs.append((i, i))
            pair_ious.append(v)
    precision, recall, f1 = _prf(siou, len(sp), len(sg))
    return MatchResult(tuple(pairs), tuple(pair_ious), siou, precision, recall, f1)


def _tal_terms(
    preds: Sequence[Interval], gts: Sequence[Interval], cfg: TalConfig
) -> tuple[float, float, MatchResult]:
    """The many-to-many (TAL) reward, in (0, 2], with its terms: (num + match.f1, num, match)."""
    num = instance_number_reward(len(preds), len(gts), cfg.sigma)
    match = dp_match(preds, gts)
    return num + match.f1, num, match


_OPTION_SEPARATORS = ".):,;!? \t"


def _normalize_answer(text: str) -> str:
    return text.strip().casefold().rstrip(_OPTION_SEPARATORS)


def classification_reward(pred: str, gt: str) -> int:
    """Binary answer reward with light normalization.

    Both sides are trimmed, case-folded, and stripped of trailing
    punctuation. When the ground truth is a single option letter, a
    prediction that leads with that letter followed by a separator
    ("b)", "B. the dog") also counts.
    """
    if not gt.strip():
        raise ValueError("ground-truth answer must be non-empty")
    p = _normalize_answer(pred)
    g = _normalize_answer(gt)
    if p == g:
        return 1
    if len(g) == 1 and g.isalpha() and p:
        return int(p[0] == g and (len(p) == 1 or p[1] in _OPTION_SEPARATORS))
    return 0


def total_reward(
    raw: str,
    task: TaskKind,
    gts: Sequence[Interval],
    gt_answer: str | None = None,
    cfg: TalConfig = TalConfig(),
    strict: bool = False,
    tal_normalize: bool = False,
) -> RewardBreakdown:
    """Composite per-sample reward: format + localization (+ classification).

    The localization term is not gated on the format reward: whatever
    intervals can still be extracted from the tagged blocks are scored, so a
    response with the right times but the wrong arity earns partial credit.
    Only a missing block zeroes localization. ``tal_normalize`` rescales the
    TAL term by 0.5 to put it on the same [0, 1] scale as the other tasks.
    """
    if not gts:
        raise ValueError("ground truth must contain at least one interval")
    if (gt_answer is not None) != (task is TaskKind.GVQA):
        raise ValueError("gt_answer must be given exactly for GVQA samples")

    reading = read(raw, task, strict)
    fmt = 0.0 if isinstance(reading.parsed, ParseError) else 1.0
    preds = reading.intervals
    match: MatchResult | None = None
    num: float | None = None
    if preds is None:
        loc = 0.0
    elif task is TaskKind.TAL:
        loc, num, match = _tal_terms(preds, gts, cfg)
    elif task is TaskKind.TG or task is TaskKind.DTG:
        loc = reward_type1(preds, gts)
    else:
        loc = reward_type2(preds, gts)
    if task is TaskKind.TAL and tal_normalize:
        loc *= 0.5

    cls: float | None = None
    total = fmt + loc
    if task is TaskKind.GVQA:
        assert gt_answer is not None
        answer = reading.answer_text
        cls = float(classification_reward(answer, gt_answer)) if answer is not None else 0.0
        total += cls
    return RewardBreakdown(
        format=fmt, localization=loc, classification=cls, total=total, match=match, num=num
    )
