"""Independent reference scorer, written from docs/formats.md and the README.

It imports nothing from temposcore, so the benchmark's checks do not trust
the code they measure. Intervals are plain ``(start, end)`` tuples.

The lenient extractor reads a tagged block as a stream of tokens (numbers,
``to``, anything else) and keeps each ``NUMBER to NUMBER`` run. That is
linear in the text and agrees with the documented behaviour on the inputs
``gen.py`` writes; it is not meant as a second parser for arbitrary text.
"""

from __future__ import annotations

import math
import re

RECALL_THRESHOLDS = (0.3, 0.5, 0.7)
TAL_THRESHOLDS = (0.1, 0.3, 0.5, 0.7)
SIGMA = 1.0  # the CLI's default count-reward sigma, which the benchmark uses

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(rf"({_NUMBER})|(to)|\S", re.IGNORECASE)
_ENTRY_RE = re.compile(rf"\s*({_NUMBER})\s*to\s*({_NUMBER})\s*\Z", re.IGNORECASE)
_SEPARATORS = ".):,;!? \t"


# ---------------------------------------------------------------------------
# interval math


def iou(a, b) -> float:
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter < 0.0:
        inter = 0.0
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    if union <= 0.0:
        return 1.0 if a == b else 0.0
    return inter / union


def merge(xs) -> list:
    out: list = []
    for s, e in sorted(xs):
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [tuple(iv) for iv in out]


def set_iou(a, b) -> float:
    """IoU of two merged sets; two empty sets score 0."""
    i = j = 0
    inter = 0.0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            inter += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    union = sum(e - s for s, e in a) + sum(e - s for s, e in b) - inter
    if union <= 0.0:
        return 1.0 if a and a == b else 0.0
    return inter / union


def merged_iou(preds, gts) -> float:
    return set_iou(merge(preds), merge(gts)) if preds else 0.0


def positional_mean(preds, gts) -> float:
    if not preds:
        return 0.0
    n = min(len(preds), len(gts))
    return sum(iou(preds[i], gts[i]) for i in range(n)) / max(len(preds), len(gts))


def recall_at(scores, thresholds) -> dict:
    return {t: sum(1 for s in scores if s >= t) / len(scores) for t in thresholds}


def count_reward(n_pred: int, n_gt: int) -> float:
    return math.exp(-abs(n_pred - n_gt) / (min(n_gt, 3) * SIGMA))


def _prf(siou: float, m: int, n: int):
    p = siou / m if m else 0.0
    r = siou / n if n else 0.0
    return p, r, (2 * p * r / (p + r) if p + r > 0 else 0.0)


def dp_match(preds, gts):
    """Monotone matching maximizing summed IoU over chronologically sorted lists.

    Ties prefer the diagonal, then skipping a ground truth, then skipping a
    prediction. Returns (pairs, pair_ious, siou, precision, recall, f1);
    zero-IoU pairs are not listed.
    """
    if not preds:
        return (), (), 0.0, 0.0, 0.0, 0.0
    sp, sg = sorted(preds), sorted(gts)
    m, n = len(sp), len(sg)
    prev = [0.0] * (n + 1)
    moves = []
    for i in range(m):
        cur = [0.0] * (n + 1)
        row = bytearray(n + 1)
        p = sp[i]
        for j in range(n):
            diag = prev[j] + iou(p, sg[j])
            up, left = prev[j + 1], cur[j]
            if diag >= up and diag >= left:
                cur[j + 1], row[j + 1] = diag, 2
            elif left >= up:
                cur[j + 1], row[j + 1] = left, 1
            else:
                cur[j + 1] = up
        moves.append(row)
        prev = cur
    pairs, ious = [], []
    i, j = m, n
    while i > 0 and j > 0:
        move = moves[i - 1][j]
        if move == 2:
            v = iou(sp[i - 1], sg[j - 1])
            if v > 0.0:
                pairs.append((i - 1, j - 1))
                ious.append(v)
            i, j = i - 1, j - 1
        elif move == 1:
            j -= 1
        else:
            i -= 1
    siou = prev[n]
    return (tuple(reversed(pairs)), tuple(reversed(ious)), siou) + _prf(siou, m, n)


def sequential_siou(preds, gts) -> float:
    sp, sg = sorted(preds), sorted(gts)
    return sum(iou(sp[i], sg[i]) for i in range(min(len(sp), len(sg))))


def normalize_answer(text: str) -> str:
    return text.strip().casefold().rstrip(_SEPARATORS)


def answer_correct(pred: str | None, gt: str) -> int:
    if pred is None:
        return 0
    p, g = normalize_answer(pred), normalize_answer(gt)
    if p == g:
        return 1
    if len(g) == 1 and g.isalpha() and p:
        return int(p[0] == g and (len(p) == 1 or p[1] in _SEPARATORS))
    return 0


# ---------------------------------------------------------------------------
# reading responses


def last_block(raw: str, tag: str) -> str | None:
    """Content of the last ``<tag>...</tag>`` block, shortest match per block."""
    open_t, close_t = f"<{tag}>", f"</{tag}>"
    found, pos = None, 0
    while True:
        i = raw.find(open_t, pos)
        if i < 0:
            return found
        j = raw.find(close_t, i + len(open_t))
        if j < 0:
            return found
        found, pos = raw[i + len(open_t):j], j + len(close_t)


def _interval(s: str, e: str):
    start, end = float(s), float(e)
    if not (math.isfinite(start) and math.isfinite(end)) or end < start:
        return None
    return (start, end)


def lenient_intervals(raw: str, task: str):
    """Every well-formed pair in the last relevant block; None if it is absent."""
    block = last_block(raw, "glue" if task == "GVQA" else "answer")
    if block is None:
        return None
    tokens = [(m.group(1), m.group(2)) for m in _TOKEN_RE.finditer(block)]
    out, k = [], 0
    while k + 2 < len(tokens):
        (a, _), (_, to), (b, _) = tokens[k:k + 3]
        if a and to and b:
            iv = _interval(a, b)
            if iv is not None:
                out.append(iv)
            k += 3
        else:
            k += 1
    return out


def answer_text(raw: str) -> str | None:
    block = last_block(raw, "answer")
    if block is None or not block.strip():
        return None
    return block.strip()


def _strict_list(content: str):
    if content.strip() == "":
        return [], None
    out = []
    for chunk in content.split(","):
        m = _ENTRY_RE.match(chunk)
        if m is None:
            return None, "bad_timestamp"
        start, end = float(m.group(1)), float(m.group(2))
        if end < start:
            return None, "invalid_interval"
        if not (math.isfinite(start) and math.isfinite(end)):
            return None, "bad_timestamp"
        out.append((start, end))
    return out, None


def parse_reason(raw: str, task: str) -> str | None:
    """The documented failure reason of a tolerant parse, or None if it parses."""
    answer = last_block(raw, "answer")
    if answer is None:
        return "missing_tags"
    if task == "GVQA":
        glue = last_block(raw, "glue")
        if glue is None:
            return "missing_tags"
        if not answer.strip():
            return "wrong_arity"
        return _strict_list(glue)[1]
    ivs, reason = _strict_list(answer)
    if reason:
        return reason
    if (task == "TG" and len(ivs) != 1) or not ivs:
        return "wrong_arity"
    return None


# ---------------------------------------------------------------------------
# whole records


def reward_record(raw: str, task: str, gts, gt_answer: str | None) -> dict:
    """The values of one `temposcore reward` line, as floats and ints."""
    fmt = 0 if parse_reason(raw, task) else 1
    preds = lenient_intervals(raw, task)
    rec = {"format": fmt, "cls": None}
    if preds is None:
        loc = 0.0
    elif task in ("TG", "DTG"):
        loc = positional_mean(preds, gts)
    elif task in ("VHD", "GVQA"):
        loc = merged_iou(preds, gts)
    else:
        pairs, _, siou, _, _, f1 = dp_match(preds, gts)
        num = count_reward(len(preds), len(gts))
        loc = num + f1
        rec.update(num=num, siou=siou, f1=f1, pairs=pairs,
                   seq_siou=sequential_siou(preds, gts) if preds else 0.0)
    total = fmt + loc
    if task == "GVQA":
        rec["cls"] = answer_correct(answer_text(raw), gt_answer)
        total += rec["cls"]
    rec.update(loc=loc, total=total)
    return rec


def eval_report(samples) -> dict:
    """Per-task report values for (task, raw, gts, gt_answer) samples."""
    by_task: dict = {t: [] for t in ("TG", "DTG", "VHD", "GVQA", "TAL")}
    for s in samples:
        by_task[s[0]].append(s)
    report = {}
    for task, rows in by_task.items():
        block = {"n_samples": len(rows), "n_parse_failures": 0}
        report[task] = block
        if not rows:
            continue
        scores, units, correct = [], [], []
        f1s = {t: [] for t in TAL_THRESHOLDS}
        for _, raw, gts, gt_answer in rows:
            block["n_parse_failures"] += parse_reason(raw, task) is not None
            preds = lenient_intervals(raw, task) or []
            if task == "TG":
                scores.append(iou(preds[0], gts[0]) if preds else 0.0)
            elif task == "DTG":
                scores.append(positional_mean(preds, gts))
                units.extend(iou(preds[i], g) if i < len(preds) else 0.0
                             for i, g in enumerate(gts))
            elif task in ("VHD", "GVQA"):
                scores.append(merged_iou(preds, gts))
                if task == "GVQA":
                    correct.append(answer_correct(answer_text(raw), gt_answer))
            else:
                ious = dp_match(preds, gts)[1]
                for t in TAL_THRESHOLDS:
                    tp = sum(1 for v in ious if v >= t)
                    f1s[t].append(_prf(tp, len(preds), len(gts))[2])
        if task == "TAL":
            for t in TAL_THRESHOLDS:
                block[f"f1@{t}"] = sum(f1s[t]) / len(rows)
            block["mf1"] = sum(block[f"f1@{t}"] for t in TAL_THRESHOLDS) / len(TAL_THRESHOLDS)
            continue
        if task == "GVQA":
            block["accuracy"] = sum(correct) / len(rows)
        block["miou"] = sum(scores) / len(rows)
        for t, v in recall_at(units if task == "DTG" else scores, RECALL_THRESHOLDS).items():
            block[f"r@{t}"] = v
        if task == "DTG":
            for t, v in recall_at(scores, RECALL_THRESHOLDS).items():
                block[f"sr@{t}"] = v
    return report


def self_check() -> None:
    """The hand-computed `tal-a` record of docs/formats.md."""
    rec = reward_record("<answer>0.0 to 4.0, 6.0 to 10.0</answer>", "TAL", [(2.0, 8.0)], None)
    got = (f"format={rec['format']} loc={rec['loc']:.4f} total={rec['total']:.4f} "
           f"num={rec['num']:.4f} siou={rec['siou']:.4f} f1={rec['f1']:.4f} "
           f"pairs={','.join(f'{i}:{j}' for i, j in rec['pairs'])}")
    want = "format=1 loc=0.5345 total=1.5345 num=0.3679 siou=0.2500 f1=0.1667 pairs=1:0"
    if got != want:
        raise AssertionError(f"reference scorer disagrees with docs/formats.md: {got}")
