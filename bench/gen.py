"""Seeded input generators for the three benchmark workloads.

Every input is a pure function of the seed, built without importing
temposcore, so the inputs stay the same bytes whatever the program under
test does. Each generator also returns a ``plan``: what it planted per line
(the ground truth, whether the line is well-formed, the parse-failure reason
it expects), which the checks compare the program's outputs against.

Shares that drive the amount of work (task mix, instance counts, dropped and
extra predictions, prose and digit-run lengths) are fixed multisets whose
order the seed shuffles. So every seed asks for nearly the same work, and
run-to-run spread comes from the machine, not from the draw.
"""

from __future__ import annotations

import json
import random

TASKS = ("TG", "DTG", "VHD", "GVQA", "TAL")
OPTIONS = ("A", "B", "C", "D")

# eval-mixed
EVAL_PER_TASK = 20_000
# degradations, after scripts/make_fixtures.py plus one bad-timestamp kind
JITTER, WRONG_COUNT, NOISE, INVERTED, GARBAGE, PERFECT, BAD_TS = range(7)

# reward-dense
REWARD_TASK_LINES = {"TG": 120, "DTG": 120, "VHD": 120, "GVQA": 120, "TAL": 720}
REWARD_COLLAPSE_EVERY = 200  # one degenerate digit run per this many lines
COLLAPSE_DIGITS = (200, 300, 400, 500, 600, 700, 800)
REWARD_TIE_EVERY = 40  # one TAL line in this many is built of exact IoU ties

# simulate-multitask
SIM_STEPS = 300
SIM_DURATION = 300.0
SIM_GRID_STEP = 10.0


def fmt_ts(x: float) -> str:
    """Timestamps as docs/formats.md serializes them: Python float repr."""
    return repr(float(x))


def body(intervals) -> str:
    return ", ".join(f"{fmt_ts(s)} to {fmt_ts(e)}" for s, e in intervals)


def template(task: str, intervals, answer: str | None) -> str:
    if task == "GVQA":
        return f"<answer>{answer}</answer><glue>{body(intervals)}</glue>"
    return f"<answer>{body(intervals)}</answer>"


def stratified(rng: random.Random, values, n: int) -> list:
    """n values cycling through ``values``, in a seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def segments(rng: random.Random, duration: float, n: int):
    """n sorted, disjoint segments with >= 1 s gaps at 0.1 s resolution."""
    out = []
    cursor = 0.0
    for k in range(n):
        remaining = n - k
        max_start = duration - remaining * 3.0
        start = round(rng.uniform(cursor + 1.0, max(cursor + 1.0, max_start)), 1)
        limit = min(15.0, duration - start - (remaining - 1) * 3.0)
        length = round(rng.uniform(1.0, max(limit, 1.0)), 1)
        end = round(start + max(length, 1.0), 1)
        out.append((start, end))
        cursor = end + 1.0
    return out


def spread_segments(rng: random.Random, duration: float, n: int):
    """n sorted, disjoint segments spread over the whole of a long video."""
    slot = duration / n
    out = []
    for k in range(n):
        lo = k * slot
        length = round(rng.uniform(0.2, 0.7) * slot, 1)
        start = round(lo + rng.uniform(0.05, 0.25) * slot, 1)
        out.append((start, round(start + max(length, 1.0), 1)))
    return out


def jitter(iv, rng: random.Random, duration: float, amount: float):
    shift = round(rng.uniform(-amount, amount), 1)
    start = min(max(iv[0] + shift, 0.0), duration)
    end = min(max(iv[1] + shift, start), duration)
    return (round(start, 1), round(end, 1))


def _record(line_id, task, duration, gts, prediction, answer):
    rec = {"id": line_id, "task": task, "duration": duration,
           "gt_intervals": [list(iv) for iv in gts], "prediction": prediction}
    if task == "GVQA":
        rec["gt_answer"] = answer
    return rec


# ---------------------------------------------------------------------------
# eval-mixed: about 100k short responses, equal shares of the five tasks


def _eval_gt_count(task: str, rng: random.Random) -> int:
    if task == "TG":
        return 1
    if task == "GVQA":
        return rng.randint(1, 2)
    if task == "VHD":
        return rng.randint(1, 3)
    return rng.randint(2, 4)


def _degrade(task, gts, duration, answer, kind, rng):
    """One short response of the given kind, and the parse failure it plants."""
    if kind == JITTER:
        return template(task, [jitter(iv, rng, duration, 4.0) for iv in gts], answer), None
    if kind == WRONG_COUNT:
        ivs = gts[:-1] if len(gts) > 1 else gts + [gts[0]]
        if task == "TG":
            return template(task, gts + [gts[0]], answer), "wrong_arity"
        return template(task, ivs, answer), None
    if kind == NOISE:
        if task == "GVQA":
            wrong = OPTIONS[(OPTIONS.index(answer) + 1) % len(OPTIONS)]
            return template(task, gts, wrong), None
        good = template(task, gts, None)
        return f"let me think about the video first. {good} that is my answer.", None
    if kind == INVERTED:
        s, e = gts[0]
        reason = "missing_tags" if task == "GVQA" else "invalid_interval"
        return f"<answer>{fmt_ts(e)} to {fmt_ts(s)}</answer>", reason
    if kind == GARBAGE:
        return "the highlight happens around the middle of the video", "missing_tags"
    if kind == BAD_TS:
        s, e = gts[0]
        ts = f"{fmt_ts(s)}s to {fmt_ts(e)}s"
        if task == "GVQA":
            return f"<answer>{answer}</answer><glue>{ts}</glue>", "bad_timestamp"
        return f"<answer>{ts}</answer>", "bad_timestamp"
    return template(task, gts, answer), None


def eval_mixed(seed: int):
    rng = random.Random(f"eval-mixed:{seed}")
    lines, plan = [], []
    for task in TASKS:
        kinds = stratified(rng, list(range(7)), EVAL_PER_TASK)
        for i, kind in enumerate(kinds):
            duration = float(rng.randrange(60, 181, 10))
            gts = segments(rng, duration, _eval_gt_count(task, rng))
            answer = rng.choice(OPTIONS) if task == "GVQA" else None
            prediction, reason = _degrade(task, gts, duration, answer, kind, rng)
            line_id = f"{task.lower()}-{i:06d}"
            lines.append(_record(line_id, task, duration, gts, prediction, answer))
            plan.append({"task": task, "reason": reason})
    order = list(range(len(lines)))
    rng.shuffle(order)
    return [lines[k] for k in order], [plan[k] for k in order]


# ---------------------------------------------------------------------------
# reward-dense: long videos, long responses, dense instance lists

_WORDS = (
    "the person walks toward the door then turns around and picks up a cup "
    "camera pans left while someone speaks near the window a dog runs across "
    "the yard before the scene cuts to a kitchen where water boils on a stove "
    "I think the action starts when the hand reaches the handle and ends once "
    "the door closes so the relevant moments are probably these"
).split()


def _prose(rng: random.Random, n_bytes: int, duration: float) -> str:
    """Reasoning text of about n_bytes with stray timestamps, free of tags."""
    parts, size = [], 0
    while size < n_bytes:
        if rng.random() < 0.08:
            s = round(rng.uniform(0.0, duration - 10.0), 1)
            w = f"around {fmt_ts(s)} to {fmt_ts(round(s + rng.uniform(1.0, 9.0), 1))} seconds"
        else:
            w = rng.choice(_WORDS)
        parts.append(w)
        size += len(w) + 1
    return " ".join(parts) + ". "


def _dense_prediction(rng, gts, duration, n_drop, n_extra):
    keep = sorted(rng.sample(range(len(gts)), len(gts) - n_drop))
    preds = [jitter(gts[k], rng, duration, 0.3 * (gts[k][1] - gts[k][0]) + 1.0) for k in keep]
    for _ in range(n_extra):
        s = round(rng.uniform(0.0, duration - 20.0), 1)
        preds.append((s, round(s + rng.uniform(2.0, 20.0), 1)))
    preds.sort()
    return preds


def reward_dense(seed: int):
    rng = random.Random(f"reward-dense:{seed}")
    tasks = []
    for task in TASKS:
        tasks.extend([task] * REWARD_TASK_LINES[task])
    rng.shuffle(tasks)
    n = len(tasks)
    dense_counts = stratified(rng, list(range(10, 41)), n)
    prose_bytes = stratified(rng, [1024 * k for k in (1, 2, 3, 4)], n)
    durations = stratified(rng, [600.0 * k for k in range(1, 7)], n)
    # GVQA answer blocks hold text, so the digit runs go to the other tasks
    with_block = [i for i, task in enumerate(tasks) if task != "GVQA"]
    collapse_at = {
        i: COLLAPSE_DIGITS[k % len(COLLAPSE_DIGITS)]
        for k, i in enumerate(rng.sample(with_block, n // REWARD_COLLAPSE_EVERY))
    }
    tal_lines = [i for i, task in enumerate(tasks) if task == "TAL"]
    tie_lines = set(rng.sample(tal_lines, len(tal_lines) // REWARD_TIE_EVERY))
    lines, plan = [], []
    counters = {t: 0 for t in TASKS}
    for i, task in enumerate(tasks):
        duration = durations[i]
        if task == "TG":
            gts = spread_segments(rng, duration, 1)
        elif task == "GVQA":
            gts = spread_segments(rng, duration, 1 + i % 3)
        else:
            gts = spread_segments(rng, duration, dense_counts[i])
        answer = rng.choice(OPTIONS) if task == "GVQA" else None
        if task in ("TG", "GVQA"):
            preds = [jitter(iv, rng, duration, 0.3 * (iv[1] - iv[0]) + 1.0) for iv in gts]
        elif i in tie_lines:
            # whole seconds keep the arithmetic exact: (s-1, s+2) and (e-2, e+1)
            # overlap [s, e] equally, so only the DP's tie rule picks the match
            gts = [(float(round(a)), float(round(b))) for a, b in gts]
            preds = sorted(p for a, b in gts for p in ((a - 1, a + 2), (b - 2, b + 1)))
        else:
            k = len(gts)
            preds = _dense_prediction(rng, gts, duration, k // 8, k // 6)
        if task == "GVQA" and i % 4 == 0:  # a wrong answer in one GVQA line of four
            answer_said = OPTIONS[(OPTIONS.index(answer) + 1) % len(OPTIONS)]
        else:
            answer_said = answer
        block = template(task, preds, answer_said)
        digits = collapse_at.get(i)
        if digits:
            block = block[: -len("</answer>")] + ", " + str(1 + i % 9) * digits + "</answer>"
        prediction = _prose(rng, prose_bytes[i], duration) + block
        line_id = f"{task.lower()}-{counters[task]:05d}"
        counters[task] += 1
        lines.append(_record(line_id, task, duration, gts, prediction, answer))
        plan.append({"task": task, "well_formed": not digits})
    return lines, plan


# ---------------------------------------------------------------------------
# simulate-multitask: one prompt per task on a 300 s grid


def _grid_segments(rng: random.Random, n: int):
    """n disjoint ground truths on the 10 s grid, at least one cell apart."""
    cells = int(SIM_DURATION / SIM_GRID_STEP)
    while True:
        starts = sorted(rng.sample(range(cells - 2), n))
        ivs = [(s, s + rng.randint(1, 3)) for s in starts]
        if all(b[0] > a[1] for a, b in zip(ivs, ivs[1:])) and ivs[-1][1] <= cells:
            return [(a * SIM_GRID_STEP, b * SIM_GRID_STEP) for a, b in ivs]


def simulate_scenario(seed: int):
    rng = random.Random(f"simulate-multitask:{seed}")
    counts = {"TG": 1, "DTG": 2, "VHD": 2, "GVQA": 1, "TAL": 3}
    # the merged-union rewards (VHD, GVQA) leave the count free, so their count
    # heads get few choices: otherwise the work per step depends on the seed
    max_instances = {"TG": 1, "DTG": 3, "VHD": 2, "GVQA": 1, "TAL": 6}
    prompts = []
    for task in TASKS:
        p = {"task": task, "duration": SIM_DURATION, "grid_step": SIM_GRID_STEP,
             "max_instances": max_instances[task],
             "gt_intervals": [list(iv) for iv in _grid_segments(rng, counts[task])]}
        if task == "GVQA":
            p["options"] = list(OPTIONS)
            p["gt_answer"] = rng.choice(OPTIONS)
        prompts.append(p)
    scenario = {"name": f"multitask_{seed}", "prompts": prompts}
    return scenario, {"steps": SIM_STEPS, "tal_gt_count": counts["TAL"],
                      "n_prompts": len(prompts)}


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
