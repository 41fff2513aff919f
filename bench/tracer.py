"""Span tracing of temposcore from the outside, for the per-layer metrics.

``install`` wraps every public function and public method of the package's
modules. Modules import names with ``from .x import y``, so each wrapper
replaces the original in every module namespace that holds it (and in
module-level dispatch dicts such as ``evaluation._EVALUATORS``), not only in
the defining module.

Each wrapped call records a span (name, start, end, parent) in memory. Two
hot leaves are folded instead, to keep the trace small: a call to
``intervals.iou`` adds its count and time to the span it was called from,
and ``Interval`` construction is only counted. ``Tracer.write`` saves the
spans as JSONL; ``derive`` reads such a file back and computes self times
and the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import time
from array import array

MODULES = ("intervals", "parsing", "rewards", "evaluation", "records", "grpo", "cli")
FOLDED = {"intervals.iou"}
REASONS = ("missing_tags", "bad_timestamp", "wrong_arity", "invalid_interval")


class Tracer:
    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.folded: dict[int, dict[str, list]] = {}
        self.attrs: dict[int, dict] = {}
        self.stack = [-1]
        self.interval_count = itertools.count()
        self.t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, on_enter=None, on_exit=None):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, attrs, clock = self.stack, self.attrs, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            if on_enter is not None:
                attrs[sid] = on_enter(args)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                reason = getattr(exc, "reason", None)
                if reason is not None:
                    attrs.setdefault(sid, {})["error"] = getattr(reason, "value", str(reason))
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_exit is not None:
                result = on_exit(sid, result)
            return result

        return wrapper

    def folded_leaf(self, name: str, fn):
        folded, stack, clock = self.folded, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t
                cell = folded.setdefault(stack[-1], {}).setdefault(name, [0, 0.0])
                cell[0] += 1
                cell[1] += dt

        return wrapper

    # -- hooks that record counts at the boundary --------------------------

    def _hooks(self, name: str):
        attrs = self.attrs
        if name == "rewards.dp_match":
            return {"on_enter": lambda a: {"cells": len(a[0]) * len(a[1])}}
        if name == "grpo.group_advantages":
            def nonconstant(sid, result):
                attrs[sid] = {"nonconstant": int(any(v != 0.0 for v in result))}
                return result
            return {"on_exit": nonconstant}
        if name == "grpo.load_scenario":
            def grid(sid, result):
                attrs[sid] = {"grid_candidates": sum(len(p.grid) for p in result.prompts)}
                return result
            return {"on_exit": grid}
        if name == "grpo.standard_reward_fn":
            return {"on_exit": lambda sid, fn: self.span("grpo.reward_fn", fn)}
        return {}

    def install(self, package) -> None:
        """Wrap the public functions and methods of ``package``'s modules."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        originals: dict[int, object] = {}
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for m_name, m in list(vars(obj).items()):
                        if not m_name.startswith("_") and inspect.isfunction(m):
                            setattr(obj, m_name, self._wrap(f"{short}.{attr}.{m_name}", m))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals:
                    setattr(mod, attr, originals[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for k, v in list(obj.items()):
                        if id(v) in originals:
                            obj[k] = originals[id(v)]
        interval = package.intervals.Interval
        post_init, counter = interval.__post_init__, self.interval_count

        def counted_post_init(iv):
            next(counter)
            post_init(iv)

        interval.__post_init__ = counted_post_init

    def _wrap(self, name: str, fn):
        if name in FOLDED:
            return self.folded_leaf(name, fn)
        return self.span(name, fn, **self._hooks(name))

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        names = {i: json.dumps(n) for n, i in self.name_ids.items()}
        t0 = self.t0
        with open(path, "w", encoding="utf-8") as f:
            for sid in range(len(self.name)):
                line = (f'{{"id": {sid}, "name": {names[self.name[sid]]}, '
                        f'"start": {self.start[sid] - t0!r}, "end": {self.end[sid] - t0!r}, '
                        f'"parent": {self.parent[sid]}')
                if sid in self.folded:
                    line += f', "folded": {json.dumps(self.folded[sid])}'
                if sid in self.attrs:
                    line += f', "attrs": {json.dumps(self.attrs[sid])}'
                f.write(line + "}\n")
            # construction counts and leaves called outside any span
            f.write(json.dumps({"id": -1, "name": "counters", "folded": self.folded.get(-1, {}),
                                "attrs": {"intervals.Interval": next(self.interval_count)}})
                    + "\n")


# ---------------------------------------------------------------------------
# deriving per-layer metrics from a trace file


def derive(path: str, responses: int, tal_samples: int, untraced_main_s: float) -> dict:
    """Per-layer metrics from a JSONL trace.

    ``responses`` is the number of responses the command scored and
    ``tal_samples`` how many of them were TAL; both come from the workload's
    plan. ``untraced_main_s`` is the same command's median untraced wall time.
    """
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    durations: dict[str, list] = {}
    child_sum: dict[int, float] = {}
    spans = []
    counters = {}
    leaf_calls: dict[str, int] = {}
    leaf_time: dict[str, float] = {}
    failures = dict.fromkeys(REASONS, 0)
    cells = nonconstant = groups = grid = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            for leaf, (n, t) in rec.get("folded", {}).items():
                leaf_calls[leaf] = leaf_calls.get(leaf, 0) + n
                leaf_time[leaf] = leaf_time.get(leaf, 0.0) + t
                if rec["id"] >= 0:
                    child_sum[rec["id"]] = child_sum.get(rec["id"], 0.0) + t
            if rec["id"] < 0:
                counters = rec["attrs"]
                continue
            dur = rec["end"] - rec["start"]
            spans.append((rec["id"], rec["name"], dur))
            if rec["parent"] >= 0:
                child_sum[rec["parent"]] = child_sum.get(rec["parent"], 0.0) + dur
            attrs = rec.get("attrs", {})
            if "error" in attrs:
                failures[attrs["error"]] += 1
            cells += attrs.get("cells", 0)
            if "nonconstant" in attrs:
                groups += 1
                nonconstant += attrs["nonconstant"]
            grid += attrs.get("grid_candidates", 0)
    for sid, name, dur in spans:
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child_sum.get(sid, 0.0)
        if name == "rewards.total_reward":
            durations.setdefault(name, []).append(dur)
    for leaf in leaf_calls:
        calls[leaf] = leaf_calls[leaf]
        incl[leaf] = self_t[leaf] = leaf_time[leaf]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    def own(name):
        return self_t.get(name, 0.0)

    reward_ms = sorted(d * 1000.0 for d in durations.get("rewards.total_reward", []))
    steps = c("grpo.grpo_step")
    main_s = s("cli.main")
    m = {
        "records.load_s": (s("records.load_dataset"), "s"),
        "records.render_s": (s("records.render_report") + s("records.render_reward_record"), "s"),
        "intervals.Interval.count": (counters.get("intervals.Interval", 0), "count"),
        "parsing.parse.calls": (c("parsing.parse"), "count"),
        "parsing.parse.self_s": (own("parsing.parse"), "s"),
        "parsing.extract_intervals.calls": (c("parsing.extract_intervals"), "count"),
        "parsing.extract_intervals.self_s": (own("parsing.extract_intervals"), "s"),
        "parsing.extract_answer_text.calls": (c("parsing.extract_answer_text"), "count"),
        "parsing.serialize.self_s": (own("parsing.serialize"), "s"),
    }
    for reason in REASONS:
        m[f"parsing.failures.{reason}"] = (failures[reason], "count")
    scans = c("parsing.parse") + c("parsing.extract_intervals") + c("parsing.extract_answer_text")
    m["parsing.scans_per_response"] = (scans / responses, "scans")
    m.update({
        "intervals.iou.calls": (c("intervals.iou"), "count"),
        "intervals.iou.self_s": (own("intervals.iou"), "s"),
        "intervals.merge.calls": (c("intervals.merge"), "count"),
        "intervals.merge.self_s": (own("intervals.merge"), "s"),
        "intervals.set_iou.self_s": (own("intervals.set_iou"), "s"),
        "rewards.dp_match.calls": (c("rewards.dp_match"), "count"),
        "rewards.dp_match.self_s": (own("rewards.dp_match"), "s"),
        "rewards.dp_match.cells": (cells, "count"),
        "rewards.dp_match.calls_per_tal_sample": (
            c("rewards.dp_match") / tal_samples if tal_samples else 0.0, "calls"),
        "rewards.total_reward.calls": (c("rewards.total_reward"), "count"),
        "rewards.total_reward.self_s": (own("rewards.total_reward"), "s"),
        "rewards.total_reward.p50_ms": (_quantile(reward_ms, 0.50), "ms"),
        "rewards.total_reward.p99_ms": (_quantile(reward_ms, 0.99), "ms"),
        "rewards.reward_type1.s": (s("rewards.reward_type1"), "s"),
        "rewards.reward_type2.s": (s("rewards.reward_type2"), "s"),
        "rewards.reward_tal.s": (s("rewards.reward_tal"), "s"),
    })
    for task in ("tg", "dtg", "vhd", "gvqa", "tal"):
        m[f"evaluation.eval_{task}.s"] = (s(f"evaluation.eval_{task}"), "s")
    m.update({
        "evaluation.aggregate.s": (s("evaluation.aggregate"), "s"),
        "grpo.sample_s": (s("grpo.ToyPolicy.sample"), "s"),
        "grpo.decode_s": (s("grpo.ToyPolicy.decode"), "s"),
        "grpo.score_s": (s("grpo.reward_fn"), "s"),
        "grpo.gradient_s": (s("grpo.objective_and_gradients"), "s"),
        "grpo.kl_s": (s("grpo.prompt_kl"), "s"),
        "grpo.head_log_probs.calls_per_step": (
            c("grpo.ToyPolicy.head_log_probs") / steps if steps else 0.0, "calls"),
        "grpo.nonconstant_group_ratio": (nonconstant / groups if groups else 0.0, "ratio"),
        "grpo.grid_candidates": (grid, "count"),
        "cli.command_s": (main_s, "s"),
        "trace.overhead_ratio": (main_s / untraced_main_s, "ratio"),
    })
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def _quantile(sorted_values: list, q: float) -> float:
    """Quantile by statistics.quantiles (inclusive); 0.0 when nothing was measured."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
