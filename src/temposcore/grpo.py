"""Group-relative policy optimization on a toy interval-prediction policy.

The group math is the standard critic-free recipe: standardize rewards
within each sampled group to get advantages, then ascend the clipped
surrogate objective

    sum_i min(r_i * A_i, clip(r_i, 1-eps, 1+eps) * A_i) - beta * KL(pi || pi_ref)

where r_i is the new/old likelihood ratio of response i.

The policy that exercises it is deliberately tiny: per synthetic prompt, a
categorical head over how many intervals to emit (1..max_instances), one
categorical head per slot over a fixed grid of candidate intervals, and an
optional categorical head over answer options. Responses decode to template
strings, so the real reward stack scores them end to end. The support is
enumerable, which lets the KL term be exact rather than estimated, and all
gradients are analytic on the logits.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .intervals import Interval, _finite_float, _intervals_from_pairs, _left_sum
from .parsing import (
    ParsedOutput, TaskKind, _TASKS, _field_fault, _is_answer_text, serialize
)
from .rewards import TalConfig, total_reward


# ---------------------------------------------------------------------------
# Group math


# The responses one prompt draws per step, all held at once: sample_group
# builds the whole group before it is scored.
MAX_GROUP_SIZE = 4096


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    kl_beta: float = 0.04
    learning_rate: float = 0.5
    std_floor: float = 1e-6

    def __post_init__(self) -> None:
        # checked here, where scenario "grpo" blocks and CLI flags both enter
        if isinstance(self.group_size, bool) or not isinstance(self.group_size, int):
            raise ValueError("group_size must be an integer")
        for name in ("clip_eps", "kl_beta", "learning_rate", "std_floor"):
            if _finite_float(getattr(self, name)) is None:
                raise ValueError(f"{name} must be a finite number")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.group_size > MAX_GROUP_SIZE:
            raise ValueError(
                f"group_size {self.group_size} exceeds the limit of {MAX_GROUP_SIZE}"
            )
        if not (0.0 < self.clip_eps < 1.0):
            raise ValueError("clip_eps must be in (0, 1)")
        if self.kl_beta < 0.0:
            raise ValueError("kl_beta must be >= 0")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not (self.std_floor > 0.0):
            raise ValueError("std_floor must be positive")


def group_advantages(rewards: Sequence[float], std_floor: float = 1e-6) -> list[float]:
    """Standardize rewards within a group: (r - mean) / max(popstd, floor).

    A constant group yields exactly zero advantages so degenerate groups
    contribute no gradient. Population (not sample) standard deviation.
    """
    if len(rewards) < 2:
        raise ValueError("advantage normalization needs at least 2 rewards")
    if not (std_floor > 0.0):
        raise ValueError("std_floor must be positive")
    r = np.asarray(rewards, dtype=float)
    if np.all(r == r[0]):
        return [0.0] * len(rewards)
    centered = r - r.mean()
    std = float(np.sqrt(np.mean(centered * centered)))
    return [float(v) for v in centered / max(std, std_floor)]


# ---------------------------------------------------------------------------
# Toy policy


class ScenarioError(ValueError):
    """Raised for malformed scenario files."""


# Size limits checked before anything is allocated: a grid_step builds
# n(n+1)/2 candidates from two numbers, and the policy holds one slot-logit
# row of len(grid) per instance.
MAX_GRID_CANDIDATES = 50_000
MAX_SLOT_LOGITS = 500_000


@dataclass(frozen=True)
class PromptSpec:
    """One synthetic training prompt: ground truth plus a candidate grid, checked like Sample."""

    task: TaskKind
    gt_intervals: tuple[Interval, ...]
    grid: tuple[Interval, ...]
    max_instances: int = 1
    gt_answer: str | None = None
    options: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # the types first, then the values, as in Sample
        if not isinstance(self.task, TaskKind):
            raise ScenarioError(f"unknown task {self.task!r}")
        for key in ("gt_intervals", "grid"):
            pairs = getattr(self, key)
            if not isinstance(pairs, (list, tuple)):
                raise ScenarioError(f"{key} must be a list of [start, end] pairs")
            object.__setattr__(self, key, _intervals_from_pairs(pairs, key, ScenarioError))
        if isinstance(self.max_instances, bool) or not isinstance(self.max_instances, int):
            raise ScenarioError("max_instances must be an integer")
        if not isinstance(self.options, (list, tuple)):
            raise ScenarioError("options must be a list")
        object.__setattr__(self, "options", tuple(self.options))
        if not self.gt_intervals:
            raise ScenarioError("a prompt needs at least one ground-truth interval")
        if not self.grid:
            raise ScenarioError("a prompt needs a non-empty candidate grid")
        if self.max_instances < 1:
            raise ScenarioError("max_instances must be >= 1")
        slot_logits = self.max_instances * len(self.grid)
        if slot_logits > MAX_SLOT_LOGITS:
            raise ScenarioError(
                f"{slot_logits} slot logits (max_instances x candidates) exceed "
                f"the limit of {MAX_SLOT_LOGITS}"
            )
        if self.task is TaskKind.TG and self.max_instances != 1:
            raise ScenarioError("TG prompts emit exactly one interval")
        if self.task is TaskKind.TG and len(self.gt_intervals) != 1:
            raise ScenarioError("TG prompts take exactly one ground-truth interval")
        if self.task is TaskKind.GVQA:
            if not self.options:
                raise ScenarioError("GVQA prompts need answer options")
            seen = set()
            for option in self.options:
                if not _is_answer_text(option):  # what serialize needs of an answer text
                    raise ScenarioError(
                        f"GVQA option {option!r} must be a non-empty, tag-free string "
                        "without surrounding whitespace"
                    )
                fault = _field_fault(option)  # simulate prints it as answer=OPTION
                if fault is not None:
                    raise ScenarioError(f"GVQA option {option!r} {fault}")
                if option in seen:  # two answer indices would decode to one text
                    raise ScenarioError(f"GVQA option {option!r} is repeated")
                seen.add(option)
            if self.gt_answer not in self.options:
                raise ScenarioError("GVQA gt_answer must be one of the options")
        elif self.options or self.gt_answer is not None:
            raise ScenarioError(f"{self.task.value} prompts carry no answer options")


@dataclass(frozen=True)
class SampledResponse:
    """Head choices for one sampled response: grid indices plus option index."""

    slots: tuple[int, ...]
    answer: int | None = None

    @property
    def count(self) -> int:
        return len(self.slots)


Params = dict[str, np.ndarray]


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ToyPolicy:
    """Factorized categorical policy, one head set per prompt; an immutable value.

    Heads per prompt: ``count`` over 1..max_instances, ``slots`` of shape
    (max_instances, n_candidates), and ``answer`` when the prompt has
    options. Logits start at zero (uniform). The policy takes ``params``
    and ``ref_logps`` (the KL reference's log-probabilities; its own when
    omitted) over, builds each prompt's ``tables`` and ``kls`` (``prompt_kl``:
    its KL and the KL's gradient) once, and marks the params and every array
    it builds read-only, so policies share them.
    """

    def __init__(self, prompts: Sequence[PromptSpec], params: Sequence[Params] | None = None,
                 ref_logps: Sequence[Params] | None = None):
        self.prompts = tuple(prompts)
        if params is None:
            params = [{"count": np.zeros(p.max_instances),
                       "slots": np.zeros((p.max_instances, len(p.grid))),
                       **({"answer": np.zeros(len(p.options))} if p.options else {})}
                      for p in self.prompts]
        self.params = tuple(params)
        self.tables = tuple(HeadTables.of(self.head_log_probs(i)) for i in range(len(self.prompts)))
        self.ref_logps = (tuple(t.logps for t in self.tables) if ref_logps is None
                          else tuple(ref_logps))
        pairs = zip(self.tables, self.ref_logps, strict=True)
        self.kls = tuple(prompt_kl(t, ref) for t, ref in pairs)
        # not ref_logps: they are these tables' logps or a reference policy's, marked already
        heads = (*self.params, *(d for t in self.tables for d in t), *(kl.grads for kl in self.kls))
        for z in (z for d in heads for z in d.values()):
            z.flags.writeable = False

    def head_log_probs(self, idx: int) -> Params:
        return {name: _log_softmax(z) for name, z in self.params[idx].items()}

    def decode(self, idx: int, resp: SampledResponse) -> str:
        prompt = self.prompts[idx]
        intervals = tuple(prompt.grid[c] for c in resp.slots)
        answer_text = prompt.options[resp.answer] if resp.answer is not None else None
        return serialize(ParsedOutput(intervals=intervals, answer_text=answer_text), prompt.task)


class HeadTables(NamedTuple):
    """One prompt's head log-probabilities and their ``exp``, each computed once.

    The sampler's CDFs, the objective and the KL all read the same ``probs``.
    """

    logps: Params
    probs: Params

    @classmethod
    def of(cls, logps: Params) -> "HeadTables":
        return cls(logps, {name: np.exp(lp) for name, lp in logps.items()})


# Generator.choice's tolerance on sum(p) - 1
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _choice_cdfs(p: np.ndarray) -> list:
    """The CDF that ``rng.choice(len(row), p=row)`` draws from, for each row of ``p``.

    Built with choice's own steps (cumsum, then divide by the last entry) and
    checked with choice's own test on ``p``, but once per head, not per draw.
    A 1-D ``p`` gives one CDF; the rows of a C-contiguous matrix give the same
    doubles as each row on its own (``test_rowwise_numpy_matches_per_row``).
    """
    if not ((p >= 0.0).all() and (abs(p.sum(axis=-1) - 1.0) <= _CHOICE_ATOL).all()):
        raise ValueError("probabilities are negative or do not sum to 1")
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf.tolist()


def sample_group(tables: HeadTables, rng: np.random.Generator, n: int) -> list[SampledResponse]:
    """Draw ``n`` responses from one prompt's head tables.

    Each head's CDF is built once. A draw takes one ``rng.random()`` and
    returns the index ``rng.choice`` would (``bisect_right`` is its
    ``searchsorted(side="right")``), in choice's order per response: count,
    slots 0..count-1, answer. A seeded stream therefore yields the same
    responses and leaves the generator in the same state as per-draw choice.
    """
    probs = tables.probs
    count_cdf = _choice_cdfs(probs["count"])
    slot_cdfs = _choice_cdfs(probs["slots"])
    answer_cdf = _choice_cdfs(probs["answer"]) if "answer" in probs else None
    uniform = rng.random
    out = []
    for _ in range(n):
        count = 1 + bisect_right(count_cdf, uniform())
        slots = tuple(bisect_right(slot_cdfs[s], uniform()) for s in range(count))
        answer = None if answer_cdf is None else bisect_right(answer_cdf, uniform())
        out.append(SampledResponse(slots=slots, answer=answer))
    return out


def response_log_prob(logps: Params, resp: SampledResponse) -> float:
    lp = float(logps["count"][resp.count - 1])
    for s, c in enumerate(resp.slots):
        lp += float(logps["slots"][s, c])
    if resp.answer is not None:
        lp += float(logps["answer"][resp.answer])
    return lp


class _Kl(NamedTuple):
    """The exact KL of one prompt to its reference, and its gradient on each head's logits."""

    value: float
    grads: Params


def prompt_kl(cur: HeadTables, ref: Params) -> _Kl:
    """Exact KL of the factorized response distribution for one prompt, with its gradient."""
    logps, probs = cur
    count_probs = probs["count"]
    count_scores = logps["count"] - ref["count"]  # log p - log q, count head
    count_kl = float((count_probs * count_scores).sum())
    survival = np.cumsum(count_probs[::-1])[::-1]  # survival[s] = P(count >= s + 1)
    slot_scores = logps["slots"] - ref["slots"]
    slot_kls = (probs["slots"] * slot_scores).sum(axis=1).tolist()
    value = count_kl
    count_grad = count_probs * (count_scores - count_kl)
    # the count head moves P(count >= s + 1), which reweights slot KLs
    slot_index = np.arange(len(slot_kls))
    for s, kl_s in enumerate(slot_kls):
        value += float(survival[s]) * kl_s
        count_grad += kl_s * count_probs * ((slot_index >= s).astype(float) - survival[s])
    grads: Params = {
        "count": count_grad,
        "slots": survival[:, None] * probs["slots"] * (slot_scores - np.array(slot_kls)[:, None]),
    }
    if "answer" in logps:
        answer_scores = logps["answer"] - ref["answer"]
        answer_kl = float((probs["answer"] * answer_scores).sum())
        value += answer_kl
        grads["answer"] = probs["answer"] * (answer_scores - answer_kl)
    return _Kl(value, grads)


def objective_and_gradients(
    cur: HeadTables,
    kl: _Kl,
    responses: Sequence[SampledResponse],
    advantages: Sequence[float],
    old_log_probs: Sequence[float],
    cfg: GrpoConfig,
) -> tuple[float, Params, int]:
    """Clipped-surrogate objective minus beta * KL for one prompt, with logit gradients.

    ``cur`` holds the head tables of the logits being optimized, ``kl`` their
    KL and its gradient (a policy's ``kls``). Returns (objective, gradients,
    n_clipped). ``n_clipped`` counts responses whose surrogate sat on the
    constant clipped branch (no gradient). A zero-advantage response adds
    nothing to the objective or the gradients, so only its clipping is counted.
    """
    logps, probs = cur
    grads: Params = {name: np.zeros_like(lp) for name, lp in logps.items()}
    hi, lo = 1.0 + cfg.clip_eps, 1.0 - cfg.clip_eps

    objective = 0.0
    n_clipped = 0
    for resp, adv, lp_old in zip(responses, advantages, old_log_probs):
        ratio = math.exp(response_log_prob(logps, resp) - lp_old)
        if adv == 0.0:
            n_clipped += ratio > hi
            continue
        objective += min(ratio * adv, min(max(ratio, lo), hi) * adv)
        active = (adv >= 0.0 and ratio <= hi) or (adv < 0.0 and ratio >= lo)
        if not active:
            n_clipped += 1
            continue
        coeff = adv * ratio
        grads["count"][resp.count - 1] += coeff
        grads["count"] -= coeff * probs["count"]
        for s, c in enumerate(resp.slots):
            grads["slots"][s, c] += coeff
            grads["slots"][s] -= coeff * probs["slots"][s]
        if resp.answer is not None:
            grads["answer"][resp.answer] += coeff
            grads["answer"] -= coeff * probs["answer"]

    objective -= cfg.kl_beta * kl.value
    for name in grads:
        grads[name] -= cfg.kl_beta * kl.grads[name]
    return objective, grads, n_clipped


# ---------------------------------------------------------------------------
# Optimization step and simulation loop


RewardFn = Callable[[str, PromptSpec], float]
"""Scores a decoded response for its prompt.

A reward must be a deterministic function of ``(text, prompt)``: each
distinct (prompt, response) is decoded and scored once per reward memo,
which ``run_simulation`` keeps for the whole run (a ``grpo_step`` called
without one keeps its own), and repeats reuse the value.
``standard_reward_fn`` is deterministic.
"""


@dataclass(frozen=True)
class StepStats:
    mean_reward: float
    kl: float
    clip_fraction: float


def _score_group(
    policy: ToyPolicy,
    idx: int,
    responses: Sequence[SampledResponse],
    reward_fn: RewardFn,
    memo: dict[tuple[int, SampledResponse], float],
) -> list[float]:
    """Rewards for one group; a response already in ``memo`` is not decoded again."""
    prompt = policy.prompts[idx]
    rewards = []
    for resp in responses:
        key = (idx, resp)
        reward = memo.get(key)
        if reward is None:
            reward = memo[key] = float(reward_fn(policy.decode(idx, resp), prompt))
        rewards.append(reward)
    return rewards


def grpo_step(
    policy: ToyPolicy,
    reward_fn: RewardFn,
    cfg: GrpoConfig,
    rng_seed,
    inner_steps: int = 1,
    memo: dict[tuple[int, SampledResponse], float] | None = None,
) -> tuple[ToyPolicy, StepStats]:
    """One optimization step: sample groups, score, ascend the objective.

    The policies are immutable values, so the result depends on the inputs
    alone; only ``memo``, which maps (prompt index, response) to its reward
    (see ``RewardFn``), is filled in place. Responses are drawn from
    ``policy.tables``; with the default single inner step the ratios start
    at 1 and the update is the plain policy gradient. More inner steps
    re-ascend the same batch, which is what exercises the clipping path.
    Each inner step builds a new policy from the updated logits and the
    input's ``ref_logps``, and with it that policy's tables, KL and KL gradient:
    one log-softmax and one ``prompt_kl`` per prompt per inner step. KL
    regularizes toward the input's reference; to regularize toward the
    input itself, rebuild it from its params first. An update that leaves a
    logit non-finite raises ValueError naming ``learning_rate``.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1")
    memo = {} if memo is None else memo
    rng = np.random.default_rng(rng_seed)

    batches = []
    all_rewards: list[float] = []
    for i, tables in enumerate(policy.tables):
        responses = sample_group(tables, rng, cfg.group_size)
        rewards = _score_group(policy, i, responses, reward_fn, memo)
        advantages = group_advantages(rewards, cfg.std_floor)
        # With one inner step every ratio is exactly 1, so a zero-advantage
        # response can neither move the policy nor clip: leave it out.
        kept = [(r, a) for r, a in zip(responses, advantages) if a != 0.0 or inner_steps > 1]
        old_vals = [response_log_prob(tables.logps, r) for r, _ in kept]
        batches.append(([r for r, _ in kept], [a for _, a in kept], old_vals))
        all_rewards.extend(rewards)

    new = policy
    total = cfg.group_size * len(policy.prompts)
    clip_fraction = 0.0
    # a learning rate too large for the doubles makes a logit inf or nan, and
    # with it that prompt's KL nan: refused below, before anything samples it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(inner_steps):
            clipped = 0
            params = []
            for i, batch in enumerate(batches):
                _, grads, n_clipped = objective_and_gradients(
                    new.tables[i], new.kls[i], *batch, cfg)
                params.append({name: z + cfg.learning_rate * grads[name]
                               for name, z in new.params[i].items()})
                clipped += n_clipped
            new = ToyPolicy(policy.prompts, params, policy.ref_logps)
            if not all(math.isfinite(kl.value) for kl in new.kls):
                raise ValueError(f"learning_rate {cfg.learning_rate:g} drove the logits "
                                 "to non-finite values")
            clip_fraction = clipped / total if total else 0.0

    kl_after = _left_sum(max(kl.value, 0.0) for kl in new.kls)
    mean_reward = _left_sum(all_rewards) / len(all_rewards) if all_rewards else 0.0
    return new, StepStats(mean_reward=mean_reward, kl=kl_after, clip_fraction=clip_fraction)


@dataclass
class SimulationResult:
    name: str
    curve: list[StepStats]
    policy: ToyPolicy


def standard_reward_fn(sigma: float = 1.0, tal_normalize: bool = False) -> RewardFn:
    """The intended reward: the full composite reward on the decoded text."""
    cfg = TalConfig(sigma)

    def fn(text: str, prompt: PromptSpec) -> float:
        return total_reward(
            text, prompt.task, prompt.gt_intervals, prompt.gt_answer,
            cfg=cfg, tal_normalize=tal_normalize,
        ).total

    return fn


def run_simulation(
    scenario: "Scenario",
    cfg: GrpoConfig,
    steps: int,
    seed: int,
    reward_fn: RewardFn | None = None,
) -> SimulationResult:
    """Train the toy policy on a scenario; reproducible per seed.

    The KL reference is the initial (uniform) policy, its own reference,
    which every policy stepped from it carries. Each step derives its own
    RNG stream from (seed, step), so curves are identical bit for bit across
    runs with the same inputs. Each step samples from the tables of the
    policy the last one returned and reads its KL, and one reward memo
    serves the whole run. The result's policy carries the final tables.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    fn = reward_fn if reward_fn is not None else standard_reward_fn()
    policy = ToyPolicy(scenario.prompts)
    memo: dict[tuple[int, SampledResponse], float] = {}
    curve: list[StepStats] = []
    for t in range(steps):
        policy, stats = grpo_step(policy, fn, cfg, rng_seed=(seed, t), memo=memo)
        curve.append(stats)
    return SimulationResult(scenario.name, curve, policy)


# ---------------------------------------------------------------------------
# Scenario files


@dataclass(frozen=True)
class Scenario:
    """A named list of prompts; the constructor checks both, as :class:`PromptSpec` does."""

    name: str
    prompts: tuple[PromptSpec, ...]
    grpo: GrpoConfig | None = None  # optional optimizer defaults bundled with the file

    def __post_init__(self) -> None:
        if not isinstance(self.prompts, (list, tuple)) or not self.prompts:
            raise ScenarioError("scenario needs a non-empty 'prompts' list")
        object.__setattr__(self, "prompts", tuple(self.prompts))
        if not isinstance(self.name, str):
            raise ScenarioError("scenario name must be a string")
        fault = _field_fault(self.name)  # simulate prints it as scenario=NAME
        if fault is not None:
            raise ScenarioError(f"scenario name {self.name!r} {fault}")
        for i, prompt in enumerate(self.prompts):
            if not isinstance(prompt, PromptSpec):
                raise ScenarioError(
                    f"prompt {i}: must be a PromptSpec, not {type(prompt).__name__}"
                )
        if self.grpo is not None and not isinstance(self.grpo, GrpoConfig):
            raise ScenarioError(
                f"'grpo' must be a GrpoConfig or None, not {type(self.grpo).__name__}"
            )


def uniform_grid(duration: float, step: float) -> tuple[Interval, ...]:
    """All candidate intervals with endpoints on a regular grid over [0, duration]."""
    if not (duration > 0 and step > 0):
        raise ScenarioError("duration and grid_step must be positive")
    ratio = duration / step
    if not math.isfinite(ratio):
        raise ScenarioError("grid_step is too small for the duration")
    n = int(round(ratio))
    if n < 1:
        raise ScenarioError("grid_step is larger than the duration")
    candidates = n * (n + 1) // 2
    if candidates > MAX_GRID_CANDIDATES:
        raise ScenarioError(
            f"a grid of {candidates} candidates exceeds the limit of {MAX_GRID_CANDIDATES}"
        )
    points = [round(i * step, 9) for i in range(n + 1)]
    return tuple(
        Interval(points[i], points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


_SCENARIO_KEYS = {"name", "prompts", "grpo"}
_PROMPT_KEYS = {
    "task", "duration", "gt_intervals", "gt_answer",
    "options", "grid", "grid_step", "max_instances",
}
_GRPO_KEYS = {"group_size", "clip_eps", "kl_beta", "learning_rate", "std_floor"}
_DEFAULT_INSTANCES = 6


def _scenario_number(d: dict, key: str) -> float:
    value = _finite_float(d[key])
    if value is None:
        raise ScenarioError(f"{key} must be a finite number")
    return value


def _prompt_from_dict(d: dict, i: int) -> PromptSpec:
    """Prompt ``i`` of a scenario file; each of its faults is raised as ``prompt i: ...``."""
    try:
        if not isinstance(d, dict):
            raise ScenarioError("must be an object")
        for key in d:
            if key not in _PROMPT_KEYS:
                raise ScenarioError(f"unknown scenario key '{key}'")
        if "gt_intervals" not in d:
            raise ScenarioError("missing gt_intervals")
        duration = _scenario_number(d, "duration") if "duration" in d else None
        if "grid" in d and "grid_step" in d:
            raise ScenarioError("give either grid or grid_step, not both")
        grid = d.get("grid")
        if "grid_step" in d:
            if duration is None:
                raise ScenarioError("grid_step needs a duration")
            grid = uniform_grid(duration, _scenario_number(d, "grid_step"))
        elif "grid" not in d:
            raise ScenarioError("missing grid or grid_step")
        tag = d.get("task")
        task = _TASKS.get(tag, tag) if isinstance(tag, str) else tag  # PromptSpec refuses the rest
        return PromptSpec(
            task=task,
            gt_intervals=d["gt_intervals"],
            grid=grid,
            max_instances=d.get("max_instances", 1 if task is TaskKind.TG else _DEFAULT_INSTANCES),
            gt_answer=d.get("gt_answer"),
            options=d.get("options", ()),
        )
    except ScenarioError as exc:
        raise ScenarioError(f"prompt {i}: {exc}") from None


def _grpo_from_dict(d: dict) -> GrpoConfig:
    if not isinstance(d, dict):
        raise ScenarioError("'grpo' must be an object")
    for key in d:
        if key not in _GRPO_KEYS:
            raise ScenarioError(f"unknown scenario key 'grpo.{key}'")
    try:
        return GrpoConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad grpo config: {exc}") from exc


def scenario_from_dict(d: dict) -> Scenario:
    if not isinstance(d, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in d:
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"unknown scenario key '{key}'")
    grpo = _grpo_from_dict(d["grpo"]) if "grpo" in d else None
    prompts = d.get("prompts")
    if isinstance(prompts, list):  # Scenario refuses anything else
        prompts = [_prompt_from_dict(p, i) for i, p in enumerate(prompts)]
    return Scenario(name=d.get("name", "scenario"), prompts=prompts, grpo=grpo)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
