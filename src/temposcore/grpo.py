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
from typing import Callable, Sequence

import numpy as np

from .intervals import Interval, _finite_float, _interval_from_pair
from .parsing import ParsedOutput, TaskKind, serialize
from .rewards import TalConfig, total_reward


# ---------------------------------------------------------------------------
# Group math


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    kl_beta: float = 0.04
    learning_rate: float = 0.5
    std_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not (0.0 < self.clip_eps < 1.0):
            raise ValueError("clip_eps must be in (0, 1)")
        if self.kl_beta < 0.0:
            raise ValueError("kl_beta must be >= 0")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not (self.std_floor > 0.0):
            raise ValueError("std_floor must be positive")


@dataclass(frozen=True)
class RolloutGroup:
    """Rewards, standardized advantages, and likelihood ratios for one group."""

    rewards: tuple[float, ...]
    advantages: tuple[float, ...]
    likelihood_ratios: tuple[float, ...]

    def __post_init__(self) -> None:
        g = len(self.rewards)
        if g < 2:
            raise ValueError("a rollout group needs at least 2 responses")
        if len(self.advantages) != g or len(self.likelihood_ratios) != g:
            raise ValueError("rewards, advantages, and ratios must have equal length")
        if any(r <= 0.0 for r in self.likelihood_ratios):
            raise ValueError("likelihood ratios must be positive")


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


def clipped_objective(group: RolloutGroup, cfg: GrpoConfig, kl: float) -> float:
    """The clipped surrogate value for one group, minus the KL penalty."""
    if kl < 0.0:
        raise ValueError("kl must be >= 0")
    total = 0.0
    for r, a in zip(group.likelihood_ratios, group.advantages):
        clipped = min(max(r, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps)
        total += min(r * a, clipped * a)
    return total - cfg.kl_beta * kl


def kl_divergence(logp_current: Sequence[float], logp_reference: Sequence[float]) -> float:
    """Exact categorical KL(p || q) from two log-probability tables."""
    if len(logp_current) != len(logp_reference):
        raise ValueError("log-probability tables must share the same support")
    total = 0.0
    for lp, lq in zip(logp_current, logp_reference):
        p = math.exp(lp)
        if p > 0.0:
            total += p * (lp - lq)
    return max(total, 0.0)


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
    """One synthetic training prompt: ground truth plus a candidate grid."""

    task: TaskKind
    gt_intervals: tuple[Interval, ...]
    grid: tuple[Interval, ...]
    max_instances: int = 1
    gt_answer: str | None = None
    options: tuple[str, ...] = ()
    duration: float | None = None

    def __post_init__(self) -> None:
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
        if self.task is TaskKind.GVQA:
            if not self.options:
                raise ScenarioError("GVQA prompts need answer options")
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
    """Factorized categorical policy, one head set per prompt.

    Heads per prompt: ``count`` over 1..max_instances, ``slots`` of shape
    (max_instances, n_candidates), and ``answer`` when the prompt has
    options. Logits start at zero (uniform).
    """

    def __init__(self, prompts: Sequence[PromptSpec], params: list[Params] | None = None):
        self.prompts = tuple(prompts)
        if params is None:
            params = []
            for p in self.prompts:
                head: Params = {
                    "count": np.zeros(p.max_instances),
                    "slots": np.zeros((p.max_instances, len(p.grid))),
                }
                if p.options:
                    head["answer"] = np.zeros(len(p.options))
                params.append(head)
        self.params = params

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(self.prompts, [{k: v.copy() for k, v in h.items()} for h in self.params])

    def head_log_probs(self, idx: int) -> Params:
        return {name: _log_softmax(z) for name, z in self.params[idx].items()}

    def sample(self, idx: int, rng: np.random.Generator) -> SampledResponse:
        return sample_group(self.head_log_probs(idx), rng, 1)[0]

    def decode(self, idx: int, resp: SampledResponse) -> str:
        prompt = self.prompts[idx]
        intervals = tuple(prompt.grid[c] for c in resp.slots)
        answer_text = prompt.options[resp.answer] if resp.answer is not None else None
        return serialize(ParsedOutput(intervals=intervals, answer_text=answer_text), prompt.task)


# Generator.choice's tolerance on sum(p) - 1
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _choice_cdf(logp: np.ndarray) -> list[float]:
    """The CDF that ``rng.choice(len(logp), p=np.exp(logp))`` draws from.

    Built with choice's own steps (cumsum, then divide by the last entry) and
    checked with choice's own test on ``p``, but once per head, not per draw.
    """
    p = np.exp(logp)
    if not ((p >= 0.0).all() and abs(p.sum() - 1.0) <= _CHOICE_ATOL):
        raise ValueError("probabilities are negative or do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def sample_group(logps: Params, rng: np.random.Generator, n: int) -> list[SampledResponse]:
    """Draw ``n`` responses from one prompt's head log-probabilities.

    Each head's CDF is built once. A draw takes one ``rng.random()`` and
    returns the index ``rng.choice`` would (``bisect_right`` is its
    ``searchsorted(side="right")``), in choice's order per response: count,
    slots 0..count-1, answer. A seeded stream therefore yields the same
    responses and leaves the generator in the same state as per-draw choice.
    """
    count_cdf = _choice_cdf(logps["count"])
    slot_cdfs = [_choice_cdf(row) for row in logps["slots"]]
    answer_cdf = _choice_cdf(logps["answer"]) if "answer" in logps else None
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


def _survival(count_probs: np.ndarray) -> np.ndarray:
    """survival[s] = P(sampled count covers slot s), i.e. P(count >= s + 1)."""
    return np.cumsum(count_probs[::-1])[::-1]


def prompt_kl(cur: Params, ref: Params) -> float:
    """Exact KL of the factorized response distribution for one prompt."""
    count_probs = np.exp(cur["count"])
    kl = float((count_probs * (cur["count"] - ref["count"])).sum())
    surv = _survival(count_probs)
    for s in range(cur["slots"].shape[0]):
        probs = np.exp(cur["slots"][s])
        kl += float(surv[s]) * float((probs * (cur["slots"][s] - ref["slots"][s])).sum())
    if "answer" in cur:
        probs = np.exp(cur["answer"])
        kl += float((probs * (cur["answer"] - ref["answer"])).sum())
    return max(kl, 0.0)


def objective_and_gradients(
    logits: Params,
    responses: Sequence[SampledResponse],
    advantages: Sequence[float],
    old_log_probs: Sequence[float],
    ref_log_probs: Params,
    cfg: GrpoConfig,
) -> tuple[float, Params, float, int]:
    """Clipped-surrogate objective for one prompt, with analytic logit gradients.

    Returns (objective, gradients, kl, n_clipped). ``n_clipped`` counts
    responses whose surrogate sat on the constant clipped branch (no
    gradient). The KL penalty and its gradient target ``ref_log_probs``.
    """
    cur = {name: _log_softmax(z) for name, z in logits.items()}
    probs = {name: np.exp(lp) for name, lp in cur.items()}
    grads: Params = {name: np.zeros_like(z) for name, z in logits.items()}

    objective = 0.0
    n_clipped = 0
    for resp, adv, lp_old in zip(responses, advantages, old_log_probs):
        lp_new = response_log_prob(cur, resp)
        ratio = math.exp(lp_new - lp_old)
        clipped = min(max(ratio, 1.0 - cfg.clip_eps), 1.0 + cfg.clip_eps)
        objective += min(ratio * adv, clipped * adv)
        active = (adv >= 0.0 and ratio <= 1.0 + cfg.clip_eps) or (
            adv < 0.0 and ratio >= 1.0 - cfg.clip_eps
        )
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

    # exact KL penalty on the factorized distribution
    count_probs = probs["count"]
    count_scores = cur["count"] - ref_log_probs["count"]
    kl_count = float((count_probs * count_scores).sum())
    kl = kl_count
    kl_grad: Params = {name: np.zeros_like(z) for name, z in logits.items()}
    kl_grad["count"] += count_probs * (count_scores - kl_count)
    surv = _survival(count_probs)
    n_slots = logits["slots"].shape[0]
    slot_index = np.arange(n_slots)
    for s in range(n_slots):
        slot_probs = probs["slots"][s]
        slot_scores = cur["slots"][s] - ref_log_probs["slots"][s]
        kl_s = float((slot_probs * slot_scores).sum())
        kl += float(surv[s]) * kl_s
        kl_grad["slots"][s] += surv[s] * slot_probs * (slot_scores - kl_s)
        # the count head moves P(count >= s + 1), which reweights slot KLs
        kl_grad["count"] += kl_s * count_probs * ((slot_index >= s).astype(float) - surv[s])
    if "answer" in logits:
        ans_probs = probs["answer"]
        ans_scores = cur["answer"] - ref_log_probs["answer"]
        kl_ans = float((ans_probs * ans_scores).sum())
        kl += kl_ans
        kl_grad["answer"] += ans_probs * (ans_scores - kl_ans)

    objective -= cfg.kl_beta * kl
    for name in grads:
        grads[name] -= cfg.kl_beta * kl_grad[name]
    return objective, grads, kl, n_clipped


# ---------------------------------------------------------------------------
# Optimization step and simulation loop


RewardFn = Callable[[str, PromptSpec], float]
"""Scores a decoded response for its prompt.

A reward must be a deterministic function of ``(text, prompt)``:
``grpo_step`` scores each distinct response of a group once and reuses the
value for its repeats. ``standard_reward_fn`` is.
"""


@dataclass(frozen=True)
class StepStats:
    mean_reward: float
    kl: float
    clip_fraction: float


def _score_group(
    policy: ToyPolicy, idx: int, responses: Sequence[SampledResponse], reward_fn: RewardFn
) -> list[float]:
    """Rewards for one group, decoding and scoring each distinct response once."""
    prompt = policy.prompts[idx]
    memo: dict[SampledResponse, float] = {}
    rewards = []
    for resp in responses:
        reward = memo.get(resp)
        if reward is None:
            reward = memo[resp] = float(reward_fn(policy.decode(idx, resp), prompt))
        rewards.append(reward)
    return rewards


def grpo_step(
    policy: ToyPolicy,
    reward_fn: RewardFn,
    cfg: GrpoConfig,
    rng_seed,
    ref: ToyPolicy | None = None,
    inner_steps: int = 1,
) -> tuple[ToyPolicy, StepStats]:
    """One optimization step: sample groups, score, ascend the objective.

    Responses are drawn from the frozen input policy; with the default
    single inner step the ratios start at 1 and the update is the plain
    policy gradient. More inner steps re-ascend the same batch, which is
    what exercises the clipping path. The input policy is not mutated.
    KL regularizes toward ``ref`` (the input policy when omitted).

    Per prompt, the head log-probabilities of the policy and of ``ref`` are
    computed once, and each distinct response of a group is scored once.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1")
    rng = np.random.default_rng(rng_seed)

    batches = []
    all_rewards: list[float] = []
    for i in range(len(policy.prompts)):
        logps = policy.head_log_probs(i)
        ref_logps = logps if ref is None else ref.head_log_probs(i)
        responses = sample_group(logps, rng, cfg.group_size)
        rewards = _score_group(policy, i, responses, reward_fn)
        advantages = group_advantages(rewards, cfg.std_floor)
        old_vals = [response_log_prob(logps, r) for r in responses]
        batches.append((i, responses, advantages, old_vals, ref_logps))
        all_rewards.extend(rewards)

    new = policy.copy()
    clip_fraction = 0.0
    for _ in range(inner_steps):
        clipped = 0
        total = 0
        for i, responses, advantages, old_vals, ref_logps in batches:
            _, grads, _, n_clipped = objective_and_gradients(
                new.params[i], responses, advantages, old_vals, ref_logps, cfg,
            )
            for name, g in grads.items():
                new.params[i][name] += cfg.learning_rate * g
            clipped += n_clipped
            total += len(responses)
        clip_fraction = clipped / total if total else 0.0

    kl_after = sum(
        prompt_kl(new.head_log_probs(i), ref_logps) for i, _, _, _, ref_logps in batches
    )
    mean_reward = sum(all_rewards) / len(all_rewards) if all_rewards else 0.0
    return new, StepStats(mean_reward=mean_reward, kl=kl_after, clip_fraction=clip_fraction)


@dataclass(frozen=True)
class CurvePoint:
    step: int
    mean_reward: float
    kl: float
    clip_fraction: float


@dataclass(frozen=True)
class SlotSummary:
    interval: Interval
    probability: float


@dataclass(frozen=True)
class PromptSummary:
    prompt_index: int
    task: TaskKind
    modal_count: int
    count_probability: float
    top_slots: tuple[SlotSummary, ...]
    top_answer: str | None = None
    answer_probability: float | None = None


@dataclass
class SimulationResult:
    name: str
    curve: list[CurvePoint]
    policy: ToyPolicy
    summaries: tuple[PromptSummary, ...]


def summarize_policy(policy: ToyPolicy) -> tuple[PromptSummary, ...]:
    out = []
    for i, prompt in enumerate(policy.prompts):
        logps = policy.head_log_probs(i)
        count_probs = np.exp(logps["count"])
        modal = int(np.argmax(count_probs))
        slots = []
        for s in range(modal + 1):
            slot_probs = np.exp(logps["slots"][s])
            best = int(np.argmax(slot_probs))
            slots.append(SlotSummary(prompt.grid[best], float(slot_probs[best])))
        answer = None
        answer_prob = None
        if "answer" in logps:
            ans_probs = np.exp(logps["answer"])
            j = int(np.argmax(ans_probs))
            answer, answer_prob = prompt.options[j], float(ans_probs[j])
        out.append(
            PromptSummary(
                prompt_index=i,
                task=prompt.task,
                modal_count=modal + 1,
                count_probability=float(count_probs[modal]),
                top_slots=tuple(slots),
                top_answer=answer,
                answer_probability=answer_prob,
            )
        )
    return tuple(out)


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

    The KL reference is the initial (uniform) policy. Each step derives its
    own RNG stream from (seed, step), so curves are identical bit for bit
    across runs with the same inputs.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    fn = reward_fn if reward_fn is not None else standard_reward_fn()
    policy = ToyPolicy(scenario.prompts)
    ref = policy.copy()
    curve: list[CurvePoint] = []
    for t in range(steps):
        policy, stats = grpo_step(policy, fn, cfg, rng_seed=(seed, t), ref=ref)
        curve.append(CurvePoint(t, stats.mean_reward, stats.kl, stats.clip_fraction))
    return SimulationResult(
        name=scenario.name, curve=curve, policy=policy, summaries=summarize_policy(policy)
    )


# ---------------------------------------------------------------------------
# Scenario files


@dataclass(frozen=True)
class Scenario:
    name: str
    prompts: tuple[PromptSpec, ...]
    grpo: GrpoConfig | None = None  # optional optimizer defaults bundled with the file


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
_DEFAULT_MAX_INSTANCES = 6


def _scenario_number(d: dict, key: str, position: int) -> float:
    value = _finite_float(d[key])
    if value is None:
        raise ScenarioError(f"prompt {position}: {key} must be a finite number")
    return value


def _scenario_intervals(d: dict, key: str, position: int) -> tuple[Interval, ...]:
    pairs = d[key]
    if not isinstance(pairs, list):
        raise ScenarioError(f"prompt {position}: {key} must be a list of [start, end] pairs")
    out = []
    for pair in pairs:
        try:
            out.append(_interval_from_pair(pair))
        except ValueError as exc:
            raise ScenarioError(f"prompt {position}: bad {key} {pair!r}: {exc}") from None
    return tuple(out)


def _prompt_from_dict(d: dict, position: int) -> PromptSpec:
    if not isinstance(d, dict):
        raise ScenarioError(f"prompt {position}: must be an object")
    for key in d:
        if key not in _PROMPT_KEYS:
            raise ScenarioError(f"prompt {position}: unknown scenario key '{key}'")
    try:
        task = TaskKind(d.get("task"))
    except ValueError:
        raise ScenarioError(f"prompt {position}: unknown task {d.get('task')!r}") from None
    if "gt_intervals" not in d:
        raise ScenarioError(f"prompt {position}: missing gt_intervals")
    gts = _scenario_intervals(d, "gt_intervals", position)

    duration = _scenario_number(d, "duration", position) if "duration" in d else None
    if "grid" in d and "grid_step" in d:
        raise ScenarioError(f"prompt {position}: give either grid or grid_step, not both")
    if "grid" in d:
        grid = _scenario_intervals(d, "grid", position)
    elif "grid_step" in d:
        if duration is None:
            raise ScenarioError(f"prompt {position}: grid_step needs a duration")
        step = _scenario_number(d, "grid_step", position)
        try:
            grid = uniform_grid(duration, step)
        except ScenarioError as exc:
            raise ScenarioError(f"prompt {position}: {exc}") from None
    else:
        raise ScenarioError(f"prompt {position}: missing grid or grid_step")

    max_instances = d.get("max_instances", 1 if task is TaskKind.TG else _DEFAULT_MAX_INSTANCES)
    if isinstance(max_instances, bool) or not isinstance(max_instances, int):
        raise ScenarioError(f"prompt {position}: max_instances must be an integer")
    options = tuple(d.get("options", ()))
    try:
        return PromptSpec(
            task=task,
            gt_intervals=gts,
            grid=grid,
            max_instances=max_instances,
            gt_answer=d.get("gt_answer"),
            options=options,
            duration=duration,
        )
    except ScenarioError as exc:
        raise ScenarioError(f"prompt {position}: {exc}") from None


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
    prompts = d.get("prompts")
    if not isinstance(prompts, list) or not prompts:
        raise ScenarioError("scenario needs a non-empty 'prompts' list")
    name = d.get("name", "scenario")
    if not isinstance(name, str):
        raise ScenarioError("scenario name must be a string")
    grpo = _grpo_from_dict(d["grpo"]) if "grpo" in d else None
    return Scenario(
        name=name,
        prompts=tuple(_prompt_from_dict(p, i) for i, p in enumerate(prompts)),
        grpo=grpo,
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
