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
gradients are analytic on the logits. The prompts and the ``GrpoConfig``
come checked from ``scenarios``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .intervals import _left_sum
from .parsing import ParsedOutput, serialize
from .rewards import TalConfig, total_reward
from .scenarios import GrpoConfig, PromptSpec, Scenario


# ---------------------------------------------------------------------------
# Group math


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
    scenario: Scenario,
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
