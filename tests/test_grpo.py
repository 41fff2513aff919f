import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import choice_sample

from temposcore import (
    GrpoConfig,
    Interval,
    ScenarioError,
    TaskKind,
    ToyPolicy,
    group_advantages,
    grpo_step,
    load_scenario,
    run_simulation,
    uniform_grid,
)
import temposcore.grpo as grpo
from temposcore.parsing import ParsedOutput, _field_fault, _is_answer_text, serialize
from temposcore.grpo import (
    MAX_GRID_CANDIDATES,
    MAX_GROUP_SIZE,
    MAX_SLOT_LOGITS,
    HeadTables,
    PromptSpec,
    SampledResponse,
    objective_and_gradients,
    prompt_kl,
    response_log_prob,
    sample_group,
    scenario_from_dict,
    standard_reward_fn,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestGroupAdvantages:
    def test_worked_example(self):
        got = group_advantages([2.0, 1.0, 0.0])
        assert got == pytest.approx([1.2247, 0.0, -1.2247], abs=1e-4)

    def test_constant_group_is_exactly_zero(self):
        assert group_advantages([5.0, 5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0, 0.0]
        assert group_advantages([0.1, 0.1, 0.1]) == [0.0, 0.0, 0.0]

    def test_two_elements(self):
        assert group_advantages([1.0, 0.0]) == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])

    @given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=32))
    def test_normalization(self, rewards):
        adv = np.array(group_advantages(rewards))
        if len(set(rewards)) == 1:
            assert np.all(adv == 0.0)
            return
        assert abs(adv.mean()) <= 1e-9
        if np.asarray(rewards).std() > 1e-6:
            assert abs(adv.std() - 1.0) <= 1e-9
        else:
            # variance below the floor: advantages collapse toward zero
            assert np.all(np.abs(adv) <= 1.0)

    @given(
        st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=16),
        st.floats(0.1, 10.0),
        st.floats(-5.0, 5.0),
    )
    def test_affine_invariance(self, rewards, scale, shift):
        # invariant only while neither group's std falls below the 1e-6 floor
        assume(np.std(rewards) * min(scale, 1.0) >= 1e-6)
        base = np.array(group_advantages(rewards))
        transformed = np.array(group_advantages([scale * r + shift for r in rewards]))
        assert np.allclose(base, transformed, atol=1e-9)

    def test_std_floor_breaks_affine_invariance(self):
        # popstd 5e-7, and 2.5e-7 after scaling by 0.5: both are floored to 1e-6
        rewards = [0.0, 1e-06]
        assert group_advantages(rewards) == pytest.approx([-0.5, 0.5], abs=1e-12)
        scaled = [0.5 * r for r in rewards]
        assert group_advantages(scaled) == pytest.approx([-0.25, 0.25], abs=1e-12)


class TestGrpoConfig:
    def test_defaults_valid(self):
        GrpoConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 1},
            {"clip_eps": 0.0},
            {"clip_eps": 1.0},
            {"kl_beta": -0.1},
            {"std_floor": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GrpoConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"group_size": 2.5}, "group_size must be an integer"),
            ({"group_size": math.inf}, "group_size must be an integer"),
            ({"group_size": True}, "group_size must be an integer"),
            ({"group_size": "8"}, "group_size must be an integer"),
            ({"clip_eps": math.nan}, "clip_eps must be a finite number"),
            ({"kl_beta": math.nan}, "kl_beta must be a finite number"),
            ({"kl_beta": math.inf}, "kl_beta must be a finite number"),
            ({"learning_rate": math.inf}, "learning_rate must be a finite number"),
            ({"learning_rate": "0.5"}, "learning_rate must be a finite number"),
            ({"std_floor": True}, "std_floor must be a finite number"),
        ],
    )
    def test_non_numbers_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GrpoConfig(**kwargs)

    def test_group_size_limit(self):
        assert GrpoConfig(group_size=MAX_GROUP_SIZE).group_size == 4096
        with pytest.raises(ValueError, match="^group_size 4097 exceeds the limit of 4096$"):
            GrpoConfig(group_size=MAX_GROUP_SIZE + 1)


# ---------------------------------------------------------------------------
# Gradient check


def random_prompt(rng: np.random.Generator) -> PromptSpec:
    n_grid = int(rng.integers(3, 7))
    grid = tuple(Interval(float(i), float(i + rng.integers(1, 4))) for i in range(n_grid))
    with_answer = bool(rng.integers(0, 2))
    if with_answer:
        return PromptSpec(
            task=TaskKind.GVQA,
            gt_intervals=(grid[0],),
            grid=grid,
            max_instances=int(rng.integers(1, 4)),
            gt_answer="A",
            options=("A", "B", "C"),
        )
    return PromptSpec(
        task=TaskKind.TAL,
        gt_intervals=(grid[0],),
        grid=grid,
        max_instances=int(rng.integers(1, 4)),
    )


def random_gradient_config(rng: np.random.Generator, cfg: GrpoConfig):
    """A random (policy, responses, advantages, old-logps) tuple.

    The policy's KL reference is a third noisy policy of its own.

    Configurations whose ratios sit within 1e-3 of a clip boundary are
    rejected: the objective has a kink there and central differences are
    meaningless at the kink itself.
    """
    while True:
        prompt = random_prompt(rng)
        policy = noisy(ToyPolicy([prompt]), rng, 0.8)
        old = noisy(policy, rng, 0.3)
        ref = noisy(policy, rng, 0.5)

        responses = sample_group(old.tables[0], rng, 4)
        rewards = [float(rng.uniform(0, 2)) for _ in responses]
        if len(set(rewards)) == 1:
            continue
        advantages = group_advantages(rewards)
        old_lps = [response_log_prob(old.tables[0].logps, r) for r in responses]

        cur_lps = policy.tables[0].logps
        ratios = [
            math.exp(response_log_prob(cur_lps, r) - lp) for r, lp in zip(responses, old_lps)
        ]
        near_kink = any(
            abs(r - (1 - cfg.clip_eps)) < 1e-3 or abs(r - (1 + cfg.clip_eps)) < 1e-3
            for r in ratios
        )
        if near_kink:
            continue
        policy = ToyPolicy(policy.prompts, policy.params, [ref.tables[0].logps])
        return policy, responses, advantages, old_lps


def noisy(policy, rng, scale):
    """A one-prompt ``policy`` plus N(0, scale) noise on every logit, drawn in head order."""
    return ToyPolicy(policy.prompts, [
        {name: z + rng.normal(0.0, scale, size=z.shape) for name, z in policy.params[0].items()}
    ])


def policy_objective(policy, responses, advantages, old_lps, cfg):
    """``objective_and_gradients`` on the head tables and KL terms of prompt 0 of ``policy``."""
    return objective_and_gradients(policy.tables[0], policy.kls[0], responses, advantages,
                                   old_lps, cfg)


def finite_difference(policy, evaluate, h=1e-6):
    """Central differences of ``evaluate`` in each logit of the one-prompt ``policy``.

    Each side is a new policy with ``policy``'s reference whose logits differ
    from ``policy``'s in one entry.
    """
    logits = policy.params[0]
    grads = {}
    for name, z in logits.items():
        g = np.zeros_like(z)
        for k in range(z.size):
            sides = []
            for step in (h, -h):
                moved = z.copy()
                moved.flat[k] += step
                sides.append(evaluate(
                    ToyPolicy(policy.prompts, [{**logits, name: moved}], policy.ref_logps)
                ))
            g.flat[k] = (sides[0] - sides[1]) / (2 * h)
        grads[name] = g
    return grads


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2718)
    cfg = GrpoConfig(clip_eps=0.2, kl_beta=0.1)
    for _ in range(25):
        batch = random_gradient_config(rng, cfg)
        _, analytic, _ = policy_objective(*batch, cfg)
        numeric = finite_difference(batch[0], lambda p: policy_objective(p, *batch[1:], cfg)[0])
        flat_a = np.concatenate([analytic[k].ravel() for k in sorted(analytic)])
        flat_n = np.concatenate([numeric[k].ravel() for k in sorted(numeric)])
        err = np.linalg.norm(flat_a - flat_n) / max(np.linalg.norm(flat_n), 1e-8)
        assert err < 1e-5


@pytest.mark.parametrize("task", [TaskKind.TAL, TaskKind.GVQA])
def test_kl_gradient_matches_finite_differences_of_the_kl(task):
    """``prompt_kl``'s gradient against central differences of its value alone.

    Three count choices over three slot heads, so the count head reweights
    the slot KLs; a GVQA prompt adds the answer head. The policy differs
    from its reference in every head.
    """
    rng = np.random.default_rng(1414)
    grid = tuple(Interval(float(i), float(i + 2)) for i in range(4))
    answer = {"gt_answer": "A", "options": ("A", "B", "C")} if task is TaskKind.GVQA else {}
    prompt = PromptSpec(task, (grid[0],), grid, max_instances=3, **answer)
    for _ in range(5):
        start = noisy(ToyPolicy([prompt]), rng, 0.8)
        ref = noisy(start, rng, 0.5)
        policy = ToyPolicy([prompt], start.params, [ref.tables[0].logps])
        assert policy.kls[0].value > 0.0
        analytic = policy.kls[0].grads
        numeric = finite_difference(policy, lambda p: p.kls[0].value)
        assert analytic.keys() == numeric.keys() == policy.params[0].keys()
        for name, g in numeric.items():
            err = np.linalg.norm(analytic[name] - g) / max(np.linalg.norm(g), 1e-8)
            assert err < 1e-5, name


# ---------------------------------------------------------------------------
# Step and simulation behavior


@pytest.fixture(scope="module")
def tg_scenario():
    return load_scenario(SCENARIOS / "tg_basic.json")


def zero_params(prompts):
    """Writable zero logits in ``ToyPolicy``'s layout, to set before a policy takes them."""
    return [{name: np.zeros_like(z) for name, z in head.items()}
            for head in ToyPolicy(prompts).params]


def test_policy_arrays_are_read_only(tg_scenario):
    """A policy is a value: neither its logits nor its tables can be written in place."""
    params = zero_params(tg_scenario.prompts)
    policy = ToyPolicy(tg_scenario.prompts, params)
    assert policy.params[0]["slots"] is params[0]["slots"]  # taken over, not copied
    with pytest.raises(ValueError, match="read-only"):
        policy.params[0]["slots"][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        params[0]["count"] += 1.0
    for table in policy.tables[0]:
        with pytest.raises(ValueError, match="read-only"):
            table["slots"][0, 0] = 0.0
    new, _ = grpo_step(policy, standard_reward_fn(), GrpoConfig(), rng_seed=3)
    assert not any(z.flags.writeable for head in new.params for z in head.values())


def test_zero_learning_rate_is_noop(tg_scenario):
    params = zero_params(tg_scenario.prompts)
    params[0]["slots"][0, 5] = 0.9
    policy = ToyPolicy(tg_scenario.prompts, params)
    new, _ = grpo_step(policy, standard_reward_fn(), GrpoConfig(learning_rate=0.0), rng_seed=3)
    for before, after in zip(policy.params, new.params):
        for key in before:
            assert np.array_equal(before[key], after[key])


def test_step_does_not_mutate_input_policy(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    snapshot = [{k: v.copy() for k, v in h.items()} for h in policy.params]
    grpo_step(policy, standard_reward_fn(), GrpoConfig(), rng_seed=3)
    for before, after in zip(snapshot, policy.params):
        for key in before:
            assert np.array_equal(before[key], after[key])


def test_reward_fn_failure_aborts_step(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)

    def broken(text, prompt):
        raise RuntimeError("scorer exploded")

    with pytest.raises(RuntimeError):
        grpo_step(policy, broken, GrpoConfig(), rng_seed=3)


def test_convergence_to_exact_candidate(tg_scenario):
    res = run_simulation(tg_scenario, GrpoConfig(), steps=200, seed=7)
    prompt = tg_scenario.prompts[0]
    gt = prompt.gt_intervals[0]
    gt_idx = prompt.grid.index(gt)
    p_gt = float(np.exp(res.policy.head_log_probs(0)["slots"][0, gt_idx]))
    assert p_gt > 0.9


def test_simulation_determinism(tg_scenario):
    a = run_simulation(tg_scenario, GrpoConfig(), steps=25, seed=11)
    b = run_simulation(tg_scenario, GrpoConfig(), steps=25, seed=11)
    assert a.curve == b.curve
    for ha, hb in zip(a.policy.params, b.policy.params):
        for key in ha:
            assert np.array_equal(ha[key], hb[key])


def test_zero_steps(tg_scenario):
    res = run_simulation(tg_scenario, GrpoConfig(), steps=0, seed=11)
    assert res.curve == []
    fresh = ToyPolicy(tg_scenario.prompts)
    for ha, hb in zip(res.policy.params, fresh.params):
        for key in ha:
            assert np.array_equal(ha[key], hb[key])


@pytest.mark.parametrize("steps", [0, 3])
def test_head_tables_once_per_prompt_step(monkeypatch, steps):
    """One log-softmax per prompt for the reference, then one per prompt-step.

    The returned policy's tables equal freshly computed ones byte for byte.
    """
    scenario = load_scenario(SCENARIOS / "multitask_five.json")
    calls = []
    head_log_probs = ToyPolicy.head_log_probs

    def counting(policy, idx):
        calls.append(idx)
        return head_log_probs(policy, idx)

    monkeypatch.setattr(ToyPolicy, "head_log_probs", counting)
    res = run_simulation(scenario, GrpoConfig(), steps=steps, seed=3)
    assert len(calls) == len(scenario.prompts) * (steps + 1)
    fresh = [HeadTables.of(res.policy.head_log_probs(i)) for i in range(len(scenario.prompts))]
    assert len(res.policy.tables) == len(fresh)
    for got, expected in zip(res.policy.tables, fresh):
        for field in ("logps", "probs"):
            a, b = getattr(got, field), getattr(expected, field)
            assert a.keys() == b.keys()
            assert all(a[k].tobytes() == b[k].tobytes() for k in b)


@pytest.mark.parametrize("steps", [0, 3])
def test_kl_once_per_prompt_step(monkeypatch, steps):
    """One ``prompt_kl`` per prompt for the initial policy, then one per prompt-step.

    The objective and the step's reported KL read the KL the policy built.
    The returned policy's KL and gradient equal fresh ones against the
    initial policy.
    """
    scenario = load_scenario(SCENARIOS / "multitask_five.json")
    calls = []
    kl = grpo.prompt_kl

    def counting(cur, ref):
        calls.append(ref)
        return kl(cur, ref)

    monkeypatch.setattr(grpo, "prompt_kl", counting)
    res = run_simulation(scenario, GrpoConfig(), steps=steps, seed=3)
    assert len(calls) == len(scenario.prompts) * (steps + 1)
    initial = [HeadTables.of(ToyPolicy(scenario.prompts).head_log_probs(i))
               for i in range(len(scenario.prompts))]
    for got, tables, ref in zip(res.policy.kls, res.policy.tables, initial, strict=True):
        expected = kl(tables, ref.logps)
        assert got.value == expected.value
        assert got.grads.keys() == expected.grads.keys()
        assert all(got.grads[k].tobytes() == expected.grads[k].tobytes() for k in expected.grads)


def test_policy_without_reference_is_its_own(tg_scenario):
    """A policy built without ``ref_logps`` is its reference; a step hands it on.

    The KL's gradient is read-only, like the tables, and a reference must
    have one entry per prompt.
    """
    params = zero_params(tg_scenario.prompts)
    params[0]["slots"][0, 3] = 2.0
    policy = ToyPolicy(tg_scenario.prompts, params)
    assert policy.ref_logps[0] is policy.tables[0].logps
    assert [kl.value for kl in policy.kls] == [0.0]
    new, stats = grpo_step(policy, standard_reward_fn(), GrpoConfig(), rng_seed=3)
    assert new.ref_logps[0] is policy.ref_logps[0]
    assert stats.kl == new.kls[0].value > 0.0
    arrays = list(new.kls[0].grads.values())
    assert len(arrays) == 2  # count and slots (no answer head)
    for z in arrays:
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
    with pytest.raises(ValueError):
        ToyPolicy(tg_scenario.prompts, ref_logps=[])


def test_large_beta_stays_closer_to_reference(tg_scenario):
    """Paired runs, identical seed and lr, beta 0 vs 1e6.

    The lr is chosen so lr * beta is a stable contraction; a huge penalty
    with a large step size would just oscillate.
    """
    warm = run_simulation(tg_scenario, GrpoConfig(kl_beta=0.0), steps=40, seed=5)
    base_kl = warm.curve[-1].kl
    assert base_kl > 0.01

    def continued(beta):
        policy = warm.policy  # its reference is the run's uniform initial policy
        ref = ToyPolicy(tg_scenario.prompts)
        cfg = GrpoConfig(kl_beta=beta, learning_rate=1e-7)
        for t in range(20):
            policy, stats = grpo_step(policy, standard_reward_fn(), cfg, rng_seed=(99, t))
        return sum(
            prompt_kl(HeadTables.of(policy.head_log_probs(i)), ref.head_log_probs(i)).value
            for i in range(len(policy.prompts))
        )

    assert continued(1e6) < continued(0.0)


def test_clipping_exercised_with_inner_steps(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    cfg = GrpoConfig(learning_rate=2.0)
    fractions = []
    for t in range(8):
        policy, stats = grpo_step(policy, standard_reward_fn(), cfg, rng_seed=(5, t), inner_steps=4)
        fractions.append(stats.clip_fraction)
    assert max(fractions) > 0.0


def test_constant_reward_still_counts_clipping(tg_scenario):
    """Zero-advantage responses add no gradient, yet count as clipped at later inner steps.

    Every reward is equal, so only the KL pull toward the uniform reference
    moves the peaked policy, raising the ratios of its off-peak responses
    past 1 + eps. 0.625 (5 of 8) is what the per-response step counted.
    """
    ref = ToyPolicy(tg_scenario.prompts)
    params = zero_params(tg_scenario.prompts)
    params[0]["slots"][0, 0] += 3.0
    policy = ToyPolicy(tg_scenario.prompts, params, [t.logps for t in ref.tables])
    cfg = GrpoConfig(kl_beta=1.0, learning_rate=1.0)
    _, stats = grpo_step(policy, lambda text, prompt: 1.0, cfg, rng_seed=3, inner_steps=4)
    assert stats.clip_fraction == 0.625


def test_single_inner_step_never_clips(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    _, stats = grpo_step(policy, standard_reward_fn(), GrpoConfig(), rng_seed=3)
    assert stats.clip_fraction == 0.0


# Six inner_steps=4 steps on the five-task scenario (lr 2.0, beta 0.2, seeds
# (17, t)): the sha256 of the final params and each step's (mean_reward, kl,
# clip_fraction) as float.hex(), as the per-response, per-slot step made them.
# The CLI runs one inner step, so no golden output reaches this clipping path.
_INNER_STEPS_PIN = {
    "explicit ref": (
        "7f3af540bb78d6417cbfc3ff6d3e42fee97d30975cd85cba97e11243e76c99b1",
        [
            ("0x1.468d927418b4ep+0", "0x1.1b5e5dd254b3cp+2", "0x1.e666666666666p-1"),
            ("0x1.6f45dda05b34ap+0", "0x1.af5320391f35cp+2", "0x1.e666666666666p-1"),
            ("0x1.7a31000bd531fp+0", "0x1.26a7cf6c61dd1p+3", "0x1.0000000000000p+0"),
            ("0x1.7a4c08bcc8fd2p+0", "0x1.7fac1dcb2914cp+4", "0x1.a666666666666p-1"),
            ("0x1.8da37fdfdd933p+0", "0x1.ca00067072594p+4", "0x1.999999999999ap-1"),
            ("0x1.9a0d89aadbb16p+0", "0x1.d1579c509920ap+4", "0x1.199999999999ap-1"),
        ],
    ),
    "input as ref": (
        "1c2df30928a1bfcc984941012ecf837b091e5890b518aa2f9ba9bd2bf60eda30",
        [
            ("0x1.468d927418b4ep+0", "0x1.1b5e5dd254b3cp+2", "0x1.e666666666666p-1"),
            ("0x1.6f45dda05b34ap+0", "0x1.4cda97d896d16p+1", "0x1.d99999999999ap-1"),
            ("0x1.7a15d434b9a38p+0", "0x1.4a6f385d0395cp+1", "0x1.e666666666666p-1"),
            ("0x1.7d5304b180246p+0", "0x1.f9ed99bc898aep+1", "0x1.0000000000000p+0"),
            ("0x1.8e2758d81e6aep+0", "0x1.0aef0bffeffeep+2", "0x1.8cccccccccccdp-1"),
            ("0x1.9ac6723c606bep+0", "0x1.df27d4cd98446p+1", "0x1.199999999999ap-1"),
        ],
    ),
}


@pytest.mark.parametrize("ref_kind", sorted(_INNER_STEPS_PIN))
def test_inner_steps_pinned_bitwise(ref_kind):
    scenario = load_scenario(SCENARIOS / "multitask_five.json")
    policy = ToyPolicy(scenario.prompts)
    cfg = GrpoConfig(learning_rate=2.0, kl_beta=0.2)
    stats = []
    for t in range(6):
        if ref_kind == "input as ref":
            policy = ToyPolicy(policy.prompts, policy.params)  # its own reference
        policy, s = grpo_step(policy, standard_reward_fn(), cfg, rng_seed=(17, t), inner_steps=4)
        stats.append(tuple(float(v).hex() for v in (s.mean_reward, s.kl, s.clip_fraction)))
    digest = hashlib.sha256()
    for head in policy.params:
        for name in sorted(head):
            digest.update(np.ascontiguousarray(head[name]).tobytes())
    assert (digest.hexdigest(), stats) == _INNER_STEPS_PIN[ref_kind]


def _one_slot_prompt() -> PromptSpec:
    """A TG prompt over two candidates: one count choice, one slot head of two."""
    return PromptSpec(task=TaskKind.TG, gt_intervals=(Interval(0, 1),),
                      grid=(Interval(0, 1), Interval(1, 2)))


@pytest.mark.parametrize(
    "adv, ratio, objective, n_clipped",
    [
        (1.0, 1.5, 1.2, 1),    # positive advantage, clipped above
        (1.0, 1.1, 1.1, 0),
        (-1.0, 0.5, -0.8, 1),  # negative advantage, clipped below
        (-1.0, 1.5, -1.5, 0),
        (0.0, 1.5, 0.0, 1),    # no gradient, but the ratio left the clip range
        (0.0, 1.0, 0.0, 0),
    ],
)
def test_clipped_surrogate_worked_examples(adv, ratio, objective, n_clipped):
    policy = ToyPolicy([_one_slot_prompt()])  # its own reference
    cur, kl = policy.tables[0], policy.kls[0]
    resp = SampledResponse(slots=(0,))
    old = response_log_prob(cur.logps, resp) - math.log(ratio)
    cfg = GrpoConfig(clip_eps=0.2, kl_beta=0.0)
    got, grads, clipped = objective_and_gradients(cur, kl, [resp], [adv], [old], cfg)
    assert got == pytest.approx(objective, abs=1e-12)
    assert clipped == n_clipped
    assert kl.value == 0.0
    if clipped or adv == 0.0:
        assert all(not g.any() for g in grads.values())


def test_kl_worked_example_and_penalty():
    cur = HeadTables.of({"count": np.zeros(1), "slots": np.log([[0.5, 0.5]])})
    ref = {"count": np.zeros(1), "slots": np.log([[0.75, 0.25]])}
    kl = prompt_kl(cur, ref)
    assert kl.value == pytest.approx(0.1438, abs=1e-4)
    cfg = GrpoConfig(kl_beta=0.5)
    objective, _, _ = objective_and_gradients(cur, kl, [], [], [], cfg)
    assert objective == -0.5 * kl.value


@pytest.mark.parametrize("scale", [0.1, 1.0, 8.0, 40.0])
def test_rowwise_numpy_matches_per_row(scale):
    """Row-wise exp, sum(axis=1) and cumsum(axis=1) give each row's own doubles.

    The step builds every slot head's CDF, KL term and gradient from whole
    matrices; the seeded curves were made one row at a time.
    """
    rng = np.random.default_rng(int(scale * 10))
    for _ in range(150):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 601))
        prompt = PromptSpec(
            task=TaskKind.TAL, gt_intervals=(Interval(0, 1),),
            grid=tuple(Interval(k, k + 1) for k in range(cols)), max_instances=rows,
        )
        policy = ToyPolicy([prompt], [
            {"count": np.zeros(rows), "slots": rng.normal(0.0, scale, size=(rows, cols))}
        ])
        logp = policy.head_log_probs(0)["slots"]
        assert logp.flags.c_contiguous
        probs = np.exp(logp)
        scores = logp - rng.normal(0.0, scale, size=(rows, cols))
        sums = probs.sum(axis=1)
        weighted = (probs * scores).sum(axis=1)
        cdfs = probs.cumsum(axis=1)
        for r in range(rows):
            row = np.exp(logp[r])
            assert row.tobytes() == probs[r].tobytes()
            assert row.sum().tobytes() == sums[r].tobytes()
            assert (row * scores[r]).sum().tobytes() == weighted[r].tobytes()
            assert row.cumsum().tobytes() == cdfs[r].tobytes()


def test_run_decodes_and_scores_each_pair_once(monkeypatch):
    """One reward memo per run: no (prompt, response) is decoded or scored twice."""
    scenario = load_scenario(SCENARIOS / "tal_three.json")
    scorer = standard_reward_fn()
    scored, decoded = [], []

    def counting(text, prompt):
        scored.append((prompt, text))
        return scorer(text, prompt)

    decode = ToyPolicy.decode

    def counting_decode(self, idx, resp):
        decoded.append((idx, resp))
        return decode(self, idx, resp)

    monkeypatch.setattr(ToyPolicy, "decode", counting_decode)
    res = run_simulation(scenario, GrpoConfig(), steps=60, seed=2, reward_fn=counting)
    assert len(set(decoded)) == len(decoded) == len(set(scored)) == len(scored)
    assert res.curve == run_simulation(scenario, GrpoConfig(), steps=60, seed=2).curve


def test_run_matches_independent_steps():
    """A run's one reward memo gives what fresh grpo_step calls give, bit for bit."""
    scenario = load_scenario(SCENARIOS / "multitask_five.json")
    cfg = GrpoConfig(kl_beta=0.3, learning_rate=1.5)
    scorer = standard_reward_fn()
    run_calls, step_calls = [], []

    def counted(calls):
        return lambda text, prompt: calls.append(text) or scorer(text, prompt)

    res = run_simulation(scenario, cfg, steps=12, seed=4, reward_fn=counted(run_calls))
    policy = ToyPolicy(scenario.prompts)
    curve = []
    for t in range(12):
        policy, stats = grpo_step(policy, counted(step_calls), cfg, rng_seed=(4, t))
        curve.append((stats.mean_reward, stats.kl, stats.clip_fraction))
    assert [(p.mean_reward, p.kl, p.clip_fraction) for p in res.curve] == curve
    # a step on its own scores each distinct response of a group; the run, each one once
    assert len(run_calls) < len(step_calls)
    for got, expected in zip(res.policy.params, policy.params):
        for key in expected:
            assert got[key].tobytes() == expected[key].tobytes()


def test_policy_probabilities_sum_to_one(tg_scenario):
    params = zero_params(tg_scenario.prompts)
    rng = np.random.default_rng(0)
    for head in params[0].values():
        head += rng.normal(0, 2, size=head.shape)
    logps = ToyPolicy(tg_scenario.prompts, params).head_log_probs(0)
    assert np.exp(logps["count"]).sum() == pytest.approx(1.0, abs=1e-12)
    for row in np.exp(logps["slots"]):
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_prompt_kl_zero_for_identical_policies(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    logps = policy.head_log_probs(0)
    assert prompt_kl(HeadTables.of(logps), logps).value == pytest.approx(0.0, abs=1e-12)


def test_response_log_prob_matches_manual():
    prompt = PromptSpec(
        task=TaskKind.TAL,
        gt_intervals=(Interval(0, 1),),
        grid=(Interval(0, 1), Interval(1, 2), Interval(2, 3)),
        max_instances=2,
    )
    policy = ToyPolicy([prompt])
    logps = policy.head_log_probs(0)
    resp = SampledResponse(slots=(2, 0))
    expected = math.log(1 / 2) + 2 * math.log(1 / 3)
    assert response_log_prob(logps, resp) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Group sampling and scoring


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_instances=st.integers(1, 6),
    n_grid=st.integers(1, 40),
    with_answer=st.booleans(),
    scale=st.sampled_from([0.0, 1.0, 5.0, 30.0]),
    spike=st.sampled_from([None, "count", "slots", "answer"]),
    group_size=st.integers(1, 12),
)
def test_group_sampler_matches_per_draw_choice(
    seed, max_instances, n_grid, with_answer, scale, spike, group_size
):
    """Same responses and same generator state as one ``rng.choice`` per draw."""
    grid = tuple(Interval(float(i), float(i + 1)) for i in range(n_grid))
    prompt = PromptSpec(
        task=TaskKind.GVQA if with_answer else TaskKind.TAL,
        gt_intervals=(grid[0],),
        grid=grid,
        max_instances=max_instances,
        gt_answer="A" if with_answer else None,
        options=("A", "B", "C", "D") if with_answer else (),
    )
    params = zero_params([prompt])
    logit_rng = np.random.default_rng(seed)
    for head in params[0].values():
        head += logit_rng.normal(0.0, scale, size=head.shape)
    if spike is not None and spike in params[0]:
        # one head puts all but ~1e-17 of its mass on a single choice
        head = params[0][spike].reshape(-1)
        head[int(logit_rng.integers(head.size))] += 40.0
    logps = ToyPolicy([prompt], params).head_log_probs(0)

    fast_rng = np.random.default_rng((seed, 1))
    ref_rng = np.random.default_rng((seed, 1))
    got = sample_group(HeadTables.of(logps), fast_rng, group_size)
    expected = [choice_sample(logps, ref_rng) for _ in range(group_size)]
    assert got == expected
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def test_group_sampler_rejects_nan_logits():
    prompt = PromptSpec(task=TaskKind.TG, gt_intervals=(Interval(0, 1),),
                        grid=(Interval(0, 1), Interval(1, 2)))
    params = zero_params([prompt])
    params[0]["slots"][0, 0] = np.nan
    with pytest.raises(ValueError, match="probabilities"):
        sample_group(ToyPolicy([prompt], params).tables[0], np.random.default_rng(0), 4)


def test_each_distinct_response_scored_once(monkeypatch):
    """Repeats reuse their reward; rewards and advantages equal per-response scoring."""
    base = {"duration": 60, "grid_step": 10}
    scenario = scenario_from_dict({"prompts": [
        {**base, "task": "TAL", "max_instances": 3, "gt_intervals": [[0, 10], [30, 40]]},
        {**base, "task": "GVQA", "max_instances": 2, "gt_intervals": [[10, 20]],
         "options": ["A", "B"], "gt_answer": "B"},
        {**base, "task": "TG", "gt_intervals": [[20, 40]]},
        {**base, "task": "DTG", "max_instances": 2, "gt_intervals": [[0, 10], [40, 60]]},
    ]})
    params = zero_params(scenario.prompts)
    rng = np.random.default_rng(4)
    for head in params:
        # peaked heads so a group of 8 repeats responses
        head["count"][-1] += 3.0
        head["slots"][:, rng.integers(head["slots"].shape[1], size=2)] += 4.0
    policy = ToyPolicy(scenario.prompts, params)
    cfg = GrpoConfig()
    scorer = standard_reward_fn()
    calls = []

    def counting(text, prompt):
        calls.append(text)
        return scorer(text, prompt)

    seen = []

    def spy(rewards, std_floor=1e-6):
        advantages = group_advantages(rewards, std_floor)
        seen.append((list(rewards), advantages))
        return advantages

    monkeypatch.setattr(grpo, "group_advantages", spy)
    _, stats = grpo_step(policy, counting, cfg, rng_seed=(9, 0))

    draw_rng = np.random.default_rng((9, 0))
    distinct = 0
    expected_rewards = []
    for i in range(len(policy.prompts)):
        logps = policy.head_log_probs(i)
        group = [choice_sample(logps, draw_rng) for _ in range(cfg.group_size)]
        distinct += len(set(group))
        expected_rewards.append(
            [scorer(policy.decode(i, r), policy.prompts[i]) for r in group]
        )
    assert distinct < len(policy.prompts) * cfg.group_size  # the memo was exercised
    assert len(calls) == distinct
    assert [r for r, _ in seen] == expected_rewards
    assert [a for _, a in seen] == [group_advantages(r) for r in expected_rewards]
    flat = [v for group in expected_rewards for v in group]
    assert stats.mean_reward == sum(flat) / len(flat)


# ---------------------------------------------------------------------------
# Scenario files


class TestScenarios:
    def test_bundled_scenarios_load(self):
        tg = load_scenario(SCENARIOS / "tg_basic.json")
        tal = load_scenario(SCENARIOS / "tal_three.json")
        assert tg.prompts[0].task is TaskKind.TG
        assert tal.prompts[0].task is TaskKind.TAL
        assert len(tal.prompts[0].gt_intervals) == 3

    def test_uniform_grid_size(self):
        grid = uniform_grid(100.0, 10.0)
        assert len(grid) == 55  # C(11, 2) ordered endpoint pairs
        assert Interval(20.0, 30.0) in grid

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario key 'foo'"):
            scenario_from_dict({"name": "x", "prompts": [], "foo": 1})

    def test_unknown_prompt_key(self):
        with pytest.raises(ScenarioError, match="unknown scenario key 'wat'"):
            scenario_from_dict(
                {
                    "name": "x",
                    "prompts": [
                        {"task": "TG", "duration": 10, "grid_step": 5,
                         "gt_intervals": [[0, 5]], "wat": 1}
                    ],
                }
            )

    @pytest.mark.parametrize("text", ["A", "the dog", "é", "", " A", "A\n", "<b>", "a>b"])
    def test_options_follow_the_answer_text_rule_of_serialize(self, text):
        """A GVQA option is exactly an answer text that serialize accepts and
        that prints as one ``key=value`` field ("the dog" is the one that does not)."""
        try:
            serialize(ParsedOutput(intervals=(), answer_text=text), TaskKind.GVQA)
            serializable = True
        except ValueError:
            serializable = False
        try:
            PromptSpec(TaskKind.GVQA, (Interval(0, 5),), (Interval(0, 5),),
                       gt_answer="yes", options=("yes", text))  # distinct from text
            accepted = True
        except ScenarioError:
            accepted = False
        assert serializable == _is_answer_text(text)
        assert accepted == (serializable and _field_fault(text) is None)

    def test_gvqa_requires_options(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {
                    "name": "x",
                    "prompts": [
                        {"task": "GVQA", "duration": 10, "grid_step": 5,
                         "gt_intervals": [[0, 5]], "gt_answer": "A"}
                    ],
                }
            )

    def test_grid_and_step_mutually_exclusive(self):
        with pytest.raises(ScenarioError, match="not both"):
            scenario_from_dict(
                {
                    "name": "x",
                    "prompts": [
                        {"task": "TG", "duration": 10, "grid_step": 5,
                         "grid": [[0, 5]], "gt_intervals": [[0, 5]]}
                    ],
                }
            )

    def test_empty_prompts_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"name": "x", "prompts": []})

    def test_bundled_grpo_config(self):
        scn = scenario_from_dict(
            {
                "name": "x",
                "grpo": {"group_size": 16, "kl_beta": 0.1},
                "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                             "gt_intervals": [[0, 5]]}],
            }
        )
        assert scn.grpo == GrpoConfig(group_size=16, kl_beta=0.1)

    def test_unknown_grpo_key(self):
        with pytest.raises(ScenarioError, match="grpo.epsilon"):
            scenario_from_dict(
                {
                    "name": "x",
                    "grpo": {"epsilon": 0.3},
                    "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                                 "gt_intervals": [[0, 5]]}],
                }
            )

    def test_invalid_grpo_values_rejected(self):
        with pytest.raises(ScenarioError, match="grpo config"):
            scenario_from_dict(
                {
                    "name": "x",
                    "grpo": {"group_size": 1},
                    "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                                 "gt_intervals": [[0, 5]]}],
                }
            )

    def test_grpo_group_size_over_limit_rejected(self):
        message = "^bad grpo config: group_size 4097 exceeds the limit of 4096$"
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(
                {
                    "grpo": {"group_size": MAX_GROUP_SIZE + 1},
                    "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                                 "gt_intervals": [[0, 5]]}],
                }
            )

    def test_grid_size_checked_before_building(self, monkeypatch):
        def no_intervals(*args):
            raise AssertionError("grid built before its size was checked")

        monkeypatch.setattr(grpo, "Interval", no_intervals)
        # 6,000 steps: 6000 * 6001 / 2 candidates, about 18M intervals
        with pytest.raises(ScenarioError, match="18003000 candidates exceeds the limit"):
            uniform_grid(600.0, 0.1)
        with pytest.raises(ScenarioError, match="too small"):
            uniform_grid(1e300, 1e-300)

    def test_grid_at_limit_accepted(self):
        # n = 315 steps: 315 * 316 / 2 = 49,770 candidates
        assert len(uniform_grid(315.0, 1.0)) == 49_770 <= MAX_GRID_CANDIDATES

    def test_slot_logits_checked_before_policy(self):
        with pytest.raises(ScenarioError, match="prompt 0: .*55000000000000 slot logits"):
            scenario_from_dict(
                {
                    "prompts": [{"task": "TAL", "duration": 100, "grid_step": 10,
                                 "max_instances": 10**12, "gt_intervals": [[0, 10]]}],
                }
            )
        grid = uniform_grid(100.0, 10.0)
        limit = MAX_SLOT_LOGITS // len(grid)
        PromptSpec(task=TaskKind.TAL, gt_intervals=grid[:1], grid=grid, max_instances=limit)
        with pytest.raises(ScenarioError, match="exceed the limit"):
            PromptSpec(task=TaskKind.TAL, gt_intervals=grid[:1], grid=grid,
                       max_instances=limit + 1)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("duration", True),
            ("duration", float("inf")),
            ("duration", float("nan")),
            ("duration", "100"),
            ("duration", 10**400),
            ("grid_step", False),
            ("grid_step", float("-inf")),
            ("grid_step", None),
        ],
    )
    def test_scenario_numbers_strict(self, key, value):
        prompt = {"task": "TG", "duration": 100, "grid_step": 10, "gt_intervals": [[0, 10]]}
        prompt[key] = value
        with pytest.raises(ScenarioError, match=f"prompt 0: {key} must be a finite number"):
            scenario_from_dict({"prompts": [prompt]})

    @pytest.mark.parametrize("value", [True, 2.0, float("inf"), float("nan"), "3"])
    def test_max_instances_must_be_integer(self, value):
        prompt = {"task": "TAL", "duration": 100, "grid_step": 10, "gt_intervals": [[0, 10]],
                  "max_instances": value}
        with pytest.raises(ScenarioError, match="prompt 0: max_instances must be an integer"):
            scenario_from_dict({"prompts": [prompt]})
