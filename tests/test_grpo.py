import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import choice_sample

from temposcore import (
    GrpoConfig,
    Interval,
    RolloutGroup,
    ScenarioError,
    TaskKind,
    ToyPolicy,
    clipped_objective,
    group_advantages,
    grpo_step,
    kl_divergence,
    load_scenario,
    run_simulation,
    uniform_grid,
)
import temposcore.grpo as grpo
from temposcore.grpo import (
    MAX_GRID_CANDIDATES,
    MAX_SLOT_LOGITS,
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


class TestClippedObjective:
    CFG = GrpoConfig(clip_eps=0.2, kl_beta=0.0)

    def test_on_policy_sums_to_zero(self):
        rewards = (2.0, 1.0, 0.0)
        adv = tuple(group_advantages(list(rewards)))
        group = RolloutGroup(rewards, adv, likelihood_ratios=(1.0, 1.0, 1.0))
        assert clipped_objective(group, self.CFG, kl=0.0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_advantage_clipped_above(self):
        group = RolloutGroup((1.0, 0.0), (1.0, 0.0), (1.5, 1.0))
        assert clipped_objective(group, self.CFG, kl=0.0) == pytest.approx(1.2, abs=1e-12)

    def test_negative_advantage_clipped_below(self):
        group = RolloutGroup((0.0, 1.0), (-1.0, 0.0), (0.5, 1.0))
        assert clipped_objective(group, self.CFG, kl=0.0) == pytest.approx(-0.8, abs=1e-12)

    def test_kl_penalty_subtracts(self):
        cfg = GrpoConfig(clip_eps=0.2, kl_beta=0.5)
        group = RolloutGroup((1.0, 0.0), (0.0, 0.0), (1.0, 1.0))
        assert clipped_objective(group, cfg, kl=2.0) == pytest.approx(-1.0, abs=1e-12)

    @given(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=8),
        st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=2, max_size=8),
    )
    def test_per_response_contribution_bounded(self, advantages, ratios):
        n = min(len(advantages), len(ratios))
        advantages, ratios = advantages[:n], ratios[:n]
        cfg = GrpoConfig(clip_eps=0.2, kl_beta=0.0)
        for a, r in zip(advantages, ratios):
            clipped = min(max(r, 1 - cfg.clip_eps), 1 + cfg.clip_eps)
            assert min(r * a, clipped * a) <= (1 + cfg.clip_eps) * abs(a) + 1e-12
        group = RolloutGroup(tuple([0.0] * n), tuple(advantages), tuple(ratios))
        total = clipped_objective(group, cfg, kl=0.0)
        bound = sum((1 + cfg.clip_eps) * abs(a) for a in advantages)
        assert total <= bound + 1e-9


class TestKlDivergence:
    def test_identical_tables(self):
        table = [math.log(0.3), math.log(0.7)]
        assert kl_divergence(table, table) == 0.0

    def test_worked_example(self):
        cur = [math.log(0.5), math.log(0.5)]
        ref = [math.log(0.75), math.log(0.25)]
        assert kl_divergence(cur, ref) == pytest.approx(0.1438, abs=1e-4)

    def test_degenerate_current(self):
        cur = [0.0, -math.inf]
        ref = [math.log(0.5), math.log(0.5)]
        assert kl_divergence(cur, ref) == pytest.approx(math.log(2), abs=1e-12)

    def test_support_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([0.0], [math.log(0.5), math.log(0.5)])

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=10), st.data())
    def test_non_negative(self, weights, data):
        other = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=len(weights), max_size=len(weights))
        )
        p = np.log(np.array(weights) / sum(weights))
        q = np.log(np.array(other) / sum(other))
        assert kl_divergence(list(p), list(q)) >= 0.0


class TestRolloutGroup:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            RolloutGroup((1.0,), (0.0,), (1.0,))

    def test_ratio_positivity(self):
        with pytest.raises(ValueError):
            RolloutGroup((1.0, 2.0), (0.0, 0.0), (1.0, 0.0))

    def test_length_agreement(self):
        with pytest.raises(ValueError):
            RolloutGroup((1.0, 2.0), (0.0,), (1.0, 1.0))


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
    """A random (logits, responses, advantages, old-logps, ref) tuple.

    Configurations whose ratios sit within 1e-3 of a clip boundary are
    rejected: the objective has a kink there and central differences are
    meaningless at the kink itself.
    """
    while True:
        prompt = random_prompt(rng)
        policy = ToyPolicy([prompt])
        for head in policy.params[0].values():
            head += rng.normal(0.0, 0.8, size=head.shape)
        old = policy.copy()
        for head in old.params[0].values():
            head += rng.normal(0.0, 0.3, size=head.shape)
        ref = policy.copy()
        for head in ref.params[0].values():
            head += rng.normal(0.0, 0.5, size=head.shape)

        responses = [old.sample(0, rng) for _ in range(4)]
        rewards = [float(rng.uniform(0, 2)) for _ in responses]
        if len(set(rewards)) == 1:
            continue
        advantages = group_advantages(rewards)
        old_lps = [response_log_prob(old.head_log_probs(0), r) for r in responses]

        cur_lps = policy.head_log_probs(0)
        ratios = [
            math.exp(response_log_prob(cur_lps, r) - lp) for r, lp in zip(responses, old_lps)
        ]
        near_kink = any(
            abs(r - (1 - cfg.clip_eps)) < 1e-3 or abs(r - (1 + cfg.clip_eps)) < 1e-3
            for r in ratios
        )
        if near_kink:
            continue
        return policy.params[0], responses, advantages, old_lps, ref.head_log_probs(0)


def finite_difference(logits, evaluate, h=1e-6):
    grads = {}
    for name, z in logits.items():
        g = np.zeros_like(z)
        flat, gf = z.reshape(-1), g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = evaluate()
            flat[k] = orig - h
            down = evaluate()
            flat[k] = orig
            gf[k] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(2718)
    cfg = GrpoConfig(clip_eps=0.2, kl_beta=0.1)
    for _ in range(25):
        logits, responses, advantages, old_lps, ref = random_gradient_config(rng, cfg)
        _, analytic, _, _ = objective_and_gradients(
            logits, responses, advantages, old_lps, ref, cfg
        )
        numeric = finite_difference(
            logits,
            lambda: objective_and_gradients(logits, responses, advantages, old_lps, ref, cfg)[0],
        )
        flat_a = np.concatenate([analytic[k].ravel() for k in sorted(analytic)])
        flat_n = np.concatenate([numeric[k].ravel() for k in sorted(numeric)])
        err = np.linalg.norm(flat_a - flat_n) / max(np.linalg.norm(flat_n), 1e-8)
        assert err < 1e-5


# ---------------------------------------------------------------------------
# Step and simulation behavior


@pytest.fixture(scope="module")
def tg_scenario():
    return load_scenario(SCENARIOS / "tg_basic.json")


def test_zero_learning_rate_is_noop(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    policy.params[0]["slots"][0, 5] = 0.9
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


def test_large_beta_stays_closer_to_reference(tg_scenario):
    """Paired runs, identical seed and lr, beta 0 vs 1e6.

    The lr is chosen so lr * beta is a stable contraction; a huge penalty
    with a large step size would just oscillate.
    """
    warm = run_simulation(tg_scenario, GrpoConfig(kl_beta=0.0), steps=40, seed=5)
    base_kl = warm.curve[-1].kl
    assert base_kl > 0.01

    def continued(beta):
        policy = warm.policy.copy()
        ref = ToyPolicy(tg_scenario.prompts)
        cfg = GrpoConfig(kl_beta=beta, learning_rate=1e-7)
        for t in range(20):
            policy, stats = grpo_step(
                policy, standard_reward_fn(), cfg, rng_seed=(99, t), ref=ref
            )
        return sum(
            prompt_kl(policy.head_log_probs(i), ref.head_log_probs(i))
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


def test_single_inner_step_never_clips(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    _, stats = grpo_step(policy, standard_reward_fn(), GrpoConfig(), rng_seed=3)
    assert stats.clip_fraction == 0.0


def test_policy_probabilities_sum_to_one(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    rng = np.random.default_rng(0)
    for head in policy.params[0].values():
        head += rng.normal(0, 2, size=head.shape)
    logps = policy.head_log_probs(0)
    assert np.exp(logps["count"]).sum() == pytest.approx(1.0, abs=1e-12)
    for row in np.exp(logps["slots"]):
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_prompt_kl_zero_for_identical_policies(tg_scenario):
    policy = ToyPolicy(tg_scenario.prompts)
    logps = policy.head_log_probs(0)
    assert prompt_kl(logps, logps) == pytest.approx(0.0, abs=1e-12)


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
    policy = ToyPolicy([prompt])
    logit_rng = np.random.default_rng(seed)
    for head in policy.params[0].values():
        head += logit_rng.normal(0.0, scale, size=head.shape)
    if spike is not None and spike in policy.params[0]:
        # one head puts all but ~1e-17 of its mass on a single choice
        head = policy.params[0][spike].reshape(-1)
        head[int(logit_rng.integers(head.size))] += 40.0
    logps = policy.head_log_probs(0)

    fast_rng = np.random.default_rng((seed, 1))
    ref_rng = np.random.default_rng((seed, 1))
    got = sample_group(logps, fast_rng, group_size)
    expected = [choice_sample(logps, ref_rng) for _ in range(group_size)]
    assert got == expected
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
    # ToyPolicy.sample is the group sampler with n = 1
    assert policy.sample(0, fast_rng) == choice_sample(logps, ref_rng)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def test_group_sampler_rejects_nan_logits():
    prompt = PromptSpec(task=TaskKind.TG, gt_intervals=(Interval(0, 1),),
                        grid=(Interval(0, 1), Interval(1, 2)))
    policy = ToyPolicy([prompt])
    policy.params[0]["slots"][0, 0] = np.nan
    with pytest.raises(ValueError, match="probabilities"):
        sample_group(policy.head_log_probs(0), np.random.default_rng(0), 4)


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
    policy = ToyPolicy(scenario.prompts)
    rng = np.random.default_rng(4)
    for head in policy.params:
        # peaked heads so a group of 8 repeats responses
        head["count"][-1] += 3.0
        head["slots"][:, rng.integers(head["slots"].shape[1], size=2)] += 4.0
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
