import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_match, dense_dp_match

from temposcore import (
    Interval,
    TalConfig,
    TaskKind,
    classification_reward,
    dp_match,
    instance_number_reward,
    reward_type1,
    reward_type2,
    sequential_match,
    total_reward,
)
from temposcore.rewards import _tal_terms


def ivs(pairs):
    return [Interval(s, e) for s, e in pairs]


timestamps = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
interval_strategy = st.tuples(timestamps, timestamps).map(lambda p: Interval(min(p), max(p)))
interval_lists = st.lists(interval_strategy, min_size=1, max_size=6)
# whole seconds on a short axis: exact IoU ties and zero-length intervals are common
grid_timestamps = st.integers(0, 12)
grid_interval_strategy = st.one_of(
    st.tuples(grid_timestamps, grid_timestamps).map(lambda p: Interval(min(p), max(p))),
    grid_timestamps.map(lambda t: Interval(t, t)),
)


class TestType1:
    def test_identity(self):
        assert reward_type1(ivs([(0, 10)]), ivs([(0, 10)])) == 1.0

    def test_mean_over_pairs(self):
        got = reward_type1(ivs([(0, 10), (20, 30)]), ivs([(5, 15), (20, 30)]))
        assert got == pytest.approx((1 / 3 + 1.0) / 2, abs=1e-4)

    def test_count_mismatch_dilutes(self):
        # one pair with IoU 1/3, denominator max(1, 2) = 2
        got = reward_type1(ivs([(0, 10)]), ivs([(5, 15), (20, 30)]))
        assert got == pytest.approx(1 / 6, abs=1e-4)

    def test_adds_left_to_right(self):
        # ten pairs of IoU 0.1; Python 3.12's sum() would give 1.0 / 10 == 0.1
        preds = ivs([(20 * k, 20 * k + 1) for k in range(10)])
        gts = ivs([(20 * k, 20 * k + 10) for k in range(10)])
        assert reward_type1(preds, gts) == 0.09999999999999999

    def test_empty_preds(self):
        assert reward_type1([], ivs([(0, 1)])) == 0.0

    def test_empty_gts_rejected(self):
        with pytest.raises(ValueError):
            reward_type1(ivs([(0, 1)]), [])

    @given(interval_lists, interval_lists)
    def test_bounded(self, preds, gts):
        assert 0.0 <= reward_type1(preds, gts) <= 1.0


class TestType2:
    def test_partial(self):
        assert reward_type2(ivs([(0, 2), (4, 6)]), ivs([(1, 5)])) == pytest.approx(1 / 3, abs=1e-4)

    def test_identity(self):
        assert reward_type2(ivs([(1, 5)]), ivs([(1, 5)])) == 1.0

    def test_empty_preds(self):
        assert reward_type2([], ivs([(1, 5)])) == 0.0

    @given(interval_lists, interval_lists)
    def test_bounded(self, preds, gts):
        assert 0.0 <= reward_type2(preds, gts) <= 1.0

    @given(interval_lists, st.floats(0.1, 50.0))
    def test_shifting_perfect_preds_never_helps(self, gts, delta):
        base = reward_type2(gts, gts)
        shifted = [Interval(iv.start + delta, iv.end + delta) for iv in gts]
        assert reward_type2(shifted, gts) <= base


class TestInstanceNumberReward:
    def test_exact_match(self):
        assert instance_number_reward(3, 3, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_over_prediction(self):
        assert instance_number_reward(5, 2, 1.0) == pytest.approx(math.exp(-1.5), abs=1e-9)
        assert instance_number_reward(5, 2, 1.0) == pytest.approx(0.2231, abs=1e-4)

    def test_count_floor_at_three(self):
        assert instance_number_reward(7, 10, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert instance_number_reward(7, 10, 1.0) == pytest.approx(0.3679, abs=1e-4)

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError):
            instance_number_reward(3, 0, 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            instance_number_reward(3, 3, 0.0)
        with pytest.raises(ValueError, match=r"^sigma must be positive, got -1.0$"):
            instance_number_reward(3, 3, -1.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 1e999, 10**999, -math.inf],
                             ids=["inf", "nan", "1e999", "10**999", "-inf"])
    def test_non_finite_sigma_rejected(self, sigma):
        # an infinite sigma would give 8 extra instances the full count reward
        with pytest.raises(ValueError, match="^sigma must be a finite number$"):
            instance_number_reward(9, 1, sigma)

    @given(st.integers(0, 50), st.integers(1, 50), st.floats(0.1, 10.0))
    def test_in_unit_interval_and_one_iff_match(self, n_pred, n_gt, sigma):
        r = instance_number_reward(n_pred, n_gt, sigma)
        assert 0.0 < r <= 1.0
        assert (r == 1.0) == (n_pred == n_gt)

    @given(st.integers(1, 20), st.integers(0, 20), st.floats(0.1, 10.0))
    def test_strictly_decreasing_in_mismatch(self, n_gt, n_pred, sigma):
        r_near = instance_number_reward(n_pred, n_gt, sigma)
        further = n_pred + 1 if n_pred >= n_gt else n_pred - 1
        r_far = instance_number_reward(further, n_gt, sigma)
        assert r_far < r_near


class TestDpMatch:
    def test_identity_lists(self):
        m = dp_match(ivs([(0, 5), (10, 15)]), ivs([(0, 5), (10, 15)]))
        assert m.siou == 2.0 and m.f1 == 1.0
        assert m.pairs == ((0, 0), (1, 1))

    def test_two_preds_one_gt(self):
        m = dp_match(ivs([(0, 4), (6, 10)]), ivs([(2, 8)]))
        assert m.siou == pytest.approx(0.25, abs=1e-12)
        assert m.precision == pytest.approx(0.125, abs=1e-12)
        assert m.recall == pytest.approx(0.25, abs=1e-12)
        assert m.f1 == pytest.approx(1 / 6, abs=1e-4)
        assert len(m.pairs) == 1

    def test_no_overlap(self):
        m = dp_match(ivs([(0, 1)]), ivs([(5, 6), (7, 8)]))
        assert m.siou == 0.0 and m.f1 == 0.0 and m.pairs == ()

    def test_empty_preds(self):
        m = dp_match([], ivs([(0, 1)]))
        assert (m.siou, m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0, 0.0)

    def test_empty_gts_rejected(self):
        with pytest.raises(ValueError):
            dp_match(ivs([(0, 1)]), [])

    def test_sorts_internally(self):
        a = dp_match(ivs([(6, 10), (0, 4)]), ivs([(2, 8)]))
        b = dp_match(ivs([(0, 4), (6, 10)]), ivs([(2, 8)]))
        assert a == b

    def test_crossed_lists_beat_sequential(self):
        # positional pairing scores 0 here; the DP skips one side to recover overlap
        preds = ivs([(0, 10), (20, 30)])
        gts = ivs([(18, 28), (40, 50)])
        assert dp_match(preds, gts).siou > sequential_match(preds, gts).siou

    def test_exact_tie_prefers_diagonal(self):
        # both preds have IoU 2/11 with the gt; the backtrack keeps the later one
        m = dp_match(ivs([(9, 12), (18, 21)]), ivs([(10, 20)]))
        assert m.pairs == ((1, 0),)
        assert m.pair_ious == (2 / 11,)

    def test_exact_tie_skips_gt_before_pred(self):
        # p0-g1 and p1-g0 both score 0.5; at the last cell skipping g1 wins
        m = dp_match(ivs([(2, 4), (3, 6)]), ivs([(0, 6), (2, 3)]))
        assert m.pairs == ((1, 0),)

    @given(
        st.lists(grid_interval_strategy, max_size=12),
        st.lists(grid_interval_strategy, min_size=1, max_size=12),
    )
    def test_equals_dense_oracle_on_ties(self, preds, gts):
        got = dp_match(preds, gts)
        want = dense_dp_match(preds, gts)
        assert got.siou.hex() == want.siou.hex()
        assert got == want

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.one_of(interval_strategy, grid_interval_strategy), max_size=60),
        st.lists(st.one_of(interval_strategy, grid_interval_strategy), min_size=1, max_size=60),
    )
    def test_equals_dense_oracle_on_long_lists(self, preds, gts):
        got = dp_match(preds, gts)
        want = dense_dp_match(preds, gts)
        assert got.siou.hex() == want.siou.hex()
        assert got == want

    def test_keeps_only_the_table(self):
        # every cell of 300 identical intervals overlaps: the table, one boxed
        # float per cell (8-byte pointer, 24-byte float), is all that stays
        xs = ivs([(0, 100)] * 300)
        tracemalloc.start()
        try:
            m = dp_match(xs, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.siou == 300.0
        assert peak / 301**2 <= 48

    @given(interval_lists, interval_lists)
    def test_pairs_strictly_monotone(self, preds, gts):
        m = dp_match(preds, gts)
        for (i1, j1), (i2, j2) in zip(m.pairs, m.pairs[1:]):
            assert i1 < i2 and j1 < j2

    @given(interval_lists, interval_lists)
    def test_siou_bounds(self, preds, gts):
        m = dp_match(preds, gts)
        assert 0.0 <= m.siou <= min(len(preds), len(gts))
        assert 0.0 <= m.f1 <= 1.0


class TestSequentialMatch:
    def test_aligned_lists(self):
        assert sequential_match(ivs([(0, 5), (10, 15)]), ivs([(0, 5), (10, 15)])).f1 == 1.0

    def test_positional_pairing_only(self):
        m = sequential_match(ivs([(0, 4), (6, 10)]), ivs([(2, 8)]))
        assert m.siou == pytest.approx(0.25, abs=1e-12)
        assert m.pairs == ((0, 0),)

    def test_sorting_precondition_applied(self):
        m = sequential_match(ivs([(6, 10), (0, 4)]), ivs([(2, 8)]))
        assert m.siou == pytest.approx(0.25, abs=1e-12)


class TestBruteForceMatch:
    def test_single_pair(self):
        assert brute_force_match(ivs([(0, 5)]), ivs([(0, 5)])).siou == 1.0

    def test_enumerates_alternatives(self):
        assert brute_force_match(ivs([(0, 4), (6, 10)]), ivs([(2, 8)])).siou == pytest.approx(
            0.25, abs=1e-12
        )

    def test_size_limit(self):
        many = ivs([(i, i + 1) for i in range(9)])
        with pytest.raises(ValueError):
            brute_force_match(many, ivs([(0, 1)]))

    @given(
        st.lists(interval_strategy, max_size=5),
        st.lists(interval_strategy, min_size=1, max_size=5),
    )
    def test_dp_matches_oracle_exactly(self, preds, gts):
        assert dp_match(preds, gts).siou == brute_force_match(preds, gts).siou

    @given(
        st.lists(interval_strategy, max_size=6),
        st.lists(interval_strategy, min_size=1, max_size=6),
    )
    def test_dp_dominates_sequential(self, preds, gts):
        assert dp_match(preds, gts).siou >= sequential_match(preds, gts).siou


class TestRewardTal:
    def test_perfect_prediction(self):
        gts = ivs([(0, 5), (10, 15), (20, 30)])
        assert _tal_terms(gts, gts, TalConfig(1.0))[0] == pytest.approx(2.0, abs=1e-9)

    def test_worked_example(self):
        got = _tal_terms(ivs([(0, 4), (6, 10)]), ivs([(2, 8)]), TalConfig(1.0))[0]
        assert got == pytest.approx(0.5346, abs=1e-4)

    def test_empty_preds(self):
        got = _tal_terms([], ivs([(2, 8)]), TalConfig(1.0))[0]
        assert got == pytest.approx(math.exp(-1.0), abs=1e-9)

    @given(st.lists(interval_strategy, max_size=6), interval_lists, st.floats(0.2, 5.0))
    def test_bounded(self, preds, gts, sigma):
        assert 0.0 < _tal_terms(preds, gts, TalConfig(sigma))[0] <= 2.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            TalConfig(sigma=-1.0)


class TestClassificationReward:
    @pytest.mark.parametrize(
        "pred,gt,expected",
        [
            ("B", "B", 1),
            ("b.", "B", 1),
            ("C", "B", 0),
            ("  b  ", "B", 1),
            ("B)", "B", 1),
            ("b) the dog runs", "B", 1),
            ("bright", "B", 0),
            ("", "B", 0),
            ("yes", "Yes", 1),
            ("yes.", "YES", 1),
            ("no", "yes", 0),
        ],
    )
    def test_normalization(self, pred, gt, expected):
        assert classification_reward(pred, gt) == expected

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            classification_reward("A", "  ")


class TestTotalReward:
    def test_perfect_tg(self):
        b = total_reward("<answer>12.3 to 34.5</answer>", TaskKind.TG, ivs([(12.3, 34.5)]))
        assert (b.format, b.localization, b.total) == (1.0, 1.0, 2.0)
        assert b.classification is None

    def test_unparsable_floors_everything(self):
        b = total_reward("not even close", TaskKind.TG, ivs([(0, 5)]))
        assert (b.format, b.localization, b.total) == (0.0, 0.0, 0.0)

    def test_gvqa_with_half_overlap_evidence(self):
        # evidence [0,2] vs gt [0,4]: merged-set IoU exactly 0.5
        raw = "<answer>B</answer><glue>0.0 to 2.0</glue>"
        b = total_reward(raw, TaskKind.GVQA, ivs([(0, 4)]), gt_answer="B")
        assert b.format == 1.0
        assert b.localization == pytest.approx(0.5, abs=1e-12)
        assert b.classification == 1.0
        assert b.total == pytest.approx(2.5, abs=1e-12)

    def test_partial_credit_on_arity_failure(self):
        # two intervals for TG: format 0, but the times still score
        raw = "<answer>0.0 to 10.0, 0.0 to 10.0</answer>"
        b = total_reward(raw, TaskKind.TG, ivs([(0, 10)]))
        assert b.format == 0.0
        assert b.localization == pytest.approx(0.5, abs=1e-12)  # diluted by max count

    def test_tal_empty_extraction_keeps_count_term(self):
        # block present but no readable pair: counts as zero predictions
        b = total_reward("<answer>junk</answer>", TaskKind.TAL, ivs([(2, 8)]))
        assert b.format == 0.0
        assert b.localization == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_tal_missing_block_scores_zero(self):
        b = total_reward("junk", TaskKind.TAL, ivs([(2, 8)]))
        assert b.localization == 0.0 and b.total == 0.0
        assert b.match is None and b.num is None

    def test_tal_breakdown_carries_terms(self):
        gts = ivs([(2, 8)])
        raw = "<answer>0.0 to 4.0, 6.0 to 10.0</answer>"
        b = total_reward(raw, TaskKind.TAL, gts, tal_normalize=True)
        assert b.match == dp_match(ivs([(0, 4), (6, 10)]), gts)
        assert b.num == instance_number_reward(2, 1, 1.0)
        assert b.localization == 0.5 * (b.num + b.match.f1)

    def test_non_tal_breakdown_has_no_terms(self):
        b = total_reward("<answer>0.0 to 4.0</answer>", TaskKind.DTG, ivs([(2, 8)]))
        assert b.match is None and b.num is None

    def test_tal_normalize_flag(self):
        gts = ivs([(0, 5), (10, 15)])
        raw = "<answer>0.0 to 5.0, 10.0 to 15.0</answer>"
        plain = total_reward(raw, TaskKind.TAL, gts)
        halved = total_reward(raw, TaskKind.TAL, gts, tal_normalize=True)
        assert plain.localization == pytest.approx(2.0, abs=1e-9)
        assert halved.localization == pytest.approx(1.0, abs=1e-9)

    def test_gt_answer_contract(self):
        with pytest.raises(ValueError):
            total_reward("<answer>1 to 2</answer>", TaskKind.TG, ivs([(1, 2)]), gt_answer="A")
        with pytest.raises(ValueError):
            total_reward("<answer>A</answer><glue></glue>", TaskKind.GVQA, ivs([(1, 2)]))

    def test_gvqa_wrong_option(self):
        raw = "<answer>C</answer><glue>1.0 to 2.0</glue>"
        b = total_reward(raw, TaskKind.GVQA, ivs([(1, 2)]), gt_answer="B")
        assert b.classification == 0.0
        assert b.total == pytest.approx(2.0, abs=1e-12)  # format 1 + loc 1 + cls 0

    @pytest.mark.parametrize(
        "task", [TaskKind.TG, TaskKind.DTG, TaskKind.VHD, TaskKind.TAL, TaskKind.GVQA]
    )
    def test_decomposition_fieldwise(self, task):
        from temposcore import ParsedOutput, serialize

        gts = tuple(ivs([(3, 9), (20, 26)])) if task is not TaskKind.TG else tuple(ivs([(3, 9)]))
        answer = "B" if task is TaskKind.GVQA else None
        raw = serialize(ParsedOutput(intervals=gts, answer_text=answer), task)
        b = total_reward(raw, task, gts, gt_answer=answer)
        expected = b.format + b.localization + (b.classification or 0.0)
        assert b.total == pytest.approx(expected, abs=1e-12)
        if task is TaskKind.GVQA:
            assert b.classification is not None
        else:
            assert b.classification is None

    @pytest.mark.parametrize("task", list(TaskKind))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_perfect_prediction_maximizes(self, task, data):
        from temposcore import ParsedOutput, serialize

        n = 1 if task is TaskKind.TG else data.draw(st.integers(1, 4))
        starts = sorted(
            data.draw(
                st.lists(
                    st.floats(0, 80, allow_nan=False), min_size=n, max_size=n, unique=True
                )
            )
        )
        gts = tuple(Interval(s, s + 1.5) for s in starts)
        answer = "A" if task is TaskKind.GVQA else None
        raw = serialize(ParsedOutput(intervals=gts, answer_text=answer), task)
        b = total_reward(raw, task, gts, gt_answer=answer)
        if task is TaskKind.TAL:
            assert b.localization == pytest.approx(2.0, abs=1e-9)
        else:
            assert b.localization == pytest.approx(1.0, abs=1e-9)
        assert b.format == 1.0
