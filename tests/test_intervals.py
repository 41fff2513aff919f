import math
import pickle
from operator import attrgetter

import pytest
from hypothesis import example, given, strategies as st

from helpers import checked_interval_from_pair
from temposcore import Interval, IntervalSet, iou, merge, set_iou
from temposcore.intervals import _interval_from_pair


def ivs(pairs):
    return [Interval(s, e) for s, e in pairs]


def positive_interval(max_t=100.0):
    return (
        st.tuples(
            st.floats(0.0, max_t, allow_nan=False, allow_infinity=False),
            st.floats(0.0, max_t, allow_nan=False, allow_infinity=False),
        )
        .map(lambda p: Interval(min(p), max(p)))
    )


# timestamps at millisecond resolution: differences stay far above the ulp,
# so strict comparisons in the iff-style properties are meaningful
grid_times = st.floats(0.0, 100.0, allow_nan=False).map(lambda t: round(t, 3))
grid_interval = st.tuples(grid_times, grid_times).map(lambda p: Interval(min(p), max(p)))
positive_length_interval = grid_interval.filter(lambda iv: iv.length > 0)


class TestIntervalValidity:
    def test_zero_length_allowed(self):
        assert Interval(3.0, 3.0).length == 0.0

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 4.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Interval(-1.0, 4.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Interval(0.0, bad)

    def test_endpoints_coerced_to_float(self):
        iv = Interval(1, 2)
        assert isinstance(iv.start, float) and isinstance(iv.end, float)


class TestTupleContract:
    def test_is_a_float_pair(self):
        iv = Interval(start=1, end=2)
        assert iv == Interval(1.0, 2.0) == (1.0, 2.0)
        assert tuple(iv) == (1.0, 2.0) and iv.length == 1.0
        assert repr(iv) == "Interval(start=1.0, end=2.0)"
        assert hash(iv) == hash((1.0, 2.0))

    def test_make_and_replace_are_checked(self):
        assert Interval._make([1, 2]) == Interval(1.0, 2.0)
        assert Interval(1.0, 2.0)._replace(end=3) == Interval(1.0, 3.0)
        with pytest.raises(ValueError, match="end < start"):
            Interval._make([3.0, 1.0])
        with pytest.raises(ValueError, match=">= 0"):
            Interval(1.0, 2.0)._replace(start=-1.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        iv = Interval(0.5, 3.0)
        back = pickle.loads(pickle.dumps(iv, protocol))
        assert type(back) is Interval and back == iv

    @pytest.mark.parametrize(
        "start, end, message",
        [
            (0.0, math.nan, "interval endpoints must be finite, got (0.0, nan)"),
            (math.inf, 1.0, "interval endpoints must be finite, got (inf, 1.0)"),
            (-1, 4, "interval endpoints must be >= 0, got (-1.0, 4.0)"),
            (5, 4, "interval end < start: (5.0, 4.0)"),
        ],
    )
    def test_constructor_messages(self, start, end, message):
        with pytest.raises(ValueError) as info:
            Interval(start, end)
        assert str(info.value) == message

    @given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 1.0, 2.5]),
                              st.sampled_from([-0.0, 0.0, 2.5, 3.0])), max_size=12))
    def test_sorted_is_the_old_chronological_order(self, pairs):
        xs = [Interval(s, max(s, e)) for s, e in pairs]
        want = sorted(xs, key=attrgetter("start", "end"))
        got = sorted(xs)
        # the same objects in the same order: ties (0.0 and -0.0 too) keep input order
        assert [id(iv) for iv in got] == [id(iv) for iv in want]


# every kind of JSON-decoded endpoint the edge can meet, and a few it cannot
endpoints = st.one_of(
    st.floats(),  # finite, -0.0, 5e-324, +-inf and nan
    st.integers(-10, 10**6),
    st.integers(2**1024, 2**1100).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.floats(0.0, 100.0).map(repr),
    st.none(),
)
float_pairs = st.tuples(st.floats(0.0, 1e6), st.floats(0.0, 1e6)).map(sorted)


@given(st.one_of(
    float_pairs,
    st.lists(st.sampled_from([-0.0, 0.0, 5e-324, 1.0, math.inf, math.nan]),
             min_size=2, max_size=2),
    st.lists(endpoints, min_size=2, max_size=2),
    st.lists(endpoints, min_size=1, max_size=1),
    st.lists(endpoints, min_size=3, max_size=3),
))
@example([-0.0, -0.0])
@example([-0.0, 1.0])
@example([0.0, math.inf])
@example([5e-324, 5e-324])
def test_interval_from_pair_matches_checked_composition(pair):
    """The unchecked fast path gives what the checked composition gives, or its error."""
    try:
        want = checked_interval_from_pair(pair)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _interval_from_pair(pair)
        assert str(info.value) == str(exc)
        return
    got = _interval_from_pair(pair)
    assert type(got) is Interval and got == want
    assert all(type(x) is float for x in got)
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]


class TestIou:
    def test_identity(self):
        assert iou(Interval(0, 10), Interval(0, 10)) == 1.0

    def test_disjoint(self):
        assert iou(Interval(0, 10), Interval(20, 30)) == 0.0

    def test_partial_overlap(self):
        # overlap 5 over a span of 15
        assert iou(Interval(0, 10), Interval(5, 15)) == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_degenerate_points(self):
        assert iou(Interval(5, 5), Interval(5, 5)) == 1.0

    def test_distinct_degenerate_points(self):
        assert iou(Interval(5, 5), Interval(7, 7)) == 0.0

    def test_point_inside_interval_scores_zero(self):
        assert iou(Interval(5, 5), Interval(0, 10)) == 0.0

    @given(positive_interval(), positive_interval())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(positive_interval(), positive_interval())
    def test_bounded(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0

    @given(positive_interval())
    def test_self_iou_is_one(self, a):
        assert iou(a, a) == 1.0


class TestMerge:
    def test_overlap_chain(self):
        assert merge(ivs([(0, 2), (1, 5), (7, 8)])).intervals == tuple(ivs([(0, 5), (7, 8)]))

    def test_empty(self):
        assert merge([]).intervals == ()

    def test_singleton(self):
        assert merge(ivs([(3, 4)])).intervals == (Interval(3, 4),)

    def test_touching_endpoints_coalesce(self):
        assert merge(ivs([(0, 2), (2, 4)])).intervals == (Interval(0, 4),)

    def test_unsorted_input(self):
        assert merge(ivs([(7, 8), (1, 5), (0, 2)])).intervals == tuple(ivs([(0, 5), (7, 8)]))

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            IntervalSet(tuple(ivs([(0, 2), (1, 3)])))
        with pytest.raises(ValueError):
            IntervalSet(tuple(ivs([(0, 2), (2, 3)])))

    @given(st.lists(positive_interval(), max_size=12))
    def test_idempotent(self, xs):
        once = merge(xs)
        assert merge(once.intervals) == once

    @given(st.lists(positive_interval(), max_size=12))
    def test_measure_at_most_sum_of_lengths(self, xs):
        merged = merge(xs)
        total = sum(iv.length for iv in xs)
        assert merged.measure <= total + 1e-9

    @given(st.lists(grid_interval, max_size=10))
    def test_measure_equality_iff_overlap_free(self, xs):
        def overlap(a, b):
            return max(0.0, min(a.end, b.end) - max(a.start, b.start))

        overlap_free = all(
            overlap(a, b) == 0.0 for i, a in enumerate(xs) for b in xs[i + 1 :]
        )
        merged = merge(xs)
        total = sum(iv.length for iv in xs)
        if overlap_free:
            assert merged.measure == pytest.approx(total, abs=1e-9)
        else:
            assert merged.measure < total

    @given(st.lists(positive_interval(), min_size=1, max_size=12))
    def test_covers_all_endpoints(self, xs):
        merged = merge(xs)

        def contains(t):
            return any(iv.start <= t <= iv.end for iv in merged.intervals)

        for iv in xs:
            assert contains(iv.start) and contains(iv.end)


class TestSetIou:
    def test_partial(self):
        a = merge(ivs([(0, 2), (4, 6)]))
        b = merge(ivs([(1, 5)]))
        # intersection [1,2] + [4,5] = 2; union [0,6] = 6
        assert set_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_identity(self):
        a = merge(ivs([(0, 3)]))
        assert set_iou(a, a) == 1.0

    def test_empty_vs_nonempty(self):
        assert set_iou(merge([]), merge(ivs([(0, 3)]))) == 0.0

    def test_both_empty_scores_zero(self):
        assert set_iou(merge([]), merge([])) == 0.0

    def test_identical_degenerate_sets(self):
        a = merge(ivs([(2, 2)]))
        assert set_iou(a, a) == 1.0

    @given(st.lists(positive_interval(), max_size=8), st.lists(positive_interval(), max_size=8))
    def test_symmetric(self, xs, ys):
        a, b = merge(xs), merge(ys)
        assert set_iou(a, b) == pytest.approx(set_iou(b, a), abs=1e-12)

    @given(
        st.lists(positive_length_interval, min_size=1, max_size=8),
        st.lists(positive_length_interval, min_size=1, max_size=8),
    )
    def test_one_iff_identical_point_sets(self, xs, ys):
        # positive-length members: a zero-measure sliver is invisible to any
        # measure ratio, so the iff only holds without isolated points
        a, b = merge(xs), merge(ys)
        assert (set_iou(a, b) == 1.0) == (a.intervals == b.intervals)

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8),
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=8),
    )
    def test_matches_unit_grid_oracle(self, xs, ys):
        """On integer-grid intervals, set IoU equals counting covered unit cells."""
        a = merge(Interval(min(p), max(p)) for p in xs)
        b = merge(Interval(min(p), max(p)) for p in ys)

        def cells(s):
            covered = set()
            for iv in s.intervals:
                covered.update(range(int(iv.start), int(iv.end)))
            return covered

        ca, cb = cells(a), cells(b)
        union = len(ca | cb)
        expected = (len(ca & cb) / union) if union else (
            1.0 if (a.intervals and a.intervals == b.intervals) else 0.0
        )
        assert set_iou(a, b) == pytest.approx(expected, abs=1e-6)
