"""Closed time intervals in seconds and canonical merged interval sets.

Every reward and metric in this package reduces to three primitives:
pairwise IoU, merging a list of intervals into canonical disjoint form,
and IoU between two merged sets. All comparisons are exact on the stored
doubles; there is no epsilon anywhere, so canonical forms are unique and
deterministic.

Degenerate (zero-length) intervals are allowed. The IoU of two identical
points is defined as 1 and the IoU of distinct points as 0, which keeps
IoU total without rewarding empty predictions (two empty sets score 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple


def _finite_float(value: object) -> float | None:
    """``value`` as a float if it is a finite int or float (not a bool), else None.

    JSON input is checked with this: Python's ``json`` reads ``true`` as a
    bool (an int subclass) and accepts ``Infinity`` and ``NaN``.
    """
    if type(value) is float:  # the common case, a JSON number with a fraction
        return value if math.isfinite(value) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


class _Endpoints(NamedTuple):
    start: float
    end: float


class Interval(_Endpoints):
    """A closed segment [start, end] in seconds; zero length is allowed.

    An Interval is a checked ``(start, end)`` tuple of floats: it unpacks,
    sorts and compares as that tuple. The constructor converts both
    endpoints with ``float()`` and rejects non-finite, negative and
    inverted ones.
    """

    __slots__ = ()

    def __new__(cls, start: float, end: float) -> Interval:
        self = tuple.__new__(cls, (float(start), float(end)))
        self.__post_init__()  # kept a method: bench/tracer.py patches it to count checked builds
        return self

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> Interval:
        """Checked like the constructor; ``_replace`` builds through this too."""
        return cls(*iterable)

    def __post_init__(self) -> None:
        start, end = self
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError(f"interval endpoints must be finite, got ({start}, {end})")
        if start < 0.0 or end < 0.0:
            raise ValueError(f"interval endpoints must be >= 0, got ({start}, {end})")
        if end < start:
            raise ValueError(f"interval end < start: ({start}, {end})")

    @property
    def length(self) -> float:
        return self.end - self.start


# A (start, end) pair as an Interval, unchecked: only for floats 0.0 <= start <= end < inf.
_unchecked = partial(tuple.__new__, Interval)


def _interval_from_pair(pair: object) -> Interval:
    """A ``[start, end]`` pair as an Interval, checked as :func:`_finite_float` does.

    The pair is a JSON list or a plain ``(start, end)`` tuple of two finite
    numbers (not bools or numeric strings) forming a valid interval; an Interval
    is kept. Anything else, a two-character string included, raises ValueError.
    """
    if type(pair) is list and len(pair) == 2:
        start, end = pair
        # the common case, two JSON numbers with a fraction
        if type(start) is float and type(end) is float and 0.0 <= start <= end < math.inf:
            return _unchecked((start, end))
    elif type(pair) is Interval:
        return pair
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError("not a [start, end] pair")
    start, end = _finite_float(pair[0]), _finite_float(pair[1])
    if start is None or end is None:
        raise ValueError("endpoints must be finite numbers")
    return Interval(start, end)


def _intervals_from_pairs(pairs: Iterable, label: str, error=ValueError) -> tuple[Interval, ...]:
    """Each pair read by :func:`_interval_from_pair`; a bad one is ``bad LABEL PAIR: why``."""
    out = []
    for pair in pairs:
        try:
            out.append(_interval_from_pair(pair))
        except ValueError as exc:
            raise error(f"bad {label} {pair!r}: {exc}") from None
    return tuple(out)


@dataclass(frozen=True)
class IntervalSet:
    """Canonical form of a union of intervals: sorted, pairwise non-touching.

    Build instances through :func:`merge`; the constructor rejects anything
    that is not already canonical (touching intervals must have been merged).
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        ivs = tuple(self.intervals)
        for prev, cur in zip(ivs, ivs[1:]):
            if cur.start <= prev.end:
                raise ValueError(f"not canonical: {prev} and {cur} overlap or touch")
        object.__setattr__(self, "intervals", ivs)

    @property
    def measure(self) -> float:
        return _left_sum(iv.length for iv in self.intervals)


def _left_sum(xs: Iterable[float]) -> float:
    """``xs`` added left to right from 0.0: the order of ``sum()`` of floats before Python 3.12."""
    total = 0.0
    for x in xs:
        total += x
    return total


def iou(a: Interval, b: Interval) -> float:
    """Temporal intersection-over-union of two intervals, in [0, 1].

    The union in the denominator is |a| + |b| - |a∩b|. When both intervals
    are zero-length the ratio is 0/0; identical points count as 1, distinct
    points as 0.
    """
    a_start, a_end = a
    b_start, b_end = b
    # min and max written out, with their ties (the first argument wins)
    inter = (b_end if b_end < a_end else a_end) - (b_start if b_start > a_start else a_start)
    if inter < 0.0:
        inter = 0.0
    union = (a_end - a_start) + (b_end - b_start) - inter
    if union <= 0.0:
        return 1.0 if a == b else 0.0
    return inter / union


def merge(xs: Iterable[Interval]) -> IntervalSet:
    """Merge intervals into canonical disjoint sorted form.

    Intervals that overlap or share an endpoint are coalesced. Idempotent:
    merging a canonical set's members reproduces it exactly.
    """
    ordered = sorted(xs)
    if not ordered:
        return IntervalSet(())
    out: list[Interval] = []
    cur_start, cur_end = ordered[0]
    for start, end in ordered[1:]:
        if start <= cur_end:
            if end > cur_end:
                cur_end = end
        else:
            out.append(_unchecked((cur_start, cur_end)))
            cur_start, cur_end = start, end
    out.append(_unchecked((cur_start, cur_end)))
    return IntervalSet(tuple(out))


def _intersection_measure(a: IntervalSet, b: IntervalSet) -> float:
    i = j = 0
    total = 0.0
    while i < len(a.intervals) and j < len(b.intervals):
        x = a.intervals[i]
        y = b.intervals[j]
        lo = max(x.start, y.start)
        hi = min(x.end, y.end)
        if hi > lo:
            total += hi - lo
        if x.end <= y.end:
            i += 1
        else:
            j += 1
    return total


def set_iou(a: IntervalSet, b: IntervalSet) -> float:
    """IoU between two canonical interval sets, in [0, 1].

    Two empty sets score 0 by convention: an empty prediction earns nothing.
    Sets of identical degenerate points score 1, mirroring :func:`iou`.
    """
    inter = _intersection_measure(a, b)
    union = a.measure + b.measure - inter
    if union <= 0.0:
        return 1.0 if (a.intervals and a.intervals == b.intervals) else 0.0
    return inter / union
