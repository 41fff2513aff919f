import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import regex_extract_answer_text, regex_extract_intervals, regex_parse

from temposcore import (
    Interval,
    ParsedOutput,
    ParseError,
    ParseFailure,
    TaskKind,
    read,
    serialize,
    total_reward,
)
from temposcore.parsing import _LONE_SURROGATE_RE, _NUMBER, _PAIR_RE

MULTI_TASKS = [TaskKind.DTG, TaskKind.VHD, TaskKind.TAL]


class TestParse:
    def test_tg_template(self):
        p = read("<answer>3.2 to 7.8</answer>", TaskKind.TG).parsed
        assert p.intervals == (Interval(3.2, 7.8),)
        assert p.answer_text is None

    def test_gvqa_template(self):
        p = read("<answer>B</answer><glue>1.0 to 2.0, 4.0 to 5.5</glue>", TaskKind.GVQA).parsed
        assert p.answer_text == "B"
        assert p.intervals == (Interval(1.0, 2.0), Interval(4.0, 5.5))

    def test_missing_tags(self):
        reason = read("the answer is 3 to 7", TaskKind.TG).parsed.reason
        assert reason is ParseFailure.MISSING_TAGS

    def test_multi_interval_tasks(self):
        for task in MULTI_TASKS:
            p = read("<answer>1 to 2, 3 to 4, 5 to 6</answer>", task).parsed
            assert len(p.intervals) == 3

    def test_textual_order_preserved(self):
        p = read("<answer>9 to 10, 1 to 2</answer>", TaskKind.DTG).parsed
        assert p.intervals == (Interval(9, 10), Interval(1, 2))

    def test_whitespace_and_case_tolerance(self):
        p = read("<answer>  3.2   TO 7.8 </answer>", TaskKind.TG).parsed
        assert p.intervals == (Interval(3.2, 7.8),)
        p = read("<answer> 1 to 2 ,  3 to 4 </answer>", TaskKind.DTG).parsed
        assert len(p.intervals) == 2

    def test_number_notations(self):
        p = read("<answer>.5 to 5.</answer>", TaskKind.TG).parsed
        assert p.intervals == (Interval(0.5, 5.0),)
        p = read("<answer>1e1 to 1.5e2</answer>", TaskKind.TG).parsed
        assert p.intervals == (Interval(10.0, 150.0),)

    def test_surrounding_prose_ignored_by_default(self):
        raw = "thinking... <answer>3 to 7</answer> done"
        assert read(raw, TaskKind.TG).parsed.intervals == (Interval(3, 7),)

    def test_last_block_wins_when_repeated(self):
        raw = "<answer>1 to 2</answer> wait, actually <answer>5 to 9</answer>"
        assert read(raw, TaskKind.TG).parsed.intervals == (Interval(5, 9),)

    def test_strict_mode_rejects_extra_text(self):
        raw = "thinking... <answer>3 to 7</answer>"
        reason = read(raw, TaskKind.TG, strict=True).parsed.reason
        assert reason is ParseFailure.MISSING_TAGS
        assert read("  <answer>3 to 7</answer>  ", TaskKind.TG, strict=True).parsed.intervals

    def test_strict_mode_gvqa(self):
        raw = "<answer>A</answer><glue>1 to 2</glue>"
        assert read(raw, TaskKind.GVQA, strict=True).parsed.answer_text == "A"

    def test_bad_timestamp(self):
        reason = read("<answer>abc to def</answer>", TaskKind.TG).parsed.reason
        assert reason is ParseFailure.BAD_TIMESTAMP

    def test_timestamp_overflow(self):
        for pair, shown in [("1 to 1e999", "1.0, inf"), ("1e999 to 2e999", "inf, inf")]:
            parsed = read(f"<answer>{pair}</answer>", TaskKind.TG).parsed
            assert parsed.reason is ParseFailure.BAD_TIMESTAMP
            assert str(parsed) == f"interval endpoints must be finite, got ({shown})"

    def test_inverted_interval(self):
        reason = read("<answer>7.8 to 3.2</answer>", TaskKind.TG).parsed.reason
        assert reason is ParseFailure.INVALID_INTERVAL

    def test_tg_arity(self):
        reason = read("<answer>1 to 2, 3 to 4</answer>", TaskKind.TG).parsed.reason
        assert reason is ParseFailure.WRONG_ARITY

    def test_empty_answer_block(self):
        for task in [TaskKind.TG, *MULTI_TASKS]:
            assert read("<answer></answer>", task).parsed.reason is ParseFailure.WRONG_ARITY

    def test_gvqa_empty_glue_tolerated(self):
        p = read("<answer>C</answer><glue></glue>", TaskKind.GVQA).parsed
        assert p.answer_text == "C" and p.intervals == ()

    def test_gvqa_missing_glue_fails(self):
        reason = read("<answer>C</answer>", TaskKind.GVQA).parsed.reason
        assert reason is ParseFailure.MISSING_TAGS

    def test_gvqa_empty_answer_fails(self):
        reason = read("<answer>  </answer><glue>1 to 2</glue>", TaskKind.GVQA).parsed.reason
        assert reason is ParseFailure.WRONG_ARITY

    def test_trailing_comma_rejected(self):
        reason = read("<answer>1 to 2,</answer>", TaskKind.DTG).parsed.reason
        assert reason is ParseFailure.BAD_TIMESTAMP


class TestFormatReward:
    """The format term of ``total_reward``: 1 iff the template parse succeeds."""

    GT = [Interval(0, 1)]

    def test_valid_tg(self):
        assert total_reward("<answer>3.2 to 7.8</answer>", TaskKind.TG, self.GT).format == 1.0

    def test_inverted_interval_scores_zero(self):
        assert total_reward("<answer>7.8 to 3.2</answer>", TaskKind.TG, self.GT).format == 0.0

    def test_tg_wrong_arity_scores_zero(self):
        raw = "<answer>1 to 2, 3 to 4</answer>"
        assert total_reward(raw, TaskKind.TG, self.GT).format == 0.0

    def test_vhd_requires_at_least_one_interval(self):
        assert total_reward("<answer></answer>", TaskKind.VHD, self.GT).format == 0.0
        assert total_reward("<answer>1 to 2</answer>", TaskKind.VHD, self.GT).format == 1.0

    def test_binary_valued(self):
        assert total_reward("junk", TaskKind.TAL, self.GT).format in (0.0, 1.0)


class TestSerialize:
    def test_tg(self):
        assert serialize(ParsedOutput(intervals=(Interval(1, 2),)), TaskKind.TG) == (
            "<answer>1.0 to 2.0</answer>"
        )

    def test_gvqa(self):
        p = ParsedOutput(intervals=(Interval(0, 1),), answer_text="A")
        assert serialize(p, TaskKind.GVQA) == "<answer>A</answer><glue>0.0 to 1.0</glue>"

    def test_dtg(self):
        p = ParsedOutput(intervals=(Interval(1, 2), Interval(3, 4)))
        assert serialize(p, TaskKind.DTG) == "<answer>1.0 to 2.0, 3.0 to 4.0</answer>"

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            serialize(ParsedOutput(intervals=(Interval(1, 2), Interval(3, 4))), TaskKind.TG)
        with pytest.raises(ValueError):
            serialize(ParsedOutput(intervals=()), TaskKind.TAL)

    def test_rejects_empty_gvqa_answer(self):
        with pytest.raises(ValueError):
            serialize(ParsedOutput(intervals=(), answer_text=""), TaskKind.GVQA)

    def test_rejects_tagged_answer_text(self):
        with pytest.raises(ValueError):
            serialize(ParsedOutput(intervals=(), answer_text="<answer>"), TaskKind.GVQA)


class TestLenientExtraction:
    def test_arity_ignored(self):
        got = read("<answer>1 to 2, 3 to 4</answer>", TaskKind.TG).intervals
        assert got == (Interval(1, 2), Interval(3, 4))

    def test_invalid_pairs_skipped(self):
        got = read("<answer>9 to 2, 3 to 4</answer>", TaskKind.DTG).intervals
        assert got == (Interval(3, 4),)

    def test_missing_block_is_none(self):
        assert read("no tags here", TaskKind.TG).intervals is None

    def test_block_present_but_empty(self):
        assert read("<answer>whatever</answer>", TaskKind.TG).intervals == ()

    def test_gvqa_reads_glue(self):
        reading = read("<answer>B</answer><glue>1 to 2</glue>", TaskKind.GVQA)
        assert reading.intervals == (Interval(1, 2),)
        assert reading.answer_text == "B"

    def test_answer_text_missing(self):
        assert read("nothing", TaskKind.GVQA).answer_text is None
        assert read("<answer>  </answer>", TaskKind.GVQA).answer_text is None

    def test_scan_linear_on_digit_run(self):
        # a quadratic scan would take ~256x as long on 16x the digits
        def best_time(n_digits):
            raw = "<answer>" + "1" * n_digits + "</answer>"
            times = []
            for _ in range(3):
                start = time.perf_counter()
                assert read(raw, TaskKind.TAL).intervals == ()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_time(1 << 20) < 64 * best_time(1 << 16)


def _outcome(fn, *args):
    """The parse, or the reason and message of the ParseError raised or returned."""
    try:
        result = fn(*args)
    except ParseError as exc:
        result = exc
    return (result.reason, str(result)) if isinstance(result, ParseError) else result


@pytest.mark.parametrize(
    "unit, fn",
    [
        ("<answer>", lambda raw: total_reward(raw, TaskKind.GVQA, [Interval(1, 2)], "A")),
        ("<glue>", lambda raw: total_reward(raw, TaskKind.GVQA, [Interval(1, 2)], "A")),
        ("</answer><glue>", lambda raw: read("<answer>" + raw, TaskKind.GVQA, True)),
    ],
    ids=["unclosed-answer", "unclosed-glue", "strict-gvqa-splits"],
)
def test_read_linear_on_repeated_tags(unit, fn):
    # a scan that retries every later tag would take ~256x as long on 16x the input
    def best_time(n_bytes):
        raw = unit * (n_bytes // len(unit))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn(raw)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_time(1 << 20) < 64 * best_time(1 << 16)


# The lenient pair pattern without its scan-start guard: the guard may only
# skip starts that cannot change the matches.
_UNGUARDED_PAIR_RE = re.compile(rf"({_NUMBER})\s*to\s*({_NUMBER})", re.IGNORECASE)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789.eE+- tToO,x", max_size=40))
@example("1 to 5e3.5 to 7")
@example("1.2.3 to 4")
@example("12 to 345to6.7.8 TO 9e+1")
def test_pair_scan_matches_unguarded_pattern(text):
    assert _PAIR_RE.findall(text) == _UNGUARDED_PAIR_RE.findall(text)


# ---------------------------------------------------------------------------
# Properties

timestamps = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
interval_strategy = st.tuples(timestamps, timestamps).map(lambda p: Interval(min(p), max(p)))
answer_texts = st.text(
    alphabet=st.characters(whitelist_categories=["Lu", "Ll", "Nd"], whitelist_characters=" "),
    min_size=1,
    max_size=20,
).map(str.strip).filter(bool)


def outputs_for(task: TaskKind):
    if task is TaskKind.TG:
        return st.tuples(interval_strategy).map(lambda t: ParsedOutput(intervals=t))
    if task is TaskKind.GVQA:
        return st.builds(
            ParsedOutput,
            intervals=st.lists(interval_strategy, max_size=4).map(tuple),
            answer_text=answer_texts,
        )
    return st.lists(interval_strategy, min_size=1, max_size=5).map(
        lambda xs: ParsedOutput(intervals=tuple(xs))
    )


@pytest.mark.parametrize("task", list(TaskKind))
@given(data=st.data())
def test_round_trip(task, data):
    p = data.draw(outputs_for(task))
    raw = serialize(p, task)
    assert read(raw, task).parsed == p
    assert read(raw, task, strict=True).parsed == p


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200), st.sampled_from(list(TaskKind)))
def test_parse_never_crashes_on_arbitrary_text(raw, task):
    for strict in (False, True):
        assert isinstance(read(raw, task, strict).parsed, (ParsedOutput, ParseError))


def test_parse_never_crashes_on_random_bytes():
    rng = random.Random(7)
    for _ in range(2000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(120))).decode("latin-1")
        for task in TaskKind:
            assert isinstance(read(raw, task).parsed, (ParsedOutput, ParseError))


# ---------------------------------------------------------------------------
# The reader against the regex readers it replaced (tests/helpers.py)

_FRAGMENTS = [
    "<answer>", "</answer>", "<glue>", "</glue>", "<answer", "</glue", "answer>",
    "1", "2.5", ".5", "3.", "1e1", "1e999", "7", " to ", "TO", "to", ",", "-",
    "A", "B.", "x", " ", "\n", "\t", "\x1c", "\x85", "\xa0", "\u2003",
]
_responses = st.lists(
    st.sampled_from(_FRAGMENTS) | st.text(max_size=2), max_size=24
).map("".join)


# strict GVQA parses [(1, 2)] while the lenient glue block holds both pairs
_SPLIT_DISAGREEMENT = "<answer>A<glue>3 to 4</answer><glue>1 to 2</glue>"


@settings(max_examples=1000, deadline=None)
@given(_responses)
@example(_SPLIT_DISAGREEMENT)
@example(" \x85<answer>1 to 2</answer>\u2003\x1c")
@example("<answer>B</answer>\xa0<glue>1 to 2</glue>\x85")
@example("<answer><answer>1 to 2</answer></answer><glue><glue>3 to 4</glue>")
@example("<answer>1 to 2</answer><answer>3 to 4")
def test_read_matches_regex_readers(raw):
    for task in TaskKind:
        want_intervals = regex_extract_intervals(raw, task)
        want_text = regex_extract_answer_text(raw) if task is TaskKind.GVQA else None
        for strict in (False, True):
            reading = read(raw, task, strict)
            assert _outcome(lambda: reading.parsed) == _outcome(regex_parse, raw, task, strict)
            assert reading.intervals == want_intervals
            assert reading.answer_text == want_text


def test_regex_whitespace_is_str_isspace():
    # the strict suffix check strips with str.rstrip where the patterns use \s
    space = re.compile(r"\s")
    assert all(
        (space.match(chr(c)) is not None) == chr(c).isspace() for c in range(0x110000)
    )


def test_lone_surrogate_re_is_what_utf8_cannot_encode():
    every = "".join(map(chr, range(0x110000)))
    found = _LONE_SURROGATE_RE.findall(every)
    assert len(found) == 0xE000 - 0xD800
    for ch in found:
        with pytest.raises(UnicodeEncodeError):
            ch.encode("utf-8")
    _LONE_SURROGATE_RE.sub("", every).encode("utf-8")  # all the rest encodes
