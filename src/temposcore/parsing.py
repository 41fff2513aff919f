"""Per-task output grammars, parsing, format reward, and serialization.

The five tasks share a small tag grammar (documented bit-exactly in
docs/formats.md):

    TG            <answer> T to T </answer>                (exactly one pair)
    DTG/VHD/TAL   <answer> T to T (, T to T)* </answer>    (one or more pairs)
    GVQA          <answer> TEXT </answer> <glue> T to T (, T to T)* </glue>
                  (non-empty answer text; zero or more evidence pairs)

T is a non-negative decimal number of seconds (integer, decimal, or
scientific notation). Whitespace around tags, commas, and the "to" keyword
is ignored, and "to" is case-insensitive.

By default parsing is tolerant: text outside the tagged blocks (e.g.
chain-of-thought prose) is ignored, and the last occurrence of each block
wins. With ``strict=True`` the whole string must match the bare template.

Inverted pairs (end < start) are never repaired; they fail parsing so the
binary format reward can teach well-formedness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .intervals import Interval


class TaskKind(str, Enum):
    TG = "TG"
    DTG = "DTG"
    VHD = "VHD"
    GVQA = "GVQA"
    TAL = "TAL"


class ParseFailure(Enum):
    MISSING_TAGS = "missing_tags"
    BAD_TIMESTAMP = "bad_timestamp"
    WRONG_ARITY = "wrong_arity"
    INVALID_INTERVAL = "invalid_interval"


class ParseError(ValueError):
    """Raised when a raw response does not match its task template."""

    def __init__(self, reason: ParseFailure, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ParsedOutput:
    """Structured form of one model response.

    ``intervals`` come from the answer block for TG/DTG/VHD/TAL and from the
    glue block for GVQA; ``answer_text`` is set for GVQA only.
    """

    intervals: tuple[Interval, ...]
    answer_text: str | None = None


_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
# A pair never starts at a digit right after a digit: the scan's match or
# failure at the start of that digit run already covers it. The guard skips
# those starts, which keeps the scan linear on long digit runs; a start at
# "." after a digit (as in "1.2.3 to 4") is still tried.
_PAIR_RE = re.compile(rf"(?:(?<!\d)|(?=\.))({_NUMBER})\s*to\s*({_NUMBER})", re.IGNORECASE)
_ENTRY_RE = re.compile(rf"\s*({_NUMBER})\s*to\s*({_NUMBER})\s*\Z", re.IGNORECASE)

_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_GLUE_RE = re.compile(r"<glue>(.*?)</glue>", re.DOTALL)

_STRICT_SINGLE_RE = re.compile(r"\A\s*<answer>(.*?)</answer>\s*\Z", re.DOTALL)
_STRICT_GVQA_RE = re.compile(
    r"\A\s*<answer>(.*?)</answer>\s*<glue>(.*?)</glue>\s*\Z", re.DOTALL
)

_MIN_INTERVALS = {
    TaskKind.TG: 1,
    TaskKind.DTG: 1,
    TaskKind.VHD: 1,
    TaskKind.TAL: 1,
    TaskKind.GVQA: 0,
}


def _parse_interval_list(content: str) -> tuple[Interval, ...]:
    """Parse a comma-separated "T to T" list; empty content is an empty list."""
    if content.strip() == "":
        return ()
    out: list[Interval] = []
    for chunk in content.split(","):
        m = _ENTRY_RE.match(chunk)
        if m is None:
            raise ParseError(
                ParseFailure.BAD_TIMESTAMP, f"cannot read timestamp pair from {chunk!r}"
            )
        start, end = float(m.group(1)), float(m.group(2))
        if end < start:
            raise ParseError(
                ParseFailure.INVALID_INTERVAL, f"interval end precedes start in {chunk!r}"
            )
        try:
            out.append(Interval(start, end))
        except ValueError as exc:  # overflow to inf via exponent notation
            raise ParseError(ParseFailure.BAD_TIMESTAMP, str(exc)) from exc
    return tuple(out)


def _blocks(raw: str, task: TaskKind, strict: bool) -> tuple[str, str | None]:
    """Locate the answer block content and, for GVQA, the glue block content."""
    if strict:
        pattern = _STRICT_GVQA_RE if task is TaskKind.GVQA else _STRICT_SINGLE_RE
        m = pattern.match(raw)
        if m is None:
            raise ParseError(
                ParseFailure.MISSING_TAGS, "output does not match the exact task template"
            )
        return (m.group(1), m.group(2)) if task is TaskKind.GVQA else (m.group(1), None)

    answers = _ANSWER_RE.findall(raw)
    if not answers:
        raise ParseError(ParseFailure.MISSING_TAGS, "no <answer> block found")
    if task is not TaskKind.GVQA:
        return answers[-1], None
    glues = _GLUE_RE.findall(raw)
    if not glues:
        raise ParseError(ParseFailure.MISSING_TAGS, "no <glue> block found")
    return answers[-1], glues[-1]


def parse(raw: str, task: TaskKind, strict: bool = False) -> ParsedOutput:
    """Parse a raw model response against its task template.

    Returns a :class:`ParsedOutput` whose interval count satisfies the task
    arity; raises :class:`ParseError` with a reason otherwise. Never raises
    anything else, regardless of input.
    """
    answer, glue = _blocks(raw, task, strict)

    if task is TaskKind.GVQA:
        text = answer.strip()
        if not text:
            raise ParseError(ParseFailure.WRONG_ARITY, "GVQA answer text is empty")
        assert glue is not None
        return ParsedOutput(intervals=_parse_interval_list(glue), answer_text=text)

    intervals = _parse_interval_list(answer)
    if task is TaskKind.TG and len(intervals) != 1:
        raise ParseError(
            ParseFailure.WRONG_ARITY, f"TG requires exactly one interval, got {len(intervals)}"
        )
    if len(intervals) < _MIN_INTERVALS[task]:
        raise ParseError(ParseFailure.WRONG_ARITY, f"{task.value} requires at least one interval")
    return ParsedOutput(intervals=intervals)


def format_reward(raw: str, task: TaskKind, strict: bool = False) -> int:
    """Binary template reward: 1 iff the response parses cleanly."""
    try:
        parse(raw, task, strict=strict)
    except ParseError:
        return 0
    return 1


def _format_ts(value: float) -> str:
    return repr(float(value))


def serialize(p: ParsedOutput, task: TaskKind) -> str:
    """Render a ParsedOutput in canonical template form.

    The output always satisfies ``parse(serialize(p, t), t) == p`` provided
    the GVQA answer text is tag-free and has no surrounding whitespace
    (parsing strips it). Violations of the task arity are rejected.
    """
    if task is TaskKind.GVQA:
        if p.answer_text is None or not p.answer_text:
            raise ValueError("GVQA output requires non-empty answer text")
        if p.answer_text != p.answer_text.strip() or "<" in p.answer_text or ">" in p.answer_text:
            raise ValueError("GVQA answer text must be strip-stable and tag-free")
    else:
        if p.answer_text is not None:
            raise ValueError(f"{task.value} output carries no answer text")
        if task is TaskKind.TG and len(p.intervals) != 1:
            raise ValueError(f"TG requires exactly one interval, got {len(p.intervals)}")
        if len(p.intervals) < 1:
            raise ValueError(f"{task.value} requires at least one interval")

    body = ", ".join(f"{_format_ts(iv.start)} to {_format_ts(iv.end)}" for iv in p.intervals)
    if task is TaskKind.GVQA:
        return f"<answer>{p.answer_text}</answer><glue>{body}</glue>"
    return f"<answer>{body}</answer>"


def extract_intervals(raw: str, task: TaskKind) -> tuple[Interval, ...] | None:
    """Lenient interval extraction for partial-credit scoring.

    Returns None when the relevant tag block is absent (a hard parse
    failure); otherwise returns every well-formed pair found inside it, in
    textual order, skipping inverted or non-finite pairs. Arity is ignored.
    """
    block_re = _GLUE_RE if task is TaskKind.GVQA else _ANSWER_RE
    blocks = block_re.findall(raw)
    if not blocks:
        return None
    out: list[Interval] = []
    for s, e in _PAIR_RE.findall(blocks[-1]):
        try:
            iv = Interval(float(s), float(e))
        except ValueError:
            continue
        out.append(iv)
    return tuple(out)


def extract_answer_text(raw: str) -> str | None:
    """Lenient answer-text extraction: last answer block, stripped, or None."""
    answers = _ANSWER_RE.findall(raw)
    if not answers:
        return None
    text = answers[-1].strip()
    return text if text else None
