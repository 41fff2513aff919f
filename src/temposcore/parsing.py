"""Per-task output grammars, the one-pass response reader, and serialization.

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
chain-of-thought prose) is ignored. Blocks are taken left to right, each
closed by the first closing tag after it, and the last complete block
wins. With ``strict=True`` the whole string must match the bare template.

Inverted pairs (end < start) are never repaired; they fail parsing so the
binary format reward can teach well-formedness.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .intervals import Interval, _unchecked


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

_WHITESPACE_RE = re.compile(r"\s")
_LONE_SURROGATE_RE = re.compile("[\ud800-\udfff]")

_STRICT_SINGLE_RE = re.compile(r"\A\s*<answer>(.*?)</answer>\s*\Z", re.DOTALL)
_STRICT_GVQA_RE = re.compile(
    r"\A\s*<answer>(.*?)</answer>\s*<glue>(.*?)</glue>\s*\Z", re.DOTALL
)


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
        if end == math.inf:  # overflow via exponent notation; start <= end
            raise ParseError(
                ParseFailure.BAD_TIMESTAMP,
                f"interval endpoints must be finite, got ({start}, {end})",
            )
        out.append(_unchecked((start, end)))
    return tuple(out)


def _last_block(raw: str, open_tag: str, close_tag: str) -> str | None:
    """Content of the last complete block, or None; a single left-to-right scan."""
    block = None
    start = raw.find(open_tag)
    while start != -1:
        end = raw.find(close_tag, start + len(open_tag))
        if end == -1:
            break
        block = raw[start + len(open_tag) : end]
        start = raw.find(open_tag, end + len(close_tag))
    return block


def _strict_blocks(raw: str, task: TaskKind) -> tuple[str, str | None]:
    """The block contents of a response that is the bare template."""
    gvqa = task is TaskKind.GVQA
    # a lazy GVQA match with no final "</glue>" fails only after trying every split
    if raw.rstrip().endswith("</glue>" if gvqa else "</answer>"):
        m = (_STRICT_GVQA_RE if gvqa else _STRICT_SINGLE_RE).match(raw)
        if m is not None:
            return m.group(1), (m.group(2) if gvqa else None)
    raise ParseError(ParseFailure.MISSING_TAGS, "output does not match the exact task template")


def _parse_blocks(answer: str | None, glue: str | None, task: TaskKind) -> ParsedOutput:
    """Check located block contents against the task template."""
    if answer is None:
        raise ParseError(ParseFailure.MISSING_TAGS, "no <answer> block found")
    if task is TaskKind.GVQA:
        if glue is None:
            raise ParseError(ParseFailure.MISSING_TAGS, "no <glue> block found")
        text = answer.strip()
        if not text:
            raise ParseError(ParseFailure.WRONG_ARITY, "GVQA answer text is empty")
        return ParsedOutput(intervals=_parse_interval_list(glue), answer_text=text)

    intervals = _parse_interval_list(answer)
    if task is TaskKind.TG and len(intervals) != 1:
        raise ParseError(
            ParseFailure.WRONG_ARITY, f"TG requires exactly one interval, got {len(intervals)}"
        )
    if not intervals:
        raise ParseError(ParseFailure.WRONG_ARITY, f"{task.value} requires at least one interval")
    return ParsedOutput(intervals=intervals)


class Reading(NamedTuple):
    """What :func:`read` finds in one response."""

    parsed: ParsedOutput | ParseError
    intervals: tuple[Interval, ...] | None
    answer_text: str | None


def read(raw: str, task: TaskKind, strict: bool = False) -> Reading:
    """Read a raw model response once; never raises, and is linear in its length.

    ``parsed`` is the template parse: a :class:`ParsedOutput` whose interval
    count satisfies the task arity, or the :class:`ParseError` (with its
    reason) the response failed with.

    ``intervals`` is the lenient extraction for partial-credit scoring: None
    when the scored block (answer, or glue for GVQA) is absent; otherwise
    every well-formed pair inside it, in textual order, with inverted or
    non-finite pairs skipped and arity ignored. In strict mode it can differ
    from the parse's intervals.

    ``answer_text`` is, for GVQA, the last answer block stripped, or None
    when that block is absent or blank.
    """
    gvqa = task is TaskKind.GVQA
    answer = _last_block(raw, "<answer>", "</answer>")
    glue = _last_block(raw, "<glue>", "</glue>") if gvqa else None
    try:
        parsed = _parse_blocks(*(_strict_blocks(raw, task) if strict else (answer, glue)), task)
    except ParseError as exc:
        # a stored traceback would keep this frame alive in a reference cycle
        parsed = exc.with_traceback(None)
    scored = glue if gvqa else answer
    intervals = None
    if not strict and isinstance(parsed, ParsedOutput):
        intervals = parsed.intervals  # a clean lenient parse reads the same pairs
    elif scored is not None:
        pairs = [(float(s), float(e)) for s, e in _PAIR_RE.findall(scored)]
        intervals = tuple(_unchecked(p) for p in pairs if p[0] <= p[1] < math.inf)
    text = answer.strip() if gvqa and answer is not None else None
    return Reading(parsed, intervals, text or None)


def _format_ts(value: float) -> str:
    return repr(float(value))


def _is_answer_text(text: object) -> bool:
    """The GVQA answer-text rule: a non-empty string, strip-stable, with no ``<`` or ``>``."""
    return (isinstance(text, str) and text != "" and text == text.strip()
            and "<" not in text and ">" not in text)


def _field_fault(text: str) -> str | None:
    """Why an id, scenario name or GVQA option cannot print as one ``key=value`` field, or None."""
    if _WHITESPACE_RE.search(text):  # any str.isspace character splits the field
        return "must not contain whitespace"
    if _LONE_SURROGATE_RE.search(text):  # JSON's "\ud800", which UTF-8 cannot encode
        return "cannot be encoded as UTF-8"
    return None


def serialize(p: ParsedOutput, task: TaskKind) -> str:
    """Render a ParsedOutput in canonical template form.

    The output always satisfies ``read(serialize(p, t), t).parsed == p``
    provided the GVQA answer text is tag-free and has no surrounding
    whitespace (parsing strips it). Violations of the task arity are rejected.
    """
    if task is TaskKind.GVQA:
        if not p.answer_text:
            raise ValueError("GVQA output requires non-empty answer text")
        if not _is_answer_text(p.answer_text):
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
