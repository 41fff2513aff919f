"""The JSON loaders only map fields: the constructors own every rule.

``records.sample_from_record`` and ``scenarios.scenario_from_dict`` check a
record's shape (object, key set), map its fields (task tag, defaults,
``grid_step`` expansion) and call ``Sample``, ``PromptSpec`` or ``Scenario``.
So a loader either returns what the constructor returns for the same
fields, or raises the constructor's message behind ``line N: `` or
``prompt N: ``.
"""

import copy
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from temposcore.evaluation import Sample
from temposcore.scenarios import PromptSpec, Scenario, ScenarioError, scenario_from_dict
from temposcore.parsing import TaskKind
from temposcore.records import DatasetError, sample_from_record

TAGS = tuple(task.value for task in TaskKind)


def task_of(tag):
    """The documented mapping of a JSON task tag: its TaskKind, else the tag as it is."""
    return TaskKind(tag) if isinstance(tag, str) and tag in TAGS else tag


# ---------------------------------------------------------------------------
# Which fault is reported first when one input has two


def test_a_line_reports_its_id_before_its_task_tag():
    record = {"id": 5, "task": "tg", "gt_intervals": [[0, 1]], "prediction": ""}
    with pytest.raises(DatasetError) as info:
        sample_from_record(record, 4)
    assert str(info.value) == "line 4: id must be a non-empty string"


def test_a_prompt_reports_its_bad_pair_before_a_grid_too_large_for_it():
    # 224 steps: 25,200 candidates, times 20 instances is over the slot-logit limit
    prompt = {"task": "TAL", "gt_intervals": [[5, 1]], "duration": 224, "grid_step": 1,
              "max_instances": 20}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({"prompts": [prompt]})
    assert str(info.value) == "prompt 0: bad gt_intervals [5, 1]: interval end < start: (5.0, 1.0)"


def test_a_prompt_reports_a_grid_step_it_cannot_expand_before_its_fields():
    """``grid_step`` is expanded before ``PromptSpec`` is built, so its faults come first."""
    prompt = {"task": "TG", "gt_intervals": [[5, 1]], "duration": 10, "grid_step": float("nan")}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({"prompts": [prompt]})
    assert str(info.value) == "prompt 0: grid_step must be a finite number"


def test_a_scenario_reports_its_prompts_before_its_name():
    """The prompts are built before ``Scenario`` is, so their faults come first."""
    prompt = {"task": "TG", "gt_intervals": [[0, 5]], "grid": [["0", 5]]}
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict({"name": "a b", "prompts": [prompt]})
    assert str(info.value) == "prompt 0: bad grid ['0', 5]: endpoints must be finite numbers"


# ---------------------------------------------------------------------------
# One field of a valid record mutated: the loader agrees with the constructor

# what a field can hold instead: wrong JSON types, extreme numbers, odd text
ODD_TEXT = st.text(st.sampled_from(["a", "B", "1", " ", "\t", "\x85", "\u2028", "\ud800", "<"]),
                   min_size=1, max_size=4)
ODD_NUMBERS = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -1e308,
                               10**400, -(10**400), -1.0, -0.0, 0, 5e-324, 2**63])
ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, [], {}, [[]], [1, [2]], {"a": 1}, "", "TG", "GVQA"]),
    ODD_NUMBERS,
    st.floats(-10.0, 200.0),
    st.integers(-3, 40),
)
# half of the draws are text, the other half anything else
TEXT_OR_ODD = st.booleans().flatmap(lambda text: ODD_TEXT if text else ODD_VALUES)
# a [start, end] pair gone wrong: negative, inverted, mistyped or of the wrong arity
ODD_PAIRS = st.one_of(
    st.lists(st.one_of(st.floats(-10.0, 10.0), TEXT_OR_ODD), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 10.0), min_size=0, max_size=3),
    TEXT_OR_ODD,
)

LINES = [
    {"id": "tg-0", "task": "TG", "gt_intervals": [[1.5, 4.0]],
     "prediction": "<answer>1 to 4</answer>"},
    {"id": "dtg-0", "task": "DTG", "gt_intervals": [[0, 2], [3.5, 9]], "prediction": "",
     "duration": 60.0},
    {"id": "gvqa-0", "task": "GVQA", "gt_intervals": [[2.0, 3.0]], "prediction": "x",
     "gt_answer": "B", "duration": 30},
    {"id": "tal-0", "task": "TAL", "gt_intervals": [[0.0, 1.0], [5.0, 8.0], [9.0, 9.0]],
     "prediction": "<answer>0 to 1</answer>"},
]
PROMPTS = [
    {"task": "TG", "gt_intervals": [[0, 5]], "grid": [[0, 5], [5, 10]]},
    {"task": "GVQA", "gt_intervals": [[0, 5]], "grid": [[0, 5.0]], "options": ["A", "B"],
     "gt_answer": "A"},
    {"task": "TAL", "gt_intervals": [[0, 5], [6, 7]], "grid": [[0, 5], [6, 7], [0, 7]],
     "max_instances": 3},
]
LINE_FIELDS = ("id", "task", "gt_intervals", "prediction", "duration", "gt_answer")
PROMPT_FIELDS = ("task", "gt_intervals", "grid", "max_instances", "gt_answer", "options")
PAIRS = ("gt_intervals", "grid")  # fields that hold [start, end] pairs


@st.composite
def mutated(draw, records, fields):
    """A valid record with one field, one item of a list field or one endpoint replaced."""
    record = copy.deepcopy(draw(st.sampled_from(records)))
    field = draw(st.sampled_from(fields))
    items = record.get(field)
    where = "field"
    if isinstance(items, list):
        where = draw(st.sampled_from(("field", "item", "endpoint")[:3 if field in PAIRS else 2]))
    if where == "field":
        record[field] = draw(st.one_of(TEXT_OR_ODD, st.lists(ODD_PAIRS, max_size=3)))
    elif where == "item":
        k = draw(st.integers(0, len(items) - 1))
        items[k] = draw(ODD_PAIRS if field in PAIRS else TEXT_OR_ODD)
    else:
        items[draw(st.integers(0, len(items) - 1))][draw(st.integers(0, 1))] = draw(ODD_VALUES)
    # what a JSON line can hold: tuples become lists, a lone surrogate an escape
    return json.loads(json.dumps(record))


def outcome(build):
    """What ``build()`` returns, or the message of the ValueError it raises."""
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated(LINES, LINE_FIELDS), st.integers(1, 10**6))
@example({**LINES[0], "id": "a\x85b"}, 1)
@example({**LINES[0], "id": "a\u2028b"}, 2)
@example({**LINES[0], "id": "a\ud800"}, 3)
@example({**LINES[1], "gt_intervals": [[0, 2], [-1.0, 3.0]]}, 4)
@example({**LINES[1], "gt_intervals": [[9, 1]]}, 5)
@example({**LINES[2], "duration": 10**400}, 6)
def test_dataset_line_loads_as_its_sample_or_its_error(record, line_no):
    want, fault = outcome(lambda: Sample(
        id=record["id"],
        task=task_of(record["task"]),
        gt_intervals=record["gt_intervals"],
        prediction_raw=record["prediction"],
        duration=record.get("duration"),
        gt_answer=record.get("gt_answer"),
    ))
    got, error = outcome(lambda: sample_from_record(record, line_no))
    assert got == want
    assert error == (None if fault is None else f"line {line_no}: {fault}")


def prompt_spec(d: dict) -> PromptSpec:
    """A PromptSpec from a prompt's fields, with the defaults docs/formats.md names."""
    task = task_of(d.get("task"))
    return PromptSpec(
        task=task,
        gt_intervals=d["gt_intervals"],
        grid=d["grid"],
        max_instances=d.get("max_instances", 1 if task is TaskKind.TG else 6),
        gt_answer=d.get("gt_answer"),
        options=d.get("options", ()),
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(mutated(PROMPTS, PROMPT_FIELDS))
@example({**PROMPTS[1], "options": ["A", "B\ud800"]})
@example({**PROMPTS[1], "options": ["A", "B\u2028"]})
@example({**PROMPTS[1], "options": ["A", "\x85B"]})
@example({**PROMPTS[2], "grid": [[-3.0, 2.0]]})
def test_scenario_prompt_loads_as_its_prompt_spec_or_its_error(prompt):
    first = PROMPTS[0]
    want, fault = outcome(lambda: Scenario("s", (prompt_spec(first), prompt_spec(prompt))))
    got, error = outcome(lambda: scenario_from_dict({"name": "s", "prompts": [first, prompt]}))
    assert got == want
    assert error == (None if fault is None else f"prompt 1: {fault}")


@settings(derandomize=True, max_examples=100, deadline=None)
@given(TEXT_OR_ODD)
def test_scenario_name_loads_as_its_scenario_or_its_error(name):
    name = json.loads(json.dumps(name))
    prompts = (prompt_spec(PROMPTS[0]),)
    want, fault = outcome(lambda: Scenario(name, prompts))
    got, error = outcome(lambda: scenario_from_dict({"name": name, "prompts": [PROMPTS[0]]}))
    assert got == want
    assert error == fault
