"""Scenario files: the synthetic prompts ``simulate`` trains on, and the optimizer config.

A scenario is a JSON object (schema in docs/formats.md) naming a list of
prompts, each a ground truth plus a grid of candidate intervals, and an
optional ``grpo`` block of optimizer defaults. The rules on a prompt's and a
scenario's fields live in the ``PromptSpec`` and ``Scenario`` constructors,
and the rules on the optimizer's in ``GrpoConfig``; the loaders here only map
the JSON fields onto them. Like ``records``, this module needs only the
standard library: loading or checking a scenario imports no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .intervals import Interval, _finite_float, _intervals_from_pairs
from .parsing import TaskKind, _TASKS, _field_fault, _is_answer_text


# The responses one prompt draws per step, all held at once: sample_group
# builds the whole group before it is scored.
MAX_GROUP_SIZE = 4096


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    kl_beta: float = 0.04
    learning_rate: float = 0.5
    std_floor: float = 1e-6

    def __post_init__(self) -> None:
        # checked here, where scenario "grpo" blocks and CLI flags both enter
        if isinstance(self.group_size, bool) or not isinstance(self.group_size, int):
            raise ValueError("group_size must be an integer")
        for name in ("clip_eps", "kl_beta", "learning_rate", "std_floor"):
            if _finite_float(getattr(self, name)) is None:
                raise ValueError(f"{name} must be a finite number")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.group_size > MAX_GROUP_SIZE:
            raise ValueError(
                f"group_size {self.group_size} exceeds the limit of {MAX_GROUP_SIZE}"
            )
        if not (0.0 < self.clip_eps < 1.0):
            raise ValueError("clip_eps must be in (0, 1)")
        if self.kl_beta < 0.0:
            raise ValueError("kl_beta must be >= 0")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not (self.std_floor > 0.0):
            raise ValueError("std_floor must be positive")


class ScenarioError(ValueError):
    """Raised for malformed scenario files."""


# Size limits checked before anything is allocated: a grid_step builds
# n(n+1)/2 candidates from two numbers, and the policy holds one slot-logit
# row of len(grid) per instance.
MAX_GRID_CANDIDATES = 50_000
MAX_SLOT_LOGITS = 500_000


@dataclass(frozen=True)
class PromptSpec:
    """One synthetic training prompt: ground truth plus a candidate grid, checked like Sample."""

    task: TaskKind
    gt_intervals: tuple[Interval, ...]
    grid: tuple[Interval, ...]
    max_instances: int = 1
    gt_answer: str | None = None
    options: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # the types first, then the values, as in Sample
        if not isinstance(self.task, TaskKind):
            raise ScenarioError(f"unknown task {self.task!r}")
        for key in ("gt_intervals", "grid"):
            pairs = getattr(self, key)
            if not isinstance(pairs, (list, tuple)):
                raise ScenarioError(f"{key} must be a list of [start, end] pairs")
            object.__setattr__(self, key, _intervals_from_pairs(pairs, key, ScenarioError))
        if isinstance(self.max_instances, bool) or not isinstance(self.max_instances, int):
            raise ScenarioError("max_instances must be an integer")
        if not isinstance(self.options, (list, tuple)):
            raise ScenarioError("options must be a list")
        object.__setattr__(self, "options", tuple(self.options))
        if not self.gt_intervals:
            raise ScenarioError("a prompt needs at least one ground-truth interval")
        if not self.grid:
            raise ScenarioError("a prompt needs a non-empty candidate grid")
        if self.max_instances < 1:
            raise ScenarioError("max_instances must be >= 1")
        slot_logits = self.max_instances * len(self.grid)
        if slot_logits > MAX_SLOT_LOGITS:
            raise ScenarioError(
                f"{slot_logits} slot logits (max_instances x candidates) exceed "
                f"the limit of {MAX_SLOT_LOGITS}"
            )
        if self.task is TaskKind.TG and self.max_instances != 1:
            raise ScenarioError("TG prompts emit exactly one interval")
        if self.task is TaskKind.TG and len(self.gt_intervals) != 1:
            raise ScenarioError("TG prompts take exactly one ground-truth interval")
        if self.task is TaskKind.GVQA:
            if not self.options:
                raise ScenarioError("GVQA prompts need answer options")
            seen = set()
            for option in self.options:
                if not _is_answer_text(option):  # what serialize needs of an answer text
                    raise ScenarioError(
                        f"GVQA option {option!r} must be a non-empty, tag-free string "
                        "without surrounding whitespace"
                    )
                fault = _field_fault(option)  # simulate prints it as answer=OPTION
                if fault is not None:
                    raise ScenarioError(f"GVQA option {option!r} {fault}")
                if option in seen:  # two answer indices would decode to one text
                    raise ScenarioError(f"GVQA option {option!r} is repeated")
                seen.add(option)
            if self.gt_answer not in self.options:
                raise ScenarioError("GVQA gt_answer must be one of the options")
        elif self.options or self.gt_answer is not None:
            raise ScenarioError(f"{self.task.value} prompts carry no answer options")


@dataclass(frozen=True)
class Scenario:
    """A named list of prompts; the constructor checks both, as :class:`PromptSpec` does."""

    name: str
    prompts: tuple[PromptSpec, ...]
    grpo: GrpoConfig | None = None  # optional optimizer defaults bundled with the file

    def __post_init__(self) -> None:
        if not isinstance(self.prompts, (list, tuple)) or not self.prompts:
            raise ScenarioError("scenario needs a non-empty 'prompts' list")
        object.__setattr__(self, "prompts", tuple(self.prompts))
        if not isinstance(self.name, str):
            raise ScenarioError("scenario name must be a string")
        fault = _field_fault(self.name)  # simulate prints it as scenario=NAME
        if fault is not None:
            raise ScenarioError(f"scenario name {self.name!r} {fault}")
        for i, prompt in enumerate(self.prompts):
            if not isinstance(prompt, PromptSpec):
                raise ScenarioError(
                    f"prompt {i}: must be a PromptSpec, not {type(prompt).__name__}"
                )
        if self.grpo is not None and not isinstance(self.grpo, GrpoConfig):
            raise ScenarioError(
                f"'grpo' must be a GrpoConfig or None, not {type(self.grpo).__name__}"
            )


def uniform_grid(duration: float, step: float) -> tuple[Interval, ...]:
    """All candidate intervals with endpoints on a regular grid over [0, duration].

    The points are ``round(i * step, 9)`` for i = 0..n, n the largest i whose
    point does not pass ``duration``.
    """
    if not (duration > 0 and step > 0):
        raise ScenarioError("duration and grid_step must be positive")
    ratio = duration / step
    if not math.isfinite(ratio):
        raise ScenarioError("grid_step is too small for the duration")
    n = int(ratio)
    # the float ratio can fall just short of a whole step (0.3 / 0.1), and a
    # rounded point can pass a duration given to more than 9 decimals
    if round((n + 1) * step, 9) <= duration:
        n += 1
    elif n and round(n * step, 9) > duration:
        n -= 1
    if n < 1:
        raise ScenarioError("grid_step is larger than the duration")
    candidates = n * (n + 1) // 2
    if candidates > MAX_GRID_CANDIDATES:
        raise ScenarioError(
            f"a grid of {candidates} candidates exceeds the limit of {MAX_GRID_CANDIDATES}"
        )
    points = [round(i * step, 9) for i in range(n + 1)]
    return tuple(
        Interval(points[i], points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


_SCENARIO_KEYS = {"name", "prompts", "grpo"}
_PROMPT_KEYS = {
    "task", "duration", "gt_intervals", "gt_answer",
    "options", "grid", "grid_step", "max_instances",
}
_GRPO_KEYS = {"group_size", "clip_eps", "kl_beta", "learning_rate", "std_floor"}
_DEFAULT_INSTANCES = 6


def _scenario_number(d: dict, key: str) -> float:
    value = _finite_float(d[key])
    if value is None:
        raise ScenarioError(f"{key} must be a finite number")
    return value


def _prompt_from_dict(d: dict, i: int) -> PromptSpec:
    """Prompt ``i`` of a scenario file; each of its faults is raised as ``prompt i: ...``."""
    try:
        if not isinstance(d, dict):
            raise ScenarioError("must be an object")
        for key in d:
            if key not in _PROMPT_KEYS:
                raise ScenarioError(f"unknown scenario key {key!r}")
        if "gt_intervals" not in d:
            raise ScenarioError("missing gt_intervals")
        duration = _scenario_number(d, "duration") if "duration" in d else None
        if "grid" in d and "grid_step" in d:
            raise ScenarioError("give either grid or grid_step, not both")
        grid = d.get("grid")
        if "grid_step" in d:
            if duration is None:
                raise ScenarioError("grid_step needs a duration")
            grid = uniform_grid(duration, _scenario_number(d, "grid_step"))
        elif "grid" not in d:
            raise ScenarioError("missing grid or grid_step")
        tag = d.get("task")
        task = _TASKS.get(tag, tag) if isinstance(tag, str) else tag  # PromptSpec refuses the rest
        return PromptSpec(
            task=task,
            gt_intervals=d["gt_intervals"],
            grid=grid,
            max_instances=d.get("max_instances", 1 if task is TaskKind.TG else _DEFAULT_INSTANCES),
            gt_answer=d.get("gt_answer"),
            options=d.get("options", ()),
        )
    except ScenarioError as exc:
        raise ScenarioError(f"prompt {i}: {exc}") from None


def _grpo_from_dict(d: dict) -> GrpoConfig:
    if not isinstance(d, dict):
        raise ScenarioError("'grpo' must be an object")
    for key in d:
        if key not in _GRPO_KEYS:
            raise ScenarioError(f"unknown scenario key {'grpo.' + key!r}")
    try:
        return GrpoConfig(**d)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad grpo config: {exc}") from exc


def scenario_from_dict(d: dict) -> Scenario:
    if not isinstance(d, dict):
        raise ScenarioError("scenario must be a JSON object")
    for key in d:
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"unknown scenario key {key!r}")
    grpo = _grpo_from_dict(d["grpo"]) if "grpo" in d else None
    prompts = d.get("prompts")
    if isinstance(prompts, list):  # Scenario refuses anything else
        prompts = [_prompt_from_dict(p, i) for i, p in enumerate(prompts)]
    return Scenario(name=d.get("name", "scenario"), prompts=prompts, grpo=grpo)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
