"""Rewards, interval matching, and evaluation for temporal video understanding RL.

The scoring side (intervals, parsing, rewards, evaluation, records) and the
scenario files (scenarios) need only the standard library; grpo needs
numpy. The names of ``scenarios`` and ``grpo``, and the two modules, load
on first access (PEP 562), so code that only scores imports neither, and
code that only loads scenarios never imports numpy.
"""

import importlib

from .evaluation import (
    EvalReport,
    RECALL_THRESHOLDS,
    Sample,
    TAL_THRESHOLDS,
    TaskBlock,
    aggregate,
)
from .intervals import Interval, IntervalSet, iou, merge, set_iou
from .parsing import (
    ParsedOutput,
    ParseError,
    ParseFailure,
    Reading,
    TaskKind,
    read,
    serialize,
)
from .records import DatasetError, iter_dataset, render_report, write_dataset
from .rewards import (
    MatchResult,
    RewardBreakdown,
    TalConfig,
    classification_reward,
    dp_match,
    instance_number_reward,
    reward_type1,
    reward_type2,
    sequential_match,
    total_reward,
)

__version__ = "0.1.0"

# each name is served on first access from the module it maps to
_LAZY_NAMES = {
    "GrpoConfig": "scenarios",
    "PromptSpec": "scenarios",
    "Scenario": "scenarios",
    "ScenarioError": "scenarios",
    "SimulationResult": "grpo",
    "StepStats": "grpo",
    "ToyPolicy": "grpo",
    "group_advantages": "grpo",
    "grpo_step": "grpo",
    "load_scenario": "scenarios",
    "run_simulation": "grpo",
    "standard_reward_fn": "grpo",
    "uniform_grid": "scenarios",
}
_LAZY_MODULES = ("grpo", "scenarios")


def __getattr__(name: str):
    # importlib: "from . import grpo" here would ask this function for "grpo" again
    module = name if name in _LAZY_MODULES else _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES, *_LAZY_MODULES})


__all__ = [
    "EvalReport",
    "RECALL_THRESHOLDS",
    "Sample",
    "TAL_THRESHOLDS",
    "TaskBlock",
    "aggregate",
    *_LAZY_NAMES,
    "Interval",
    "IntervalSet",
    "iou",
    "merge",
    "set_iou",
    "ParsedOutput",
    "ParseError",
    "ParseFailure",
    "Reading",
    "TaskKind",
    "read",
    "serialize",
    "DatasetError",
    "iter_dataset",
    "render_report",
    "write_dataset",
    "MatchResult",
    "RewardBreakdown",
    "TalConfig",
    "classification_reward",
    "dp_match",
    "instance_number_reward",
    "reward_type1",
    "reward_type2",
    "sequential_match",
    "total_reward",
]
