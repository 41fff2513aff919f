"""Rewards, interval matching, and evaluation for temporal video understanding RL.

The scoring side (intervals, parsing, rewards, evaluation, records) needs
only the standard library. The GRPO names and ``temposcore.grpo`` load the
``grpo`` module, and numpy with it, on first access (PEP 562), so code that
only scores never imports numpy.
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

# served from temposcore.grpo on first access
_GRPO_NAMES = (
    "GrpoConfig",
    "PromptSpec",
    "Scenario",
    "ScenarioError",
    "SimulationResult",
    "StepStats",
    "ToyPolicy",
    "group_advantages",
    "grpo_step",
    "load_scenario",
    "run_simulation",
    "standard_reward_fn",
    "uniform_grid",
)


def __getattr__(name: str):
    # importlib: "from . import grpo" here would ask this function for "grpo" again
    if name == "grpo" or name in _GRPO_NAMES:
        grpo = importlib.import_module(".grpo", __name__)
        return grpo if name == "grpo" else getattr(grpo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_GRPO_NAMES, "grpo"})


__all__ = [
    "EvalReport",
    "RECALL_THRESHOLDS",
    "Sample",
    "TAL_THRESHOLDS",
    "TaskBlock",
    "aggregate",
    *_GRPO_NAMES,
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
