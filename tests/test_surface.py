"""The public surface: the README tour runs, and every export has a user.

A user is the package itself, ``scripts/`` or the README tour; tests and the
benchmark do not count, so a name only they call is not exported.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import temposcore

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "temposcore"


def readme_tour() -> str:
    """The python block under the README's "Library quick tour" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_tour_runs_and_states_true_values(monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(readme_tour(), "README.md", "exec"), namespace)
    assert namespace["breakdown"].total == pytest.approx(1 + math.exp(-1) + 1 / 6)
    assert namespace["match"].siou == 0.25
    assert namespace["result"].curve[-1].mean_reward == 2.0


def _uses(tree: ast.AST, names: set[str]) -> set[str]:
    """The names read in ``tree``, not counting reads inside the name's own definition."""
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name in names and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_export_has_a_user_outside_tests():
    exported = set(temposcore.__all__)
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sources]
    trees.append(ast.parse(readme_tour()))
    used = set().union(*(_uses(tree, exported) for tree in trees))
    assert sorted(exported - used) == []


# the checkers a record's field rules are built from; only the constructors call them
FIELD_CHECKERS = {"_finite_float", "_interval_from_pair", "_intervals_from_pairs", "_field_fault",
                  "Interval"}


def test_records_maps_dataset_fields_and_checks_none():
    """Every dataset rule lives in ``Sample``, so none can drift back into the loader."""
    tree = ast.parse((PACKAGE / "records.py").read_text(encoding="utf-8"))
    assert sorted(_uses(tree, FIELD_CHECKERS)) == []


def test_scenario_loaders_map_prompt_fields_and_check_none():
    """Every prompt and scenario rule lives in ``PromptSpec`` and ``Scenario``."""
    tree = ast.parse((PACKAGE / "scenarios.py").read_text(encoding="utf-8"))
    loaders = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in ("_prompt_from_dict", "scenario_from_dict")]
    assert len(loaders) == 2
    assert sorted(set().union(*(_uses(node, FIELD_CHECKERS) for node in loaders))) == []


def _defined(path: Path) -> set[str]:
    """The names a module's top level defines, imports not counted."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_grpo_defines_no_scenario_or_config_name():
    """Scenario files and the optimizer config have one home, ``scenarios``."""
    scenario_names = _defined(PACKAGE / "scenarios.py")
    assert {"GrpoConfig", "Scenario", "load_scenario", "uniform_grid"} <= scenario_names
    assert sorted(scenario_names & _defined(PACKAGE / "grpo.py")) == []


# Run in a fresh interpreter, where nothing has imported grpo or numpy yet.
NUMPY_FREE = """
import sys
from pathlib import Path

import temposcore
from temposcore import cli

corpus = "tests/fixtures/mixed_corpus.jsonl"
for argv in (["eval", "--dataset", corpus], ["reward", "--dataset", corpus, "--tal-normalize"],
             ["match", "--preds", "0-4,6-10", "--gts", "2-8", "--compare"]):
    assert cli.main(argv) == 0, argv
assert not {"numpy", "temposcore.grpo", "temposcore.scenarios"} & set(sys.modules)

lazy = [name for name in temposcore.__all__ if name not in vars(temposcore)]
assert lazy == list(temposcore._LAZY_NAMES), lazy
assert set(dir(temposcore)) >= {*temposcore.__all__, "grpo", "scenarios"}
try:
    temposcore.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'temposcore' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("an unknown name resolved")
assert "numpy" not in sys.modules

from temposcore import scenarios

files = sorted(Path("scenarios").glob("*.json"))
assert len(files) == 3, files
for path in files:
    assert scenarios.load_scenario(path).prompts, path
try:
    scenarios.scenario_from_dict({"prompts": [{"task": "TG", "grid": [[0, 5]]}]})
except scenarios.ScenarioError as exc:
    assert str(exc) == "prompt 0: missing gt_intervals", exc
else:
    raise AssertionError("a prompt without gt_intervals loaded")
for name, module in temposcore._LAZY_NAMES.items():
    if module == "scenarios":
        assert getattr(temposcore, name) is getattr(scenarios, name), name
assert "numpy" not in sys.modules and "temposcore.grpo" not in sys.modules

from temposcore import grpo

assert "numpy" in sys.modules
for name, module in temposcore._LAZY_NAMES.items():
    home = sys.modules[f"temposcore.{module}"]
    assert getattr(temposcore, name) is getattr(home, name), name
    assert getattr(home, name).__module__ == home.__name__, name
star = {}
exec("from temposcore import *", star)
assert {name for name in star if not name.startswith("__")} == set(temposcore.__all__)
"""


def test_scoring_loads_no_numpy_and_grpo_names_load_on_first_use():
    """Scoring imports neither ``scenarios`` nor ``grpo``; scenarios load without numpy.

    Every lazily served name still resolves, to the object its home module defines.
    """
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE], cwd=ROOT, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
