"""Command-line surface tying the library together.

Subcommands:

    eval      score a JSONL dataset and emit the metric report
    reward    emit one reward-breakdown record per dataset line
    match     show the DP matching of two inline interval lists
    simulate  run the toy policy-optimization loop on a scenario file

Exit codes: 0 success, 1 internal error, 2 input-schema error.

``eval`` and ``reward`` read the dataset in one pass, scoring each line as
it is read. Every command's output is committed only when the command
succeeds: a malformed line anywhere exits 2 with nothing written. ``--out``
streams to a temporary file that replaces the target at the end; stdout is
spooled to an unnamed temporary file and copied out at the end.

Only ``simulate`` imports ``scenarios`` and ``grpo``, and numpy with it,
inside ``load_scenario``; ``eval``, ``reward`` and ``match`` import neither.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import stat
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterator

from .evaluation import aggregate
from .intervals import Interval, iou
from .records import iter_dataset, render_report, render_reward_record
from .rewards import (
    MatchResult,
    TalConfig,
    _dp_table,
    dp_match,
    sequential_match,
    total_reward,
)

if TYPE_CHECKING:
    from .scenarios import GrpoConfig, Scenario

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2


def _new_file_mode() -> int:
    """The mode ``open(path, "w")`` gives a file it creates: 0o666 less the umask.

    Reading the umask sets it for a moment; the CLI runs on one thread.
    """
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


@contextmanager
def _writer(out: str | None) -> Iterator[Callable[[str], object]]:
    """A write function for a command's output, committed only if the command succeeds.

    With ``out`` naming a regular file or a new path, the text streams to a
    temporary file in the target's directory, which takes the mode the
    target has (or would get from ``open``) and replaces it with
    ``os.replace``; on any error it is deleted and the target is untouched.
    Otherwise (stdout, or a device or pipe that cannot be replaced) the text
    is spooled to an unnamed temporary file, in the encoding of its
    destination so that an unencodable text fails before anything is
    written, and copied out at the end; memory stays flat.
    """
    target = None if out is None else os.path.realpath(out)
    if target is None or (os.path.exists(target) and not os.path.isfile(target)):
        codec = (sys.stdout.encoding, sys.stdout.errors) if out is None else ("utf-8", "strict")
        with tempfile.TemporaryFile("w+", encoding=codec[0], errors=codec[1], newline="") as spool:
            yield spool.write
            spool.seek(0)
            if out is None:
                shutil.copyfileobj(spool, sys.stdout)
            else:
                with open(out, "w", encoding="utf-8") as f:
                    shutil.copyfileobj(spool, f)
        return
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        mode = _new_file_mode()
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".temposcore-", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8") as f:
            os.fchmod(fd, mode)
            yield f.write
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_eval(args: argparse.Namespace) -> int:
    report = aggregate(iter_dataset(args.dataset), strict=args.strict_parse, clamp=args.clamp)
    with _writer(args.out) as write:
        write(render_report(report))
    return EXIT_OK


def cmd_reward(args: argparse.Namespace) -> int:
    tal_cfg = TalConfig(sigma=args.sigma)  # a bad --sigma exits 2 before any line is read
    with _writer(args.out) as write:
        for s in iter_dataset(args.dataset):
            breakdown = total_reward(
                s.prediction_raw, s.task, s.gt_intervals, s.gt_answer,
                cfg=tal_cfg, strict=args.strict_parse, tal_normalize=args.tal_normalize,
            )
            write(render_reward_record(s, breakdown) + "\n")
    return EXIT_OK


_INLINE_ITEM_RE = re.compile(r"\A(\d+(?:\.\d+)?)-(\d+(?:\.\d+)?)\Z")


def parse_inline_intervals(text: str) -> tuple[Interval, ...]:
    """Parse CLI inline interval lists like "0-4,6-10" (plain decimals only)."""
    out = []
    for item in text.split(","):
        m = _INLINE_ITEM_RE.match(item.strip())
        if m is None:
            raise ValueError(f"cannot parse interval {item.strip()!r}; expected START-END")
        out.append(Interval(float(m.group(1)), float(m.group(2))))
    if not out:
        raise ValueError("interval list is empty")
    return tuple(out)


def _match_text(m: MatchResult) -> tuple[str, str]:
    """A match's scores and its pairs ("-" for none), as the match table prints them."""
    pairs = " ".join(f"p{i}-g{j}(iou={v:.4f})" for (i, j), v in zip(m.pairs, m.pair_ious))
    scores = f"siou={m.siou:.4f} precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f}"
    return scores, pairs or "-"


def _match_table(preds: tuple[Interval, ...], gts: tuple[Interval, ...], compare: bool) -> str:
    sp = sorted(preds)
    sg = sorted(gts)

    lines = ["preds (sorted):"]
    lines.extend(f"  p{i}: {iv.start:g} to {iv.end:g}" for i, iv in enumerate(sp))
    lines.append("gts (sorted):")
    lines.extend(f"  g{j}: {iv.start:g} to {iv.end:g}" for j, iv in enumerate(sg))

    lines.append("iou matrix (rows preds, cols gts):")
    lines.append("      " + " ".join(f"{f'g{j}':>6}" for j in range(len(sg))))
    for i, p in enumerate(sp):
        row = " ".join(f"{iou(p, g):6.4f}" for g in sg)
        lines.append(f"  p{i:<3} {row}")

    lines.append("dp table (rows 0..m, cols 0..n):")
    for row in _dp_table(sp, sg):
        lines.append("  " + " ".join(f"{v:6.4f}" for v in row))

    dp = dp_match(preds, gts)
    scores, pairs = _match_text(dp)
    lines.append(f"pairs: {pairs}")
    lines.append(f"dp: {scores}")

    if compare:
        seq = sequential_match(preds, gts)
        scores, pairs = _match_text(seq)
        lines.append(f"sequential: {scores} pairs: {pairs}")
        ok = "ok" if dp.siou >= seq.siou else "VIOLATED"
        lines.append(f"dominance: dp.siou >= sequential.siou -> {ok} "
                     f"({dp.siou:.4f} >= {seq.siou:.4f})")
    return "\n".join(lines) + "\n"


def cmd_match(args: argparse.Namespace) -> int:
    preds = parse_inline_intervals(args.preds)
    gts = parse_inline_intervals(args.gts)
    with _writer(args.out) as write:
        write(_match_table(preds, gts, args.compare))
    return EXIT_OK


def load_scenario(path: str) -> Scenario:
    """``scenarios.load_scenario``, importing ``scenarios`` and ``grpo`` on the first call.

    Only ``simulate`` calls it, so the other commands never import numpy.
    It imports ``grpo`` too, which the scenario does not need, so that
    numpy's import falls in this call (timed as setup by ``bench/child.py``)
    and not in the run.
    """
    from . import grpo, scenarios  # grpo for its import alone

    return scenarios.load_scenario(path)


def _resolve_grpo_config(args: argparse.Namespace, scenario: Scenario) -> GrpoConfig:
    """Scenario files may bundle optimizer defaults; explicit flags win."""
    from .scenarios import GrpoConfig

    cfg = scenario.grpo if scenario.grpo is not None else GrpoConfig()
    overrides = {
        name: getattr(args, name)
        for name in ("group_size", "clip_eps", "kl_beta", "learning_rate")
        if getattr(args, name) is not None
    }
    return replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)  # imports grpo, so the imports below are cached
    from .grpo import run_simulation, standard_reward_fn

    grpo_cfg = _resolve_grpo_config(args, scenario)
    reward_fn = standard_reward_fn(sigma=args.sigma, tal_normalize=args.tal_normalize)
    result = run_simulation(
        scenario, grpo_cfg, steps=args.steps, seed=args.seed, reward_fn=reward_fn
    )
    lines = [f"scenario={result.name} steps={args.steps} seed={args.seed}"]
    for t, stats in enumerate(result.curve):
        lines.append(
            f"step={t} mean_reward={stats.mean_reward:.4f} "
            f"kl={stats.kl:.4f} clip_fraction={stats.clip_fraction:.4f}"
        )
    # the modal choice of each head of the final policy
    for i, (prompt, (_, probs)) in enumerate(zip(scenario.prompts, result.policy.tables)):
        count_probs = probs["count"]
        modal = int(count_probs.argmax())
        parts = [
            f"final prompt={i}",
            f"task={prompt.task.value}",
            f"modal_count={modal + 1}",
            f"count_p={count_probs[modal]:.4f}",
        ]
        for k, slot_probs in enumerate(probs["slots"][:modal + 1]):
            best = int(slot_probs.argmax())
            iv = prompt.grid[best]
            parts.append(f"slot{k}={iv.start:g}-{iv.end:g}")
            parts.append(f"slot{k}_p={slot_probs[best]:.4f}")
        if "answer" in probs:
            answer_probs = probs["answer"]
            j = int(answer_probs.argmax())
            parts.append(f"answer={prompt.options[j]}")
            parts.append(f"answer_p={answer_probs[j]:.4f}")
        lines.append(" ".join(parts))
    with _writer(args.out) as write:
        write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temposcore",
        description="Rewards, interval matching, and evaluation for temporal video tasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a JSONL dataset")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--clamp", action="store_true",
                        help="clamp predicted times to [0, duration] when duration is given")
    p_eval.add_argument("--strict-parse", action="store_true", dest="strict_parse")
    p_eval.set_defaults(func=cmd_eval)

    p_reward = sub.add_parser("reward", help="per-sample reward breakdowns")
    p_reward.add_argument("--dataset", required=True)
    p_reward.add_argument("--out", default=None)
    p_reward.add_argument("--sigma", type=float, default=1.0)
    p_reward.add_argument("--strict-parse", action="store_true", dest="strict_parse")
    p_reward.add_argument("--tal-normalize", action="store_true", dest="tal_normalize",
                          help="rescale the TAL localization term to [0, 1]")
    p_reward.set_defaults(func=cmd_reward)

    p_match = sub.add_parser("match", help="show the DP matching of two interval lists")
    p_match.add_argument("--preds", required=True, help='e.g. "0-4,6-10"')
    p_match.add_argument("--gts", required=True, help='e.g. "2-8"')
    p_match.add_argument("--compare", action="store_true",
                         help="also show the sequential baseline")
    p_match.add_argument("--out", default=None)
    p_match.set_defaults(func=cmd_match)

    p_sim = sub.add_parser("simulate", help="run the toy optimization loop")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    # None means "not given": fall back to the scenario's bundled config
    p_sim.add_argument("--group-size", type=int, default=None, dest="group_size")
    p_sim.add_argument("--clip-eps", type=float, default=None, dest="clip_eps",
                       help="checked, but cannot change the output: with one inner "
                            "step per batch every ratio is 1, so the clip never binds")
    p_sim.add_argument("--kl-beta", type=float, default=None, dest="kl_beta")
    p_sim.add_argument("--learning-rate", type=float, default=None, dest="learning_rate")
    p_sim.add_argument("--tal-normalize", action="store_true", dest="tal_normalize")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DatasetError and ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
