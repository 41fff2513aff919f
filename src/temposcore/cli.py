"""Command-line surface tying the library together.

Subcommands:

    eval      score a JSONL dataset and emit the metric report
    reward    emit one reward-breakdown record per dataset line
    match     show the DP matching of two inline interval lists
    simulate  run the toy policy-optimization loop on a scenario file

Exit codes: 0 success, 1 internal error, 2 input-schema error.

``eval`` and ``reward`` read the dataset in one pass, scoring each line as
it is read, and write once, at the end: a malformed line anywhere exits 2
with nothing written.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .evaluation import aggregate
from .grpo import GrpoConfig, ScenarioError, load_scenario, run_simulation, standard_reward_fn
from .intervals import Interval, iou
from .records import (
    DatasetError,
    iter_dataset,
    render_report,
    render_reward_record,
)
from .rewards import (
    TalConfig,
    _dp_table,
    _sorted_chrono,
    dp_match,
    sequential_match,
    total_reward,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2


@dataclass(frozen=True)
class RunConfig:
    """User-facing knobs shared across commands."""

    sigma: float = 1.0
    clamp_to_duration: bool = False
    strict_parse: bool = False
    tal_normalize: bool = False

    def tal_config(self) -> TalConfig:
        return TalConfig(sigma=self.sigma)


def _run_config(args: argparse.Namespace) -> RunConfig:
    defaults = RunConfig()
    return RunConfig(
        sigma=getattr(args, "sigma", defaults.sigma),
        clamp_to_duration=getattr(args, "clamp", defaults.clamp_to_duration),
        strict_parse=getattr(args, "strict_parse", defaults.strict_parse),
        tal_normalize=getattr(args, "tal_normalize", defaults.tal_normalize),
    )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    samples = iter_dataset(args.dataset)
    report = aggregate(samples, strict=cfg.strict_parse, clamp=cfg.clamp_to_duration)
    _emit(render_report(report), args.out)
    return EXIT_OK


def cmd_reward(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    tal_cfg = cfg.tal_config()
    lines = []
    for s in iter_dataset(args.dataset):
        breakdown = total_reward(
            s.prediction_raw, s.task, s.gt_intervals, s.gt_answer,
            cfg=tal_cfg, strict=cfg.strict_parse, tal_normalize=cfg.tal_normalize,
        )
        lines.append(render_reward_record(s, breakdown))
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
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


def _match_table(preds: tuple[Interval, ...], gts: tuple[Interval, ...], compare: bool) -> str:
    sp = _sorted_chrono(preds)
    sg = _sorted_chrono(gts)

    lines = ["preds (sorted):"]
    lines.extend(f"  p{i}: {iv.start:g} to {iv.end:g}" for i, iv in enumerate(sp))
    lines.append("gts (sorted):")
    lines.extend(f"  g{j}: {iv.start:g} to {iv.end:g}" for j, iv in enumerate(sg))

    lines.append("iou matrix (rows preds, cols gts):")
    header = "      " + " ".join(f"{f'g{j}':>6}" for j in range(len(sg)))
    lines.append(header)
    for i, p in enumerate(sp):
        row = " ".join(f"{iou(p, g):6.4f}" for g in sg)
        lines.append(f"  p{i:<3} {row}")

    lines.append("dp table (rows 0..m, cols 0..n):")
    for row in _dp_table(sp, sg)[0]:
        lines.append("  " + " ".join(f"{v:6.4f}" for v in row))

    dp = dp_match(preds, gts)
    pair_text = (
        " ".join(f"p{i}-g{j}(iou={v:.4f})" for (i, j), v in zip(dp.pairs, dp.pair_ious))
        if dp.pairs
        else "-"
    )
    lines.append(f"pairs: {pair_text}")
    lines.append(
        f"dp: siou={dp.siou:.4f} precision={dp.precision:.4f} "
        f"recall={dp.recall:.4f} f1={dp.f1:.4f}"
    )

    if compare:
        seq = sequential_match(preds, gts)
        seq_pairs = (
            " ".join(f"p{i}-g{j}(iou={v:.4f})" for (i, j), v in zip(seq.pairs, seq.pair_ious))
            if seq.pairs
            else "-"
        )
        lines.append(
            f"sequential: siou={seq.siou:.4f} precision={seq.precision:.4f} "
            f"recall={seq.recall:.4f} f1={seq.f1:.4f} pairs: {seq_pairs}"
        )
        ok = "ok" if dp.siou >= seq.siou else "VIOLATED"
        lines.append(f"dominance: dp.siou >= sequential.siou -> {ok} "
                     f"({dp.siou:.4f} >= {seq.siou:.4f})")
    return "\n".join(lines) + "\n"


def cmd_match(args: argparse.Namespace) -> int:
    preds = parse_inline_intervals(args.preds)
    gts = parse_inline_intervals(args.gts)
    _emit(_match_table(preds, gts, args.compare), args.out)
    return EXIT_OK


def _resolve_grpo_config(args: argparse.Namespace, scenario) -> GrpoConfig:
    """Scenario files may bundle optimizer defaults; explicit flags win."""
    cfg = scenario.grpo if scenario.grpo is not None else GrpoConfig()
    overrides = {
        name: getattr(args, name)
        for name in ("group_size", "clip_eps", "kl_beta", "learning_rate")
        if getattr(args, name) is not None
    }
    return replace(cfg, **overrides) if overrides else cfg


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    grpo_cfg = _resolve_grpo_config(args, scenario)
    reward_fn = standard_reward_fn(sigma=args.sigma, tal_normalize=args.tal_normalize)
    result = run_simulation(
        scenario, grpo_cfg, steps=args.steps, seed=args.seed, reward_fn=reward_fn
    )
    lines = [f"scenario={result.name} steps={args.steps} seed={args.seed}"]
    for pt in result.curve:
        lines.append(
            f"step={pt.step} mean_reward={pt.mean_reward:.4f} "
            f"kl={pt.kl:.4f} clip_fraction={pt.clip_fraction:.4f}"
        )
    for s in result.summaries:
        parts = [
            f"final prompt={s.prompt_index}",
            f"task={s.task.value}",
            f"modal_count={s.modal_count}",
            f"count_p={s.count_probability:.4f}",
        ]
        for k, slot in enumerate(s.top_slots):
            parts.append(f"slot{k}={slot.interval.start:g}-{slot.interval.end:g}")
            parts.append(f"slot{k}_p={slot.probability:.4f}")
        if s.top_answer is not None:
            parts.append(f"answer={s.top_answer}")
            parts.append(f"answer_p={s.answer_probability:.4f}")
        lines.append(" ".join(parts))
    _emit("\n".join(lines) + "\n", args.out)
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
    p_sim.add_argument("--clip-eps", type=float, default=None, dest="clip_eps")
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
    except (DatasetError, ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
