#!/usr/bin/env python3
"""temposcore benchmark: eval, reward and multi-task GRPO throughput.

    python3 bench/run.py --workload eval-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The inputs are generated from ``--seed``
into ``bench/.data`` (git-ignored) and reused for the same seed. Each
measured round is one child process (``bench/child.py``) that runs
``temposcore.cli.main`` single-threaded; rounds repeat until ``--seconds``
have passed. The outputs are checked against ``bench/reference.py``.

``--trace 0`` prints the end-to-end metrics (medians over the rounds).
``--trace 1`` adds one traced round after the untraced ones and prints the
per-layer metrics derived from its span file. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / ".data"
KEEP_SEEDS = 3  # cached inputs kept per workload
ROUND_TIMEOUT_S = 150
TOLERANCE = 0.5e-4 + 1e-9  # values printed with 4 decimals

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402


class CheckFailed(Exception):
    pass


def close(printed: str, want: float, what: str) -> None:
    if abs(float(printed) - want) > TOLERANCE:
        raise CheckFailed(f"{what}: printed {printed}, reference {want:.6f}")


def key_values(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self, d: Path) -> dict:
        raise NotImplementedError

    def cli_args(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, output: str) -> None:
        raise NotImplementedError


def _dataset_rows(path: Path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


class EvalMixed(Workload):
    name = "eval-mixed"

    def generate(self, d: Path) -> dict:
        lines, plan = gen.eval_mixed(self.seed)
        gen.write_jsonl(d / "input.jsonl", lines)
        failures = {t: 0 for t in gen.TASKS}
        for p in plan:
            failures[p["task"]] += p["reason"] is not None
        return {"responses": len(lines), "ops": len(lines),
                "tal_samples": sum(p["task"] == "TAL" for p in plan),
                "reasons": [p["reason"] for p in plan], "failures": failures}

    def cli_args(self, out: Path) -> list:
        return ["eval", "--dataset", str(self.workdir / "input.jsonl"), "--out", str(out)]

    def check(self, output: str) -> None:
        rows = _dataset_rows(self.workdir / "input.jsonl")
        for row, reason in zip(rows, self.meta["reasons"]):
            if reference.parse_reason(row["prediction"], row["task"]) != reason:
                raise CheckFailed(f"{row['id']}: planted reason {reason} not what the "
                                  "reference parser reads")
        want = reference.eval_report(
            (r["task"], r["prediction"], [tuple(iv) for iv in r["gt_intervals"]],
             r.get("gt_answer")) for r in rows)
        lines = output.splitlines()
        if lines[0] != "report_version=1" or len(lines) != 6:
            raise CheckFailed("report shape")
        per_task = {t: 0 for t in gen.TASKS}
        for r in rows:
            per_task[r["task"]] += 1
        for line, task in zip(lines[1:], gen.TASKS):
            got = key_values(line)
            if got.pop("task") != task:
                raise CheckFailed(f"task order at {task}")
            got.pop("protocol", None)
            if int(got.pop("n_samples")) != per_task[task]:
                raise CheckFailed(f"{task} n_samples")
            if int(got.pop("n_parse_failures")) != self.meta["failures"][task]:
                raise CheckFailed(f"{task} n_parse_failures != planted")
            ref = want[task]
            if set(got) != set(ref) - {"n_samples", "n_parse_failures"}:
                raise CheckFailed(f"{task} metric keys {sorted(got)}")
            for key, printed in got.items():
                close(printed, ref[key], f"{task} {key}")
            for prefix in ("r@", "sr@", "f1@"):
                series = [float(v) for k, v in got.items() if k.startswith(prefix)]
                if any(b > a for a, b in zip(series, series[1:])):
                    raise CheckFailed(f"{task} {prefix} increases with the threshold")


class RewardDense(Workload):
    name = "reward-dense"

    def generate(self, d: Path) -> dict:
        lines, plan = gen.reward_dense(self.seed)
        gen.write_jsonl(d / "input.jsonl", lines)
        return {"responses": len(lines), "ops": len(lines),
                "tal_samples": sum(p["task"] == "TAL" for p in plan),
                "well_formed": [p["well_formed"] for p in plan]}

    def cli_args(self, out: Path) -> list:
        return ["reward", "--dataset", str(self.workdir / "input.jsonl"), "--out", str(out)]

    def check(self, output: str) -> None:
        rows = _dataset_rows(self.workdir / "input.jsonl")
        records = output.splitlines()
        if len(records) != len(rows):
            raise CheckFailed(f"{len(records)} records for {len(rows)} lines")
        for row, line, well_formed in zip(rows, records, self.meta["well_formed"]):
            got = key_values(line)
            rid = row["id"]
            if got["id"] != rid or got["task"] != row["task"]:
                raise CheckFailed(f"record order at {rid}")
            ref = reference.reward_record(row["prediction"], row["task"],
                                          [tuple(iv) for iv in row["gt_intervals"]],
                                          row.get("gt_answer"))
            if int(got["format"]) != int(well_formed) or ref["format"] != int(well_formed):
                raise CheckFailed(f"{rid}: format={got['format']}, planted {well_formed}")
            if got["cls"] != ("-" if ref["cls"] is None else str(ref["cls"])):
                raise CheckFailed(f"{rid}: cls={got['cls']}")
            for key in ("loc", "total") + (("num", "siou", "f1") if "num" in ref else ()):
                close(got[key], ref[key], f"{rid} {key}")
            if "num" not in ref:
                continue
            if float(got["siou"]) < ref["seq_siou"] - TOLERANCE:
                raise CheckFailed(f"{rid}: siou below the sequential pairing")
            pairs = [] if got["pairs"] == "-" else [
                tuple(map(int, p.split(":"))) for p in got["pairs"].split(",")]
            if any(b[0] <= a[0] or b[1] <= a[1] for a, b in zip(pairs, pairs[1:])):
                raise CheckFailed(f"{rid}: pairs not strictly increasing")
            if pairs != list(ref["pairs"]):
                raise CheckFailed(f"{rid}: pairs differ from the tie rule's")


class SimulateMultitask(Workload):
    name = "simulate-multitask"
    min_rounds = 2  # the check compares two runs with one seed

    def generate(self, d: Path) -> dict:
        scenario, info = gen.simulate_scenario(self.seed)
        (d / "scenario.json").write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        return {"responses": info["steps"] * info["n_prompts"] * 8, "ops": info["steps"],
                "tal_samples": info["steps"] * 8, "tal_gt_count": info["tal_gt_count"]}

    def cli_args(self, out: Path) -> list:
        return ["simulate", "--scenario", str(self.workdir / "scenario.json"),
                "--steps", str(gen.SIM_STEPS), "--seed", str(self.seed), "--out", str(out)]

    def check(self, output: str) -> None:
        lines = output.splitlines()
        steps = gen.SIM_STEPS
        rewards = [float(key_values(line)["mean_reward"]) for line in lines[1:1 + steps]]
        if len(rewards) != steps:
            raise CheckFailed("curve length")
        tenth = steps // 10
        first, last = sum(rewards[:tenth]) / tenth, sum(rewards[-tenth:]) / tenth
        if not last > first:
            raise CheckFailed(f"no learning: first tenth {first:.4f}, last tenth {last:.4f}")
        finals = [key_values(line.replace("final ", "")) for line in lines[1 + steps:]]
        tal = [f for f in finals if f["task"] == "TAL"]
        if len(tal) != 1 or int(tal[0]["modal_count"]) != self.meta["tal_gt_count"]:
            raise CheckFailed(f"TAL modal_count {tal and tal[0]['modal_count']}")


WORKLOADS = {w.name: w for w in (EvalMixed, RewardDense, SimulateMultitask)}


# ---------------------------------------------------------------------------
# inputs and rounds


def prepare(workload: Workload) -> None:
    """Generate the seed's inputs once; later runs with the seed reuse them."""
    d = workload.workdir
    if not (d / "meta.json").exists():
        tmp = d.with_name(d.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        meta = workload.generate(tmp)
        (tmp / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        try:
            tmp.rename(d)
        except OSError:  # another run generated the same seed meanwhile
            shutil.rmtree(tmp, ignore_errors=True)
    workload.meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    os.utime(d)
    prefix = f"{workload.name}-s"
    cached = sorted((p for p in DATA.glob(prefix + "*")
                     if p.name[len(prefix):].lstrip("-").isdigit()),
                    key=lambda p: p.stat().st_mtime)
    for old in cached[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload: Workload, out: Path, trace_file: str = "-") -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), None, trace_file, "--"]
    cmd += workload.cli_args(out)
    cmd[2] = repr(time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"rc": proc.returncode}
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["rc"] != 0:
        sys.stderr.write(proc.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "temposcore" / "__init__.py").is_file():
        print(f"error: no temposcore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    reference.self_check()
    workload = WORKLOADS[args.workload](args.seed, DATA / f"{args.workload}-s{args.seed}")
    prepare(workload)
    scratch = DATA / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload: Workload, args, scratch: Path) -> int:
    ops = workload.meta["ops"]
    rounds, outputs = [], []
    attempted = failed = 0
    t_start = time.monotonic()
    while True:
        out = scratch / f"out{len(rounds)}.txt"
        r = run_round(workload, out)
        attempted += ops
        if r["rc"] != 0:
            failed += ops
        else:
            rounds.append(r)
            outputs.append(out.read_bytes())
        if time.monotonic() - t_start >= args.seconds and len(rounds) >= workload.min_rounds:
            break
        if failed and not rounds:
            break

    correct = bool(outputs)
    try:
        if any(o != outputs[0] for o in outputs):
            raise CheckFailed("rounds with one seed printed different output")
        if outputs:
            workload.check(outputs[0].decode("utf-8"))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if args.trace:
        trace_file = DATA / f"trace-{workload.name}.jsonl"
        out = scratch / "traced.txt"
        r = run_round(workload, out, str(trace_file))
        attempted += ops
        if r["rc"] != 0:
            failed += ops
            metrics = {}
        else:
            if outputs and out.read_bytes() != outputs[0]:
                print("check failed: traced output differs from untraced", file=sys.stderr)
                correct = False
            metrics = tracer.derive(
                str(trace_file), workload.meta["responses"], workload.meta["tal_samples"],
                statistics.median(x["main_s"] for x in rounds) if rounds else r["main_s"])
    elif rounds:
        responses = workload.meta["responses"]
        metrics = {
            "setup_s": {"value": statistics.median(x["setup_s"] for x in rounds), "unit": "s"},
            "samples_per_s": {
                "value": statistics.median(responses / x["command_s"] for x in rounds),
                "unit": "samples/s"},
            "peak_rss_mb": {"value": statistics.median(x["peak_rss_mb"] for x in rounds),
                            "unit": "MB"},
        }
    else:
        metrics = {}
    print(f"{workload.name} seed={args.seed} rounds={len(rounds)} command_s="
          + ",".join(f"{x['command_s']:.4f}" for x in rounds), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
