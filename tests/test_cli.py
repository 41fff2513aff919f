import builtins
import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st, given

from temposcore import TaskKind, DatasetError, cli, iter_dataset, total_reward
from temposcore.cli import main, parse_inline_intervals
from temposcore.records import sample_from_record, write_dataset

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = ROOT / "scenarios"


class TestDatasetIO:
    def test_load_fixture_corpus(self):
        samples = list(iter_dataset(FIXTURES / "mixed_corpus.jsonl"))
        assert len(samples) == 100
        assert sum(1 for s in samples if s.task is TaskKind.GVQA) == 20

    def test_round_trip(self, tmp_path):
        samples = list(iter_dataset(FIXTURES / "mixed_corpus.jsonl"))
        out = tmp_path / "copy.jsonl"
        write_dataset(samples, out)
        assert list(iter_dataset(out)) == samples

    @pytest.mark.parametrize(
        "record,fragment",
        [
            ({"task": "TG"}, "missing fields"),
            ({"id": "x", "task": "XX", "gt_intervals": [[0, 1]], "prediction": ""}, "task tag"),
            ({"id": "x", "task": "TG", "gt_intervals": [], "prediction": ""}, "non-empty"),
            ({"id": "x", "task": "TG", "gt_intervals": [[5, 1]], "prediction": ""}, "end < start"),
            (
                {"id": "x", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "", "zzz": 1},
                "unexpected fields",
            ),
            (
                {"id": "x", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "",
                 "gt_answer": "A"},
                "GVQA",
            ),
        ],
    )
    def test_schema_violations(self, record, fragment):
        with pytest.raises(DatasetError) as exc:
            sample_from_record(record, line_no=7)
        assert "line 7" in str(exc.value)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("duration", ["true", "Infinity", "-Infinity", "NaN", "1e400"])
    def test_duration_must_be_finite_number(self, tmp_path, capsys, duration):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "task": "TG", "gt_intervals": [[0, 1]], '
                        f'"prediction": "x", "duration": {duration}}}\n')
        assert main(["eval", "--dataset", str(path), "--clamp"]) == 2
        assert "line 1: duration must be a finite number" in capsys.readouterr().err

    def test_huge_integer_gt_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "task": "TG", "gt_intervals": [[0, 1' + "0" * 400 +
                        ']], "prediction": "x"}\n')
        assert main(["eval", "--dataset", str(path)]) == 2
        assert "line 1: bad gt interval" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "gts, fragment",
        [
            ('[[true, "5"]]', "endpoints must be finite numbers"),
            ('[[0, "5"]]', "endpoints must be finite numbers"),
            ('["05"]', "not a [start, end] pair"),
        ],
    )
    def test_gt_endpoints_must_be_number_pairs(self, tmp_path, capsys, gts, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "task": "TG", "gt_intervals": ' + gts +
                        ', "prediction": "<answer>1 to 5</answer>"}\n')
        assert main(["reward", "--dataset", str(path)]) == 2
        assert f"line 1: bad gt interval {json.loads(gts)[0]!r}: {fragment}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["eval", "reward"])
    def test_deeply_nested_line_is_invalid_json(self, tmp_path, capsys, command):
        """The decoder gives up on 2,000 nested arrays with a RecursionError."""
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 2000 + "\n")
        assert main([command, "--dataset", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1: invalid JSON: ")

    @pytest.mark.parametrize("command", ["eval", "reward"])
    def test_over_long_integer_is_invalid_json(self, tmp_path, capsys, command):
        """A 5,000-digit integer passes the JSON grammar but not int()'s digit limit."""
        path = tmp_path / "long.jsonl"
        good = {"id": "a", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "x"}
        path.write_text(json.dumps(good) + "\n" + '{"id": "b", "task": "TG", "gt_intervals": '
                        '[[0, 1' + "0" * 5000 + ']], "prediction": "x"}\n')
        assert main([command, "--dataset", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: invalid JSON: Exceeds the limit")

    @pytest.mark.parametrize("command", ["eval", "reward"])
    def test_non_utf8_bytes_name_their_line(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.jsonl"
        good = {"id": "a", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "x"}
        path.write_bytes(json.dumps(good).encode() + b'\n{"id": "b\xff", "task": "TG"}\n')
        assert main([command, "--dataset", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: line 2: invalid JSON: 'utf-8' codec can't decode byte "
                                "0xff in position 9: invalid start byte\n")

    def test_non_utf8_bytes_are_reached_after_earlier_lines_are_scored(self, tmp_path, capsys,
                                                                      monkeypatch):
        """The bytes are decoded line by line, not ahead of the lines before them."""
        path = tmp_path / "late.jsonl"
        first = {"id": "g", "task": "GVQA", "gt_intervals": [[1, 2]], "gt_answer": "B",
                 "prediction": "<answer>B</answer><glue>1 to 2</glue>"}
        path.write_bytes(json.dumps(first).encode() + b"\n\xff\n")
        scored = []

        def recording_total_reward(raw, *args, **kwargs):
            scored.append(raw)
            return total_reward(raw, *args, **kwargs)

        monkeypatch.setattr(cli, "total_reward", recording_total_reward)
        assert main(["reward", "--dataset", str(path)]) == 2
        assert scored == [first["prediction"]]
        assert capsys.readouterr().err.startswith("error: line 2: invalid JSON: 'utf-8' codec")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_line_endings_and_utf8_text_read_as_before(self, tmp_path, capsys, newline):
        path = tmp_path / "endings.jsonl"
        records = [{"id": f"é{i}", "task": "TG", "gt_intervals": [[0, 1]],
                    "prediction": "déjà vu <answer>0 to 1</answer>"} for i in range(3)]
        text = newline.join(json.dumps(r, ensure_ascii=False) for r in records) + newline
        path.write_bytes(text.encode("utf-8"))
        assert [s.id for s in iter_dataset(path)] == ["é0", "é1", "é2"]
        assert main(["reward", "--dataset", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[2] == (
            "id=é2 task=TG format=1 loc=1.0000 cls=- total=2.0000"
        )

    def test_bad_line_number_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "x"}
        path.write_text(json.dumps(good) + "\n" + "{not json}\n")
        with pytest.raises(DatasetError) as exc:
            list(iter_dataset(path))
        assert exc.value.line_no == 2


class TestEvalCommand:
    def test_golden_report(self, tmp_path, capsys):
        code = main(["eval", "--dataset", str(FIXTURES / "mixed_corpus.jsonl")])
        assert code == 0
        got = capsys.readouterr().out
        assert got == (FIXTURES / "golden_report.txt").read_text()

    def test_varied_golden_report(self, capsys):
        code = main(["eval", "--dataset", str(FIXTURES / "varied_corpus.jsonl")])
        assert code == 0
        assert capsys.readouterr().out == (FIXTURES / "varied_report.txt").read_text()

    def test_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for out in (out1, out2):
            assert main(["eval", "--dataset", str(FIXTURES / "mixed_corpus.jsonl"),
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_line_exits_2_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        good = {"id": "a", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "x"}
        bad = {"id": "b", "task": "TG", "gt_intervals": [[9, 1]], "prediction": "x"}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        code = main(["eval", "--dataset", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["eval", "--dataset", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n_samples=0" in out

    def test_missing_file_exits_1(self, capsys):
        assert main(["eval", "--dataset", "/nonexistent/x.jsonl"]) == 1


class TestRewardCommand:
    def _run(self, capsys, lines, extra=()):
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as f:
            for record in lines:
                f.write(json.dumps(record) + "\n")
            path = f.name
        code = main(["reward", "--dataset", path, *extra])
        assert code == 0
        return capsys.readouterr().out.splitlines()

    def test_perfect_tg_record(self, capsys):
        record = {
            "id": "tg-a", "task": "TG", "gt_intervals": [[3.0, 9.0]],
            "prediction": "<answer>3.0 to 9.0</answer>",
        }
        (line,) = self._run(capsys, [record])
        assert "id=tg-a" in line
        assert "format=1" in line
        assert "loc=1.0000" in line
        assert "total=2.0000" in line
        assert "cls=-" in line

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ("-1", "sigma must be positive, got -1.0"),
            ("inf", "sigma must be a finite number"),
            ("1e999", "sigma must be a finite number"),
            ("nan", "sigma must be a finite number"),
        ],
    )
    def test_bad_sigma_exits_2_before_reading_the_dataset(self, tmp_path, capsys, sigma, message):
        missing = tmp_path / "missing.jsonl"  # opening it would exit 1
        assert main(["reward", "--dataset", str(missing), "--sigma", sigma]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_tal_record_includes_match(self, capsys):
        record = {
            "id": "tal-a", "task": "TAL", "gt_intervals": [[2.0, 8.0]],
            "prediction": "<answer>0.0 to 4.0, 6.0 to 10.0</answer>",
        }
        (line,) = self._run(capsys, [record])
        assert "f1=0.1667" in line
        assert "num=0.3679" in line
        # exp(-1) + 1/6 = 0.534546; renders as 0.5345 at 4 decimals
        assert "loc=0.5345" in line
        assert "siou=0.2500" in line
        assert "pairs=" in line

    def test_gvqa_wrong_option(self, capsys):
        record = {
            "id": "g-a", "task": "GVQA", "gt_intervals": [[1.0, 2.0]], "gt_answer": "B",
            "prediction": "<answer>C</answer><glue>1.0 to 2.0</glue>",
        }
        (line,) = self._run(capsys, [record])
        assert "cls=0" in line
        assert "total=2.0000" in line


class TestMatchCommand:
    def test_identity_lists(self, capsys):
        code = main(["match", "--preds", "0-5,10-15", "--gts", "0-5,10-15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "f1=1.0000" in out
        assert "p0-g0" in out and "p1-g1" in out

    def test_worked_example_table(self, capsys):
        code = main(["match", "--preds", "0-4,6-10", "--gts", "2-8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iou matrix" in out
        assert "dp table" in out
        assert "siou=0.2500" in out
        assert "f1=0.1667" in out

    def test_compare_flag_shows_dominance(self, capsys):
        code = main(["match", "--preds", "0-10,20-30", "--gts", "18-28,40-50", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sequential:" in out
        assert "dominance: dp.siou >= sequential.siou -> ok" in out

    def test_out_keeps_the_mode_and_links_of_a_plain_write(self, tmp_path, capsys):
        """--out replaces the target, yet leaves the mode and symlink a direct write would."""
        args = ["match", "--preds", "0-4,6-10", "--gts", "2-8"]
        assert main(args) == 0
        table = capsys.readouterr().out
        plain, out = tmp_path / "plain.txt", tmp_path / "out.txt"
        plain.write_text(table, encoding="utf-8")
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == table
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        out.chmod(0o640)
        assert main(args + ["--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        link = tmp_path / "link.txt"
        link.symlink_to(out)
        out.write_text("stale\n")
        assert main(args + ["--out", str(link)]) == 0
        assert link.is_symlink() and out.read_text(encoding="utf-8") == table
        assert sorted(tmp_path.iterdir()) == sorted([plain, out, link])

    def test_out_to_a_pipe_is_written_not_replaced(self, tmp_path, capsys):
        """A target that is not a regular file (a pipe, a device) is written to, not replaced."""
        args = ["match", "--preds", "0-4,6-10", "--gts", "2-8"]
        assert main(args) == 0
        table = capsys.readouterr().out
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(pipe.read_text(encoding="utf-8")), daemon=True
        )
        reader.start()
        assert main(args + ["--out", str(pipe)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [table]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert list(tmp_path.iterdir()) == [pipe]

    def test_malformed_inline_interval(self, capsys):
        assert main(["match", "--preds", "nope", "--gts", "0-1"]) == 2

    def test_inline_parser(self):
        got = parse_inline_intervals("0-4, 6.5-10")
        assert [(iv.start, iv.end) for iv in got] == [(0.0, 4.0), (6.5, 10.0)]
        with pytest.raises(ValueError):
            parse_inline_intervals("4-0")


class TestSimulateCommand:
    def test_short_run_improves(self, capsys):
        code = main(["simulate", "--scenario", str(SCENARIOS / "tg_basic.json"),
                     "--steps", "60", "--seed", "7"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        steps = [ln for ln in lines if ln.startswith("step=")]
        first = float(steps[0].split("mean_reward=")[1].split()[0])
        last = float(steps[-1].split("mean_reward=")[1].split()[0])
        assert last > first
        assert any(ln.startswith("final prompt=0") for ln in lines)

    @pytest.mark.parametrize(
        "scenario, seed, extra, golden",
        [
            ("tg_basic.json", 7, [], "simulate_tg_basic_s7.txt"),
            ("tal_three.json", 0, [], "simulate_tal_three_s0.txt"),
            ("tal_three.json", 0, ["--tal-normalize", "--group-size", "4"],
             "simulate_tal_three_s0_norm_g4.txt"),
            ("multitask_five.json", 3, [], "simulate_multitask_five_s3.txt"),
            ("multitask_five.json", 3,
             ["--tal-normalize", "--group-size", "5", "--kl-beta", "0.2"],
             "simulate_multitask_five_s3_norm_g5_kl02.txt"),
        ],
    )
    def test_golden_seeded_output(self, capsys, scenario, seed, extra, golden):
        code = main(["simulate", "--scenario", str(SCENARIOS / scenario),
                     "--steps", "200", "--seed", str(seed), *extra])
        assert code == 0
        assert capsys.readouterr().out == (FIXTURES / golden).read_text()

    def test_identical_invocations_identical_output(self, tmp_path):
        args = ["simulate", "--scenario", str(SCENARIOS / "tg_basic.json"),
                "--steps", "20", "--seed", "3"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "bogus": True,
            "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                         "gt_intervals": [[0, 5]]}],
        }))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, message",
        [
            ((), "unknown scenario key 'a\\nb'"),
            (("prompts", 0), "prompt 0: unknown scenario key 'a\\nb'"),
            (("grpo",), "unknown scenario key 'grpo.a\\nb'"),
        ],
        ids=["scenario", "prompt", "grpo"],
    )
    def test_unknown_key_with_a_newline_is_named_on_one_line(self, tmp_path, capsys, where,
                                                             message):
        doc = {"grpo": {}, "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                                        "gt_intervals": [[0, 5]]}]}
        obj = doc
        for key in where:
            obj = obj[key]
        obj["a\nb"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_object_prompt_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"prompts": [1]}))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        assert "prompt 0: must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prompt, fragment",
        [
            ({"duration": 600, "grid_step": 0.1}, "a grid of 18003000 candidates exceeds"),
            ({"task": "TAL", "max_instances": 10**12},
             "55000000000000 slot logits (max_instances x candidates) exceed"),
            ({"duration": True}, "duration must be a finite number"),
            ({"grid_step": float("nan")}, "grid_step must be a finite number"),
            ({"task": "GVQA", "gt_answer": "A", "options": 5},
             "options must be a list"),
            ({"task": "GVQA", "gt_answer": "A", "options": "AB"},
             "options must be a list"),
            ({"task": "GVQA", "gt_answer": "A", "options": ["A", 1]},
             "GVQA option 1 must be a non-empty"),
            ({"task": "GVQA", "gt_answer": "A", "options": [1, 2]},
             "GVQA option 1 must be a non-empty"),
            ({"task": "GVQA", "gt_answer": "A", "options": [["A"]]},
             "GVQA option ['A'] must be a non-empty"),
            ({"task": "GVQA", "gt_answer": "A", "options": ["A", ""]},
             "GVQA option '' must be a non-empty"),
            ({"task": "GVQA", "gt_answer": "A", "options": ["A", " B"]},
             "GVQA option ' B' must be a non-empty"),
            ({"task": "GVQA", "gt_answer": "A", "options": ["A", "<b>"]},
             "GVQA option '<b>' must be a non-empty"),
            # simulate prints an option as one answer= field that names one answer index
            ({"task": "GVQA", "gt_answer": "A", "options": ["A", "the dog"]},
             "GVQA option 'the dog' must not contain whitespace\n"),
            ({"task": "GVQA", "gt_answer": "A", "options": ["A", "B", "A"]},
             "GVQA option 'A' is repeated\n"),
            ({"name": "a b\nc"}, "scenario name 'a b\\nc' must not contain whitespace"),
        ],
    )
    def test_oversized_or_mistyped_scenario_exits_2(self, tmp_path, capsys, prompt, fragment):
        path = tmp_path / "bad.json"
        base = {"task": "TG", "duration": 100, "grid_step": 10, "gt_intervals": [[0, 10]]}
        prompt = {**base, **prompt}
        # "name" is the scenario's own key, and its error names no prompt
        scenario = {"name": prompt.pop("name")} if "name" in prompt else {}
        path.write_text(json.dumps({**scenario, "prompts": [prompt]}))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        where = "" if scenario else "prompt 0: "
        assert f"error: {where}{fragment}" in capsys.readouterr().err

    def test_grid_step_past_the_duration_exits_2(self, tmp_path, capsys):
        """A grid_step larger than the duration builds no grid, not a 0-7 candidate."""
        path, out = tmp_path / "bad.json", tmp_path / "out.txt"
        path.write_text(json.dumps({"prompts": [{"task": "TG", "duration": 5, "grid_step": 7,
                                                 "gt_intervals": [[0, 5]]}]}))
        args = ["simulate", "--scenario", str(path), "--steps", "1", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: prompt 0: grid_step is larger than the duration\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "pairs, fragment",
        [
            ({"gt_intervals": [[False, "3"]], "grid": [["0", "3"]]},
             "bad gt_intervals [False, '3']: endpoints must be finite numbers"),
            ({"gt_intervals": [[0, 3]], "grid": [["0", "3"]]},
             "bad grid ['0', '3']: endpoints must be finite numbers"),
            ({"gt_intervals": ["12"], "grid": ["03", [1, 2]]},
             "bad gt_intervals '12': not a [start, end] pair"),
            ({"gt_intervals": [[1, 2]], "grid": ["03", [1, 2]]},
             "bad grid '03': not a [start, end] pair"),
            ({"gt_intervals": "12", "grid": [[1, 2]]},
             "gt_intervals must be a list of [start, end] pairs"),
        ],
    )
    def test_scenario_endpoints_must_be_number_pairs(self, tmp_path, capsys, pairs, fragment):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"prompts": [{"task": "TG", **pairs}]}))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        assert f"error: prompt 0: {fragment}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"gt_intervals": [[0, 5]], "grid": ["03"]}, "bad grid '03': not a [start, end] pair"),
            ({"gt_intervals": [[0, 5]], "duration": 5, "grid_step": 10},
             "grid_step is larger than the duration"),
            ({"gt_intervals": [[0, 5]], "duration": 10, "grid_step": 5, "max_instances": 2},
             "TG prompts emit exactly one interval"),
        ],
    )
    def test_bad_prompt_is_named_once(self, tmp_path, capsys, second, message):
        path = tmp_path / "bad.json"
        first = {"task": "TG", "duration": 10, "grid_step": 5, "gt_intervals": [[0, 5]]}
        path.write_text(json.dumps({"prompts": [first, {"task": "TG", **second}]}))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: prompt 1: {message}\n"
        assert err.count("prompt ") == 1

    @pytest.mark.parametrize(
        "scenario, message",
        [
            ({"name": "a\ud800"}, "scenario name 'a\\ud800' cannot be encoded as UTF-8"),
            ({"options": ["A", "B\udfff"]},
             "prompt 0: GVQA option 'B\\udfff' cannot be encoded as UTF-8"),
        ],
        ids=["name", "option"],
    )
    def test_lone_surrogate_name_or_option_is_refused_on_load(self, tmp_path, capsys,
                                                              scenario, message):
        path = tmp_path / "bad.json"
        prompt = {"task": "GVQA", "duration": 10, "grid_step": 5, "gt_intervals": [[0, 5]],
                  "gt_answer": "A", "options": scenario.pop("options", ["A", "B"])}
        path.write_text(json.dumps({**scenario, "prompts": [prompt]}))  # as a JSON escape
        out = tmp_path / "out.txt"
        argv = ["simulate", "--scenario", str(path), "--steps", "2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, name", [("--steps", "steps"), ("--seed", "seed")])
    def test_negative_steps_or_seed_exits_2(self, capsys, flag, name):
        assert main(["simulate", "--scenario", str(SCENARIOS / "tg_basic.json"), flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be >= 0\n"

    def test_learning_rate_too_large_for_the_logits_exits_2(self, tmp_path, capsys, recwarn):
        out = tmp_path / "out.txt"
        argv = ["simulate", "--scenario", str(SCENARIOS / "tg_basic.json"), "--steps", "20",
                "--out", str(out)]
        assert main([*argv, "--learning-rate", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: learning_rate 1e+308 drove the logits "
                                "to non-finite values\n")
        assert not out.exists()
        assert main([*argv, "--learning-rate", "1e300"]) == 0
        assert capsys.readouterr().err == ""
        assert not recwarn.list  # numpy's overflow warnings would reach stderr outside pytest

    def test_tg_prompt_takes_one_ground_truth_interval(self, tmp_path, capsys):
        """As a dataset TG line does; two would cap the best reward at 1.5, not 2.0."""
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"prompts": [{
            "task": "TG", "duration": 100, "grid_step": 10, "gt_intervals": [[20, 30], [50, 60]],
        }]}))
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: prompt 0: TG prompts take exactly one ground-truth interval\n"
        )

    def test_deeply_nested_scenario_is_invalid_json(self, tmp_path, capsys):
        """The decoder gives up on 2,000 nested objects with a RecursionError."""
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' * 2000)
        assert main(["simulate", "--scenario", str(path), "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: scenario file is not valid JSON: ")

    @pytest.mark.parametrize(
        "grpo, flags, message",
        [
            ('{"group_size": 2.5}', [], "bad grpo config: group_size must be an integer"),
            ('{"group_size": 1e400}', [], "bad grpo config: group_size must be an integer"),
            ('{"group_size": true}', [], "bad grpo config: group_size must be an integer"),
            ('{"kl_beta": NaN}', [], "bad grpo config: kl_beta must be a finite number"),
            ('{"learning_rate": Infinity}', [],
             "bad grpo config: learning_rate must be a finite number"),
            ('{"std_floor": "1e-6"}', [], "bad grpo config: std_floor must be a finite number"),
            ("{}", ["--kl-beta", "nan"], "kl_beta must be a finite number"),
            ("{}", ["--learning-rate", "inf"], "learning_rate must be a finite number"),
            ("{}", ["--clip-eps", "nan"], "clip_eps must be a finite number"),
            ("{}", ["--sigma", "inf"], "sigma must be a finite number"),
            ("{}", ["--sigma", "1e999"], "sigma must be a finite number"),
        ],
    )
    def test_non_numeric_grpo_settings_exit_2(self, tmp_path, capsys, grpo, flags, message):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"grpo": ' + grpo + ', "prompts": [{"task": "TG", "duration": 10, '
            '"grid_step": 5, "gt_intervals": [[0, 5]]}]}'
        )
        assert main(["simulate", "--scenario", str(path), "--steps", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "grpo, flags, message",
        [
            ('{"group_size": 4097}', [],
             "bad grpo config: group_size 4097 exceeds the limit of 4096"),
            ("{}", ["--group-size", "4097"], "group_size 4097 exceeds the limit of 4096"),
        ],
    )
    def test_group_size_over_limit_exits_2(self, tmp_path, capsys, grpo, flags, message):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"grpo": ' + grpo + ', "prompts": [{"task": "TG", "duration": 10, '
            '"grid_step": 5, "gt_intervals": [[0, 5]]}]}'
        )
        assert main(["simulate", "--scenario", str(path), "--steps", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_scenario_grpo_config_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "name": "cfg",
            "grpo": {"group_size": 4, "learning_rate": 0.0},
            "prompts": [{"task": "TG", "duration": 10, "grid_step": 5,
                         "gt_intervals": [[0, 5]]}],
        }))
        # bundled lr 0.0: the policy never moves, so the final heads stay uniform
        assert main(["simulate", "--scenario", str(path), "--steps", "3", "--seed", "1"]) == 0
        frozen = capsys.readouterr().out
        assert "slot0_p=0.3333" in frozen  # 3 candidates, untouched uniform head
        # an explicit flag overrides the bundled value
        assert main(["simulate", "--scenario", str(path), "--steps", "3", "--seed", "1",
                     "--learning-rate", "0.5"]) == 0
        moved = capsys.readouterr().out
        assert "slot0_p=0.3333" not in moved


class TestStreamedDatasetErrors:
    """eval and reward score lines as they read them, but still write nothing on a bad line."""

    GOOD = [
        {"id": "tg", "task": "TG", "gt_intervals": [[3.0, 9.0]],
         "prediction": "<answer>3.0 to 9.0</answer>"},
        {"id": "tal", "task": "TAL", "gt_intervals": [[2.0, 8.0]],
         "prediction": "<answer>0.0 to 4.0, 6.0 to 10.0</answer>"},
        {"id": "g", "task": "GVQA", "gt_intervals": [[1.0, 2.0]], "gt_answer": "B",
         "prediction": "<answer>B</answer><glue>1.0 to 2.0</glue>"},
    ]

    def _dataset(self, tmp_path, last_line):
        path = tmp_path / "late.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in self.GOOD) + "\n" + last_line + "\n")
        return path

    @pytest.mark.parametrize("command", ["eval", "reward"])
    @pytest.mark.parametrize(
        "last_line, message",
        [
            ("{not json}", "line 5: invalid JSON"),
            ('{"id": "z", "task": "TG", "gt_intervals": [[9, 1]], "prediction": "x"}',
             "line 5: bad gt interval [9, 1]: interval end < start"),
            ('{"id": "z", "task": "TG", "gt_intervals": [[0, 1]]}',
             "line 5: missing fields: prediction"),
            ('{"id": "a b\\nc", "task": "TG", "gt_intervals": [[0, 1]], "prediction": "x"}',
             "line 5: id 'a b\\nc' must not contain whitespace\n"),
        ],
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_malformed_last_line_writes_nothing(self, tmp_path, capsys, command, last_line,
                                                message, to_file):
        path = self._dataset(tmp_path, last_line)
        out = tmp_path / "out.txt"
        argv = [command, "--dataset", str(path)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == [path]  # no temporary file is left behind
        # an existing target keeps its old bytes
        out.write_bytes(b"old bytes\n")
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == b"old bytes\n"
        assert sorted(tmp_path.iterdir()) == sorted([path, out])

    @pytest.mark.parametrize("command", ["eval", "reward"])
    @pytest.mark.parametrize(
        "gts, shown",
        [("[[NaN, 5.0]]", "[nan, 5.0]"), ("[[1.0, Infinity]]", "[1.0, inf]"),
         ("[[-Infinity, 2.5]]", "[-inf, 2.5]")],
    )
    def test_non_finite_float_endpoint_message(self, tmp_path, capsys, command, gts, shown):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "task": "TG", "gt_intervals": ' + gts +
                        ', "prediction": "<answer>1 to 5</answer>"}\n')
        assert main([command, "--dataset", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 1: bad gt interval {shown}: endpoints must be finite numbers\n"
        )

    @pytest.mark.parametrize("tag", [["TG"], {"t": "TG"}, 1, None, True, "tg"])
    def test_unknown_task_tag_of_any_json_type(self, tag):
        record = {"id": "x", "task": tag, "gt_intervals": [[0, 1]], "prediction": ""}
        with pytest.raises(DatasetError) as exc:
            sample_from_record(record, line_no=3)
        assert str(exc.value) == f"line 3: unknown task tag {tag!r}"

    @pytest.mark.parametrize("command", ["eval", "reward"])
    def test_lone_surrogate_id_is_refused_on_load(self, tmp_path, capsys, command):
        """JSON's "\\ud800" escape gives an id that no output line can encode."""
        path = self._dataset(tmp_path, '{"id": "a\\ud800", "task": "TG", '
                                       '"gt_intervals": [[0, 1]], "prediction": "x"}')
        out = tmp_path / "out.txt"
        assert main([command, "--dataset", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: line 5: id 'a\\ud800' cannot be encoded as UTF-8\n"
        )
        assert not out.exists()

    BLANK = {"id": "g2", "task": "GVQA", "gt_intervals": [[1.0, 2.0]], "gt_answer": " \t",
             "prediction": "no answer block"}

    def test_blank_gt_answer_is_refused_on_load_without_an_answer_block(self, tmp_path, capsys):
        """The line alone decides: a blank ground truth is refused whatever the prediction."""
        path = self._dataset(tmp_path, json.dumps(self.BLANK))
        with pytest.raises(DatasetError, match="^line 5: sample g2: gt_answer must not be blank$"):
            list(iter_dataset(path))
        assert main(["eval", "--dataset", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 5: sample g2: gt_answer must not be blank\n"

    @pytest.mark.parametrize("command", ["eval", "reward"])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_blank_gt_answer_against_an_answer_writes_nothing(self, tmp_path, capsys, command,
                                                              to_file):
        # a blank ground truth cannot be compared with a predicted answer; the
        # line is refused when it is read, and nothing is written
        blank = dict(self.BLANK, prediction="<answer>B</answer><glue>1.0 to 2.0</glue>")
        path = self._dataset(tmp_path, json.dumps(blank))
        out = tmp_path / "out.txt"
        argv = [command, "--dataset", str(path)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 5: sample g2: gt_answer must not be blank\n"
        assert not out.exists()


@pytest.mark.parametrize("command, fragment", [
    ("reward", "id=big task=TG format=1 loc=1.0000 cls=- total=2.0000"),
    ("eval", "task=TG n_samples=1 n_parse_failures=0 miou=1.0000 r@0.3=1.0000"),
], ids=["reward", "eval"])
def test_interval_lengths_summing_past_the_largest_double(tmp_path, capsys, command, fragment):
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps({"id": "big", "task": "TG", "gt_intervals": [[0, 1e308]],
                                "prediction": "<answer>0 to 1e308</answer>"}) + "\n")
    assert main([command, "--dataset", str(path)]) == 0
    assert fragment in capsys.readouterr().out


def test_fixture_script_check_finds_no_drift():
    """Every committed fixture, simulate goldens included, regenerates byte for byte."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_fixtures.py"), "--check"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "fixtures match\n"


def test_package_sums_no_floats_with_builtin_sum(monkeypatch, capsys):
    """Every float total goes through ``intervals._left_sum``.

    Since Python 3.12 the built-in ``sum()`` adds floats with compensation,
    so a float ``sum()`` would make seeded outputs depend on the interpreter.
    Here each package module's ``sum`` refuses float items, so a new one
    fails on 3.10 and 3.11 too.
    """
    def int_sum(items, start=0):
        items = list(items)
        assert not any(isinstance(x, float) for x in [start, *items]), "a float sum()"
        return builtins.sum(items, start)

    import temposcore.grpo  # loaded on first use: import it so it is patched even when run alone

    for name, module in list(sys.modules.items()):
        if name == "temposcore" or name.startswith("temposcore."):
            monkeypatch.setattr(module, "sum", int_sum, raising=False)
    for corpus, report in [("mixed_corpus.jsonl", "golden_report.txt"),
                           ("varied_corpus.jsonl", "varied_report.txt")]:
        assert main(["eval", "--dataset", str(FIXTURES / corpus)]) == 0
        assert capsys.readouterr().out == (FIXTURES / report).read_text()
        assert main(["reward", "--dataset", str(FIXTURES / corpus), "--tal-normalize"]) == 0
        assert capsys.readouterr().out.count("\n") == len(
            (FIXTURES / corpus).read_text().splitlines())
    assert main(["match", "--preds", "0-4,6-10", "--gts", "2-8,9-12", "--compare"]) == 0
    assert "dominance: dp.siou >= sequential.siou -> ok" in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(SCENARIOS / "multitask_five.json"),
                 "--steps", "10", "--seed", "3"]) == 0
    steps = capsys.readouterr().out.splitlines()[1:11]
    golden = (FIXTURES / "simulate_multitask_five_s3.txt").read_text().splitlines()
    assert steps == golden[1:11]


# ---------------------------------------------------------------------------
# Scenario files through cli.main: one field of a valid file mutated

# a small valid scenario: every kind of prompt key, a grpo block, a 10-candidate grid
CONTRACT_SCENARIO = {
    "name": "contract",
    "grpo": {"group_size": 4, "clip_eps": 0.2, "kl_beta": 0.04, "learning_rate": 0.5,
             "std_floor": 1e-6},
    "prompts": [
        {"task": "TG", "duration": 20, "grid_step": 5, "gt_intervals": [[5, 10]]},
        {"task": "GVQA", "gt_intervals": [[0, 5]], "grid": [[0, 5], [5, 10]],
         "max_instances": 1, "options": ["A", "B"], "gt_answer": "B"},
        {"task": "TAL", "duration": 20.0, "grid_step": 5.0, "max_instances": 3,
         "gt_intervals": [[0, 5], [10, 20]]},
    ],
}
# JSON that Python's json.dumps does not write: an exponent past the largest double
_BIG = "__1e400__"
MUTATIONS = ("bool", "numeric string", "nested list", "1e400", "Infinity", "missing key",
             "unknown key", "lone surrogate")
REPLACEMENTS = {
    "bool": st.booleans(),
    "numeric string": st.sampled_from(["5", "1e3", "-0", "0x10", " 7"]),
    "nested list": st.sampled_from([[[1, [2]]], [[[]]], [[0, 5], [[5, 10]]]]),
    "1e400": st.just(_BIG),
    "Infinity": st.sampled_from([float("inf"), float("-inf")]),
    "lone surrogate": st.sampled_from(["\ud800", "B\udfff", "a\ud83d"]),
}
# odd names an unknown key can have too
UNKNOWN_KEYS = st.sampled_from(["bogus", "Task", "a b", "a\nb", "\ud800", ""])


def _paths(doc, prefix=()):
    """The path of every value inside ``doc``: dict keys and list indices."""
    if not isinstance(doc, (dict, list)):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_scenario(draw):
    """(JSON text, the mutated path): one field of the valid file changed."""
    doc = json.loads(json.dumps(CONTRACT_SCENARIO))
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "unknown key":
        objects = [()] + [p for p in _paths(doc) if isinstance(_at(doc, p), dict)]
        path = draw(st.sampled_from(objects))
        key = draw(UNKNOWN_KEYS)
        _at(doc, path).setdefault(key, 1)
        path = (*path, key)
    else:
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = _at(doc, path[:-1])
        if kind == "missing key":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(REPLACEMENTS[kind])
    return json.dumps(doc).replace(json.dumps(_BIG), "1e400"), path


@settings(derandomize=True, max_examples=150, deadline=None)
@given(mutated_scenario())
def test_mutated_scenario_exits_0_or_2_with_one_error_line(case):
    """Exit 0, or exit 2 with one error line and no output file; no traceback or warning.

    A fault inside prompt N is reported as ``error: prompt N: ...``.
    """
    text, path = case
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = Path(tmp) / "s.json", Path(tmp) / "out.txt"
        scenario.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["simulate", "--scenario", str(scenario), "--steps", "0",
                         "--out", str(out)])
        assert caught == []
        err = err.getvalue()
        assert code in (0, 2), err
        if code == 0:
            assert err == "" and out.read_text(encoding="utf-8").startswith("scenario=")
            return
        assert not out.exists()
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        # a fault inside prompt N is named by it; deleting a whole prompt is no fault
        if len(path) > 2 and path[0] == "prompts":
            assert err.startswith(f"error: prompt {path[1]}: "), err
