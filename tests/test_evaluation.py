import dataclasses
import random
import tracemalloc
import weakref
from pathlib import Path

import pytest

from helpers import collect_metrics

from temposcore import (
    Interval,
    ParsedOutput,
    Sample,
    TaskKind,
    aggregate,
    iter_dataset,
    serialize,
    total_reward,
    write_dataset,
)
from temposcore.evaluation import _predicted

GARBAGE = "hmm, somewhere in the middle I think"


def ivs(pairs):
    return tuple(Interval(s, e) for s, e in pairs)


def make(task, gts, prediction, answer=None, sid="s", duration=None):
    return Sample(
        id=sid,
        task=task,
        gt_intervals=ivs(gts),
        prediction_raw=prediction,
        duration=duration,
        gt_answer=answer,
    )


def perfect(task, gts, answer=None, sid="s", duration=None):
    raw = serialize(ParsedOutput(intervals=ivs(gts), answer_text=answer), task)
    return make(task, gts, raw, answer=answer, sid=sid, duration=duration)


class TestSample:
    def test_requires_gt_intervals(self):
        with pytest.raises(ValueError):
            Sample(id="x", task=TaskKind.TG, gt_intervals=(), prediction_raw="")

    def test_gt_answer_only_for_gvqa(self):
        with pytest.raises(ValueError):
            make(TaskKind.TG, [(0, 1)], "", answer="A")
        with pytest.raises(ValueError):
            make(TaskKind.GVQA, [(0, 1)], "")

    def test_tg_single_gt(self):
        with pytest.raises(ValueError):
            make(TaskKind.TG, [(0, 1), (2, 3)], "")

    # values a dataset line could not carry, refused by the constructor with the line's message
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"gt_intervals": ((5.0, 1.0),)},
             "bad gt interval (5.0, 1.0): interval end < start: (5.0, 1.0)"),
            ({"gt_intervals": [[True, 1.0]]},
             "bad gt interval [True, 1.0]: endpoints must be finite numbers"),
            ({"gt_intervals": "05"}, "gt_intervals must be a non-empty list"),
            ({"prediction_raw": None}, "prediction must be a string"),
            ({"duration": float("inf")}, "duration must be a finite number"),
            ({"duration": True}, "duration must be a finite number"),
            ({"id": 5}, "id must be a non-empty string"),
            ({"id": ""}, "id must be a non-empty string"),
            ({"task": "TG"}, "unknown task tag 'TG'"),
            ({"task": TaskKind.GVQA, "gt_answer": 1}, "gt_answer must be a string"),
            ({"task": TaskKind.GVQA, "gt_answer": ""}, "sample s: gt_answer must not be blank"),
            ({"task": TaskKind.GVQA, "gt_answer": " \u2028"},
             "sample s: gt_answer must not be blank"),
        ],
    )
    def test_constructor_checks_what_a_dataset_line_checks(self, fields, message):
        base = dict(id="s", task=TaskKind.TG, gt_intervals=(Interval(0, 1),), prediction_raw="")
        with pytest.raises(ValueError) as info:
            Sample(**{**base, **fields})
        assert str(info.value) == message

    def test_plain_tuple_pairs_are_read_as_json_pairs(self):
        s = Sample(id="s", task=TaskKind.DTG, gt_intervals=((1, 2.5), [3, 4]), prediction_raw="",
                   duration=60)
        assert s.gt_intervals == (Interval(1.0, 2.5), Interval(3.0, 4.0))
        assert all(type(iv) is Interval for iv in s.gt_intervals)
        assert type(s.duration) is float

    def test_intervals_are_kept_as_they_are(self):
        gts = (Interval(0, 1), Interval(2, 3))
        s = Sample(id="s", task=TaskKind.DTG, gt_intervals=gts, prediction_raw="")
        assert all(a is b for a, b in zip(s.gt_intervals, gts, strict=True))


class TestEvalTg:
    def test_perfect_sample(self):
        block = aggregate([perfect(TaskKind.TG, [(3, 9)])]).blocks[TaskKind.TG]
        assert block.miou == 1.0
        assert all(v == 1.0 for v in block.recall_at.values())
        assert block.n_parse_failures == 0

    def test_threshold_counting(self):
        # IoUs 0.6 and 0.2: miou 0.4, R@0.3 = 0.5, R@0.5 = 0.5, R@0.7 = 0.0
        s1 = make(TaskKind.TG, [(0.0, 10.0)], "<answer>0.0 to 6.0</answer>", sid="a")
        s2 = make(TaskKind.TG, [(0.0, 10.0)], "<answer>0.0 to 2.0</answer>", sid="b")
        block = aggregate([s1, s2]).blocks[TaskKind.TG]
        assert block.miou == pytest.approx(0.4, abs=1e-12)
        assert block.recall_at[0.5] == 0.5
        assert block.recall_at[0.7] == 0.0

    def test_unparsable_counts_as_zero(self):
        block = aggregate([make(TaskKind.TG, [(0, 10)], GARBAGE)]).blocks[TaskKind.TG]
        assert block.miou == 0.0
        assert block.n_parse_failures == 1


class TestEvalDtg:
    def test_all_perfect(self):
        block = aggregate([perfect(TaskKind.DTG, [(0, 5), (10, 15)])]).blocks[TaskKind.DTG]
        assert block.miou == 1.0

    def test_per_pair_recall(self):
        # two events: one exact, one missed entirely
        raw = "<answer>0.0 to 5.0, 50.0 to 55.0</answer>"
        block = aggregate([make(TaskKind.DTG, [(0, 5), (10, 15)], raw)]).blocks[TaskKind.DTG]
        assert block.miou == pytest.approx(0.5, abs=1e-12)
        assert block.recall_at[0.5] == 0.5
        assert block.per_sample_recall_at[0.5] == 1.0  # the one sample scores 0.5 >= 0.5
        assert block.per_sample_recall_at[0.7] == 0.0

    def test_count_mismatch_misses(self):
        # one prediction for three events: unmatched gts miss at every theta
        raw = "<answer>0.0 to 5.0</answer>"
        sample = make(TaskKind.DTG, [(0, 5), (10, 15), (20, 25)], raw)
        block = aggregate([sample]).blocks[TaskKind.DTG]
        assert block.recall_at[0.3] == pytest.approx(1 / 3, abs=1e-12)
        assert block.miou == pytest.approx(1 / 3, abs=1e-12)


class TestEvalVhd:
    def test_identical_merged_sets(self):
        block = aggregate([perfect(TaskKind.VHD, [(0, 4), (6, 9)])]).blocks[TaskKind.VHD]
        assert block.miou == 1.0

    def test_partial_merge_case(self):
        raw = "<answer>0.0 to 2.0, 4.0 to 6.0</answer>"
        block = aggregate([make(TaskKind.VHD, [(1, 5)], raw)]).blocks[TaskKind.VHD]
        assert block.miou == pytest.approx(1 / 3, abs=1e-4)
        assert block.recall_at[0.3] == 1.0
        assert block.recall_at[0.5] == 0.0

    def test_empty_prediction(self):
        block = aggregate([make(TaskKind.VHD, [(1, 5)], GARBAGE)]).blocks[TaskKind.VHD]
        assert block.miou == 0.0


class TestEvalGvqa:
    def test_all_perfect(self):
        block = aggregate([perfect(TaskKind.GVQA, [(2, 6)], answer="B")]).blocks[TaskKind.GVQA]
        assert block.accuracy == 1.0 and block.miou == 1.0

    def test_metrics_independent(self):
        raw = "<answer>B</answer><glue>50.0 to 60.0</glue>"
        block = aggregate([make(TaskKind.GVQA, [(0, 5)], raw, answer="B")]).blocks[TaskKind.GVQA]
        assert block.accuracy == 1.0
        assert block.miou == 0.0

    def test_mixed_batch(self):
        right = make(
            TaskKind.GVQA, [(0.0, 4.0)], "<answer>A</answer><glue>0.0 to 2.0</glue>",
            answer="A", sid="r",
        )
        wrong = make(
            TaskKind.GVQA, [(0.0, 4.0)], "<answer>C</answer><glue>0.0 to 2.0</glue>",
            answer="A", sid="w",
        )
        block = aggregate([right, wrong]).blocks[TaskKind.GVQA]
        assert block.accuracy == 0.5
        assert block.miou == pytest.approx(0.5, abs=1e-12)

    def test_strict_scores_the_parse_and_reward_the_lenient_block(self):
        # the strict template splits at the second "<glue>" and parses [(1, 2)];
        # the last lenient glue block, "3 to 4</answer><glue>1 to 2", holds both
        raw = "<answer>A<glue>3 to 4</answer><glue>1 to 2</glue>"
        sample = make(TaskKind.GVQA, [(3, 4)], raw, answer="A")
        block = aggregate([sample], strict=True).blocks[TaskKind.GVQA]
        assert (block.n_parse_failures, block.miou, block.accuracy) == (0, 0.0, 0.0)
        reward = total_reward(raw, TaskKind.GVQA, sample.gt_intervals, "A", strict=True)
        assert (reward.format, reward.localization) == (1.0, 0.5)


class TestEvalTal:
    def test_perfect(self):
        block = aggregate([perfect(TaskKind.TAL, [(0, 5), (10, 15)])]).blocks[TaskKind.TAL]
        assert block.mf1 == 1.0
        assert all(v == 1.0 for v in block.f1_at.values())

    def test_worked_example(self):
        # matched pair IoU 0.25: TP only at theta 0.1; F1 = 2*(1/2)*(1/1)/1.5
        raw = "<answer>0.0 to 4.0, 6.0 to 10.0</answer>"
        block = aggregate([make(TaskKind.TAL, [(2, 8)], raw)]).blocks[TaskKind.TAL]
        assert block.f1_at[0.1] == pytest.approx(2 / 3, abs=1e-4)
        assert block.f1_at[0.3] == 0.0
        assert block.f1_at[0.5] == 0.0
        assert block.f1_at[0.7] == 0.0
        assert block.mf1 == pytest.approx(1 / 6, abs=1e-4)

    def test_empty_prediction(self):
        block = aggregate([make(TaskKind.TAL, [(2, 8)], GARBAGE)]).blocks[TaskKind.TAL]
        assert block.mf1 == 0.0


class TestAggregate:
    def corpus(self):
        return [
            perfect(TaskKind.TG, [(3, 9)], sid="tg"),
            perfect(TaskKind.DTG, [(0, 5), (10, 15)], sid="dtg"),
            perfect(TaskKind.VHD, [(0, 4), (6, 9)], sid="vhd"),
            perfect(TaskKind.GVQA, [(2, 6)], answer="B", sid="gvqa"),
            perfect(TaskKind.TAL, [(0, 5), (10, 15)], sid="tal"),
        ]

    def test_perfect_corpus_maximal_everywhere(self):
        report = aggregate(self.corpus())
        assert report.blocks[TaskKind.TG].miou == 1.0
        assert report.blocks[TaskKind.DTG].miou == 1.0
        assert report.blocks[TaskKind.VHD].miou == 1.0
        assert report.blocks[TaskKind.GVQA].accuracy == 1.0
        assert report.blocks[TaskKind.TAL].mf1 == 1.0

    def test_empty_corpus(self):
        report = aggregate([])
        for task in TaskKind:
            block = report.blocks[task]
            assert block.n_samples == 0
            assert block.miou is None and block.mf1 is None and block.accuracy is None

    def test_parse_failures_counted_per_block(self):
        samples = [
            make(TaskKind.TG, [(0, 1)], GARBAGE, sid="tg"),
            make(TaskKind.DTG, [(0, 1)], GARBAGE, sid="dtg"),
            make(TaskKind.VHD, [(0, 1)], GARBAGE, sid="vhd"),
            make(TaskKind.GVQA, [(0, 1)], GARBAGE, answer="A", sid="gvqa"),
            make(TaskKind.TAL, [(0, 1)], GARBAGE, sid="tal"),
        ]
        report = aggregate(samples)
        for task in TaskKind:
            assert report.blocks[task].n_parse_failures == 1

    def test_order_invariance(self):
        samples = self.corpus() + [
            make(TaskKind.TG, [(0.0, 10.0)], "<answer>0.0 to 6.0</answer>", sid="x"),
            make(TaskKind.TAL, [(2, 8)], "<answer>0.0 to 4.0</answer>", sid="y"),
        ]
        base = aggregate(samples)
        shuffled = samples[:]
        random.Random(4).shuffle(shuffled)
        other = aggregate(shuffled)
        for task in TaskKind:
            assert base.blocks[task] == other.blocks[task]

    def test_mean_adds_left_to_right(self):
        # ten TG samples of IoU 0.1; Python 3.12's sum() would give a miou of 0.1
        samples = [make(TaskKind.TG, [(0, 10)], "<answer>0 to 1</answer>", sid=f"s{i}")
                   for i in range(10)]
        assert aggregate(samples).blocks[TaskKind.TG].miou == 0.09999999999999999

    def test_recall_monotone_in_threshold(self):
        rng = random.Random(9)
        samples = []
        for i in range(30):
            gt = (round(rng.uniform(0, 40), 1), round(rng.uniform(50, 90), 1))
            jitter = round(rng.uniform(-20, 20), 1)
            lo = max(0.0, gt[0] + jitter)
            hi = max(lo, gt[1] + jitter)
            raw = f"<answer>{lo} to {hi}</answer>"
            samples.append(make(TaskKind.TG, [gt], raw, sid=f"s{i}"))
        block = aggregate(samples).blocks[TaskKind.TG]
        values = [block.recall_at[t] for t in sorted(block.recall_at)]
        assert values == sorted(values, reverse=True)

    def test_strict_flag_counts_prose_as_failure(self):
        raw = "reasoning first. <answer>3.0 to 9.0</answer>"
        sample = make(TaskKind.TG, [(3, 9)], raw)
        tolerant = aggregate([sample])
        strict = aggregate([sample], strict=True)
        assert tolerant.blocks[TaskKind.TG].n_parse_failures == 0
        assert strict.blocks[TaskKind.TG].n_parse_failures == 1
        # scoring still happens through lenient extraction either way
        assert strict.blocks[TaskKind.TG].miou == 1.0

    def test_clamp_option(self):
        raw = "<answer>90.0 to 200.0</answer>"
        sample = make(TaskKind.TG, [(90, 100)], raw, duration=100.0)
        plain = aggregate([sample]).blocks[TaskKind.TG].miou
        clamped = aggregate([sample], clamp=True).blocks[TaskKind.TG].miou
        assert plain == pytest.approx(10 / 110, abs=1e-12)
        assert clamped == 1.0

    def test_clamped_endpoints_are_floats(self):
        sample = make(TaskKind.DTG, [(90, 100)], "<answer>90 to 200, 300 to 400</answer>",
                      duration=100)
        intervals = _predicted(sample, strict=False, clamp=True)[0]
        assert intervals == ((90.0, 100.0), (100.0, 100.0))
        assert all(type(x) is float for iv in intervals for x in iv)


def test_garbage_never_helps_on_imperfect_corpus():
    rng = random.Random(31)
    samples = []
    for i in range(12):
        task = list(TaskKind)[i % 5]
        n = 1 if task is TaskKind.TG else rng.randint(1, 3)
        gts = []
        cursor = 0.0
        for _ in range(n):
            start = round(cursor + rng.uniform(1, 5), 1)
            end = round(start + rng.uniform(2, 8), 1)
            gts.append((start, end))
            cursor = end + 1.0
        answer = "B" if task is TaskKind.GVQA else None
        jittered = [(max(0.0, s - 1.0), e + 1.5) for s, e in gts]
        raw = serialize(ParsedOutput(intervals=ivs(jittered), answer_text=answer), task)
        samples.append(make(task, gts, raw, answer=answer, sid=f"s{i}"))

    baseline = collect_metrics(aggregate(samples))
    for i in range(len(samples)):
        mutated = list(samples)
        s = mutated[i]
        mutated[i] = make(s.task, [(iv.start, iv.end) for iv in s.gt_intervals], GARBAGE,
                          answer=s.gt_answer, sid=s.id)
        degraded = collect_metrics(aggregate(mutated))
        for key, value in degraded.items():
            assert value <= baseline[key] + 1e-12, f"{key} increased after garbling {s.id}"


class TestStreaming:
    """``aggregate`` scores any iterable in one pass and keeps no sample."""

    FIXTURES = Path(__file__).parent / "fixtures"
    CORPORA = ("mixed_corpus.jsonl", "varied_corpus.jsonl")

    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("strict, clamp", [(False, False), (True, False), (False, True),
                                               (True, True)])
    def test_generator_equals_list(self, corpus, strict, clamp):
        path = self.FIXTURES / corpus
        listed = aggregate(list(iter_dataset(path)), strict=strict, clamp=clamp)
        streamed = aggregate(iter_dataset(path), strict=strict, clamp=clamp)
        assert streamed == listed
        assert streamed.blocks[TaskKind.TG].n_samples > 0

    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("task", list(TaskKind))
    def test_eval_functions_accept_generators(self, corpus, task):
        # a one-task corpus, streamed, scores that task's block as the whole corpus does
        everything = list(iter_dataset(self.FIXTURES / corpus))
        samples = [s for s in everything if s.task is task]
        streamed = aggregate((s for s in samples), strict=True, clamp=True)
        assert streamed == aggregate(samples, strict=True, clamp=True)
        assert streamed.blocks[task].n_samples == len(samples) > 0
        assert all(b.n_samples == 0 for t, b in streamed.blocks.items() if t is not task)
        assert streamed.blocks[task] == aggregate(everything, strict=True, clamp=True).blocks[task]

    def test_no_sample_outlives_aggregate(self):
        refs = []

        def tracked():
            for s in iter_dataset(self.FIXTURES / "mixed_corpus.jsonl"):
                refs.append(weakref.ref(s))
                yield s

        report = aggregate(tracked(), strict=True, clamp=True)
        assert sum(b.n_samples for b in report.blocks.values()) == len(refs) == 100
        assert [r for r in refs if r() is not None] == []

    def test_streamed_peak_memory_is_a_fraction_of_loaded(self, tmp_path):
        base = list(iter_dataset(self.FIXTURES / "mixed_corpus.jsonl"))
        path = tmp_path / "corpus.jsonl"
        write_dataset(
            (dataclasses.replace(s, id=f"{s.id}-{k}") for k in range(30) for s in base), path
        )

        def peak(reader):
            tracemalloc.start()
            try:
                report = aggregate(reader(path))
                return tracemalloc.get_traced_memory()[1], report
            finally:
                tracemalloc.stop()

        aggregate(iter_dataset(path))  # warm caches so neither measurement pays for them
        streamed_peak, streamed = peak(iter_dataset)
        loaded_peak, loaded = peak(lambda p: list(iter_dataset(p)))
        assert streamed == loaded
        assert sum(b.n_samples for b in streamed.blocks.values()) == 3000
        assert streamed_peak * 5 < loaded_peak, (streamed_peak, loaded_peak)
