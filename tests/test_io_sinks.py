"""Tests for repro.io sinks: egress formats, appends, metrics."""

import json

import numpy as np
import pytest

from repro.io import (
    CallbackSink,
    CsvSink,
    JsonlSink,
    MemorySink,
    MetricsSink,
    StreamSink,
    read_indicator_csv,
    register_sink,
    registered_sinks,
    resolve_sink,
)
from repro.service.registry import UnknownSpecError
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(4)


@pytest.fixture
def stream():
    rng = np.random.default_rng(21)
    return IndicatorStream(ALPHABET, rng.random((30, 4)) < 0.5)


def drain(sink, stream, answers=None, truth=None, *, append=False):
    sink.open(alphabet=ALPHABET, query_names=("q",), append=append)
    matrix = stream.matrix_view()
    for index in range(matrix.shape[0]):
        sink.write(
            index,
            matrix[index],
            {"q": bool(answers[index])} if answers is not None else {},
            {"q": bool(truth[index])} if truth is not None else None,
        )
    sink.close()
    return sink


class TestRegistry:
    def test_builtin_sinks_registered(self):
        for name in ("memory", "csv", "jsonl", "metrics", "callback"):
            assert name in registered_sinks()

    def test_unknown_sink_lists_registered_names(self):
        with pytest.raises(UnknownSpecError) as excinfo:
            resolve_sink("s3:bucket")
        message = str(excinfo.value)
        assert "unknown sink spec 's3'" in message
        for name in registered_sinks():
            assert name in message

    def test_sink_object_passes_through(self):
        sink = MemorySink()
        assert resolve_sink(sink) is sink

    def test_third_party_sink_registers(self, stream):
        writes = []

        @register_sink("test-collect")
        class CollectSink(CallbackSink):
            """Collects written window indices."""

            def __init__(self):
                super().__init__(lambda i, row, answers: writes.append(i))

        drain(resolve_sink("test-collect"), stream)
        assert writes == list(range(stream.n_windows))

    def test_unopened_sink_fails_pointedly(self):
        with pytest.raises(RuntimeError, match="not open"):
            MemorySink().write(0, np.zeros(4, dtype=bool), {})


class TestMemorySink:
    def test_collects_stream_and_answers(self, stream):
        answers = [i % 3 == 0 for i in range(stream.n_windows)]
        sink = drain(MemorySink(), stream, answers)
        result = sink.result()
        assert result["released"] == stream
        assert result["answers"]["q"] == answers

    def test_append_keeps_accumulating(self, stream):
        sink = MemorySink()
        drain(sink, stream.slice_windows(0, 10), [True] * 10)
        drain(
            sink,
            stream.slice_windows(10, 30),
            [False] * 20,
            append=True,
        )
        result = sink.result()
        assert result["released"] == stream
        assert result["answers"]["q"] == [True] * 10 + [False] * 20

    def test_fresh_open_resets(self, stream):
        sink = MemorySink()
        drain(sink, stream, [True] * stream.n_windows)
        drain(sink, stream.slice_windows(0, 5), [False] * 5)
        assert sink.result()["released"] == stream.slice_windows(0, 5)

    def test_empty_result(self):
        sink = MemorySink()
        sink.open(alphabet=ALPHABET, query_names=("q",))
        result = sink.result()
        assert result["released"].n_windows == 0
        assert result["answers"]["q"] == []


class TestCsvSink:
    def test_output_is_the_indicator_csv_format(self, stream, tmp_path):
        path = str(tmp_path / "released.csv")
        drain(CsvSink(path), stream)
        assert read_indicator_csv(path) == stream

    def test_append_continues_without_second_header(
        self, stream, tmp_path
    ):
        path = str(tmp_path / "released.csv")
        drain(CsvSink(path), stream.slice_windows(0, 12))
        drain(CsvSink(path), stream.slice_windows(12, 30), append=True)
        assert read_indicator_csv(path) == stream

    def test_append_to_missing_file_starts_fresh(self, stream, tmp_path):
        path = str(tmp_path / "fresh.csv")
        drain(CsvSink(path), stream, append=True)
        assert read_indicator_csv(path) == stream

    def test_write_after_close_rejected(self, tmp_path):
        sink = CsvSink(str(tmp_path / "x.csv"))
        sink.open(alphabet=ALPHABET, query_names=())
        sink.close()
        with pytest.raises(RuntimeError, match="closed"):
            sink.write(0, np.zeros(4, dtype=bool), {})


class TestJsonlSink:
    def test_writes_types_and_answers(self, stream, tmp_path):
        path = str(tmp_path / "out.jsonl")
        answers = [i % 2 == 0 for i in range(stream.n_windows)]
        drain(JsonlSink(path), stream, answers)
        lines = [
            json.loads(line)
            for line in open(path).read().splitlines()
        ]
        assert len(lines) == stream.n_windows
        assert lines[3] == {
            "window": 3,
            "types": sorted(
                stream.window_types(3),
                key=ALPHABET.index,
            ),
            "answers": {"q": answers[3]},
        }

    def test_round_trips_through_jsonl_source(self, stream, tmp_path):
        from repro.io import JsonlSource

        path = str(tmp_path / "out.jsonl")
        drain(JsonlSink(path), stream)
        reloaded = JsonlSource(path).bind(ALPHABET).indicator_stream()
        assert reloaded == stream


class TestMetricsSink:
    def test_aggregates_confusion_and_quality(self, stream):
        truth = [i % 2 == 0 for i in range(stream.n_windows)]
        answers = list(truth)
        answers[0] = not answers[0]  # one false negative
        answers[1] = not answers[1]  # one false positive
        sink = drain(MetricsSink(), stream, answers, truth)
        result = sink.result()
        counts = result["confusion"]
        assert counts.fn == 1 and counts.fp == 1
        assert counts.total == stream.n_windows
        assert result["windows"] == stream.n_windows
        assert 0 < result["quality"].q < 1
        assert result["mre"] == pytest.approx(1 - result["quality"].q)
        assert set(result["per_query"]) == {"q"}

    def test_perfect_answers_zero_mre(self, stream):
        truth = [i % 2 == 0 for i in range(stream.n_windows)]
        sink = drain(MetricsSink(), stream, truth, truth)
        result = sink.result()
        assert result["quality"].q == 1.0
        assert result["mre"] == 0.0

    def test_wants_truth_and_missing_truth_rejected(self, stream):
        sink = MetricsSink()
        assert sink.wants_truth
        sink.open(alphabet=ALPHABET, query_names=("q",))
        with pytest.raises(ValueError, match="true answers"):
            sink.write(0, stream.matrix_view()[0], {"q": True})

    def test_alpha_weighting(self, stream):
        truth = [True] * stream.n_windows
        answers = [i != 0 for i in range(stream.n_windows)]  # 1 FN
        precision_only = drain(
            MetricsSink(alpha=1.0), stream, answers, truth
        ).result()
        assert precision_only["quality"].q == 1.0  # no false positives

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            MetricsSink(alpha=1.5)


class TestCallbackSink:
    def test_invokes_callable_per_window(self, stream):
        seen = []
        sink = CallbackSink(
            lambda index, row, answers: seen.append(
                (index, row.sum(), answers["q"])
            )
        )
        drain(sink, stream, [True] * stream.n_windows)
        assert len(seen) == stream.n_windows
        assert seen[0][0] == 0 and seen[0][2] is True
        assert sink.result() == {"windows": stream.n_windows}

    def test_unbound_callback_fails_pointedly(self, stream):
        sink = resolve_sink("callback")
        sink.open(alphabet=ALPHABET, query_names=("q",))
        with pytest.raises(ValueError, match="no callable"):
            sink.write(0, stream.matrix_view()[0], {"q": True})

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            CallbackSink("not-a-function")


class TestWindowsWrittenResets:
    def test_fresh_open_resets_the_counter(self, stream):
        sink = MetricsSink()
        truth = [True] * stream.n_windows
        drain(sink, stream, truth, truth)
        drain(sink, stream.slice_windows(0, 5), [True] * 5, [True] * 5)
        result = sink.result()
        assert result["windows"] == 5
        assert result["confusion"].total == 5

    def test_empty_tail_spec_rejected_at_validation(self):
        from repro.io.registry import validate_sink_spec

        with pytest.raises(ValueError, match="csv:<path>"):
            validate_sink_spec("csv:")


class TestBlockEgressCounting:
    """The default ``write_block`` counts a block once, as per-window
    ``write`` calls would have counted it window by window."""

    def block_inputs(self, stream):
        matrix = stream.matrix_view()
        answers = {"q": matrix[:, 0].copy()}
        return matrix, answers

    def test_block_and_per_window_egress_count_alike(self, stream):
        from repro.obs import MetricsRegistry, use_registry

        matrix, answers = self.block_inputs(stream)
        totals, sinks = [], []
        for blocked in (True, False):
            seen = []
            sink = CallbackSink(lambda *window: seen.append(window))
            sink.open(alphabet=ALPHABET, query_names=("q",))
            with use_registry(MetricsRegistry()) as registry:
                if blocked:
                    for start, stop in ((0, 12), (12, matrix.shape[0])):
                        sink.write_block(
                            start,
                            matrix[start:stop],
                            {"q": answers["q"][start:stop]},
                        )
                else:
                    for index in range(matrix.shape[0]):
                        verdict = {"q": bool(answers["q"][index])}
                        sink.write(index, matrix[index], verdict)
                totals.append(registry.get("repro_sink_windows_total").value)
            sinks.append((sink.windows_written, seen))
        assert totals == [matrix.shape[0]] * 2
        (block_written, block_seen), (window_written, window_seen) = sinks
        assert block_written == window_written == matrix.shape[0]
        assert [window[0] for window in block_seen] == [
            window[0] for window in window_seen
        ]
        assert [window[2] for window in block_seen] == [
            window[2] for window in window_seen
        ]

    def test_failed_write_counts_only_the_windows_written(self, stream):
        from repro.obs import MetricsRegistry, use_registry

        matrix, answers = self.block_inputs(stream)

        def fail_at_seven(index, row, verdicts):
            if index == 7:
                raise OSError("egress down")

        sink = CallbackSink(fail_at_seven)
        sink.open(alphabet=ALPHABET, query_names=("q",))
        with use_registry(MetricsRegistry()) as registry:
            with pytest.raises(OSError, match="egress down"):
                sink.write_block(0, matrix, answers)
            total = registry.get("repro_sink_windows_total").value
        assert sink.windows_written == 7
        assert total == 7

    def test_unopened_sink_block_fails_pointedly(self, stream):
        matrix, answers = self.block_inputs(stream)
        with pytest.raises(RuntimeError, match="not open"):
            CallbackSink(lambda *window: None).write_block(0, matrix, answers)



class Recorder(StreamSink):
    """Records every ``_write`` call; optionally fails at one index."""

    def __init__(self, fail_at=None):
        super().__init__()
        self.fail_at = fail_at
        self.calls = []

    def _write(self, index, row, answers, truth) -> None:
        if index == self.fail_at:
            raise OSError("egress down")
        self.calls.append(
            (
                index,
                row.tolist(),
                list(answers.items()),
                None if truth is None else list(truth.items()),
            )
        )


class TestDefaultWriteBlock:
    """The default ``write_block`` egresses exactly what per-window
    ``write`` calls would."""

    QUERIES = {
        "none": (),
        "one": ("q",),
        "three": ("q1", "q2", "q3"),
    }

    def vectors(self, stream, names, salt):
        rng = np.random.default_rng(salt)
        return {name: rng.random(stream.n_windows) < 0.5 for name in names}

    def per_window(self, sink, stream, answers, truth):
        def at(vectors, index):
            return {name: bool(vector[index]) for name, vector in vectors}

        matrix = stream.matrix_view()
        for index in range(stream.n_windows):
            sink.write(
                index,
                matrix[index],
                at(answers.items(), index),
                None if truth is None else at(truth.items(), index),
            )

    def blocked(self, sink, stream, answers, truth):
        def cut(vectors, start, stop):
            return {name: vector[start:stop] for name, vector in vectors}

        matrix = stream.matrix_view()
        for start, stop in ((0, 1), (1, 12), (12, stream.n_windows)):
            sink.write_block(
                start,
                matrix[start:stop],
                cut(answers.items(), start, stop),
                None if truth is None else cut(truth.items(), start, stop),
            )

    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("queries", sorted(QUERIES))
    def test_block_equals_per_window_writes(self, stream, queries, with_truth):
        names = self.QUERIES[queries]
        answers = self.vectors(stream, names, 1)
        truth = self.vectors(stream, names, 2) if with_truth else None
        calls = []
        for egress in (self.per_window, self.blocked):
            sink = Recorder()
            sink.open(alphabet=ALPHABET, query_names=names)
            egress(sink, stream, answers, truth)
            assert sink.windows_written == stream.n_windows
            calls.append(sink.calls)
        assert calls[0] == calls[1]
        assert [call[0] for call in calls[1]] == list(range(stream.n_windows))
        for _index, _row, verdicts, truths in calls[1]:
            assert all(type(value) is bool for _name, value in verdicts)
            assert [name for name, _value in verdicts] == list(names)
            if with_truth:
                assert [name for name, _value in truths] == list(names)

    def test_failing_write_counts_the_windows_before_it(self, stream):
        names = self.QUERIES["three"]
        answers = self.vectors(stream, names, 1)
        truth = self.vectors(stream, names, 2)
        matrix = stream.matrix_view()
        sink = Recorder(fail_at=9)
        sink.open(alphabet=ALPHABET, query_names=names)
        head = {name: vector[:5] for name, vector in answers.items()}
        sink.write_block(0, matrix[:5], head)
        with pytest.raises(OSError, match="egress down"):
            sink.write_block(
                5,
                matrix[5:20],
                {name: vector[5:20] for name, vector in answers.items()},
                {name: vector[5:20] for name, vector in truth.items()},
            )
        assert sink.windows_written == 9
        assert [call[0] for call in sink.calls] == list(range(9))

    @pytest.mark.parametrize("with_truth", [False, True])
    @pytest.mark.parametrize("queries", sorted(QUERIES))
    def test_callback_sees_the_same_windows_either_way(
        self, stream, queries, with_truth
    ):
        # The callback sink's block egress calls its function directly;
        # it must still hand over what per-window writes would.
        names = self.QUERIES[queries]
        answers = self.vectors(stream, names, 3)
        truth = self.vectors(stream, names, 4) if with_truth else None
        seen = []
        for egress in (self.per_window, self.blocked):
            calls = []
            sink = CallbackSink(
                lambda index, row, verdicts: calls.append(
                    (index, row.tolist(), list(verdicts.items()))
                )
            )
            sink.open(alphabet=ALPHABET, query_names=names)
            egress(sink, stream, answers, truth)
            assert sink.windows_written == stream.n_windows
            seen.append(calls)
        assert seen[0] == seen[1]
        matrix = stream.matrix_view()
        for index, (called, row, verdicts) in enumerate(seen[1]):
            assert called == index
            assert row == matrix[index].tolist()
            assert [name for name, _value in verdicts] == list(names)
            assert all(type(value) is bool for _name, value in verdicts)
            assert [value for _name, value in verdicts] == [
                bool(answers[name][index]) for name in names
            ]

    @pytest.mark.parametrize("fail_at", [0, 6, 13])
    def test_failing_callback_block_counts_the_windows_before_it(
        self, stream, fail_at
    ):
        names = self.QUERIES["three"]
        answers = self.vectors(stream, names, 5)
        calls = []

        def callback(index, row, verdicts):
            if index == fail_at:
                raise OSError("egress down")
            calls.append(index)

        sink = CallbackSink(callback)
        sink.open(alphabet=ALPHABET, query_names=names)
        with pytest.raises(OSError, match="egress down"):
            sink.write_block(0, stream.matrix_view(), answers)
        assert sink.windows_written == fail_at
        assert calls == list(range(fail_at))


def per_window_egress(report, sink):
    """The reference batch egress: one ``write`` per report window."""
    matrix = report.perturbed.matrix_view()
    names = list(report.answers)
    try:
        for index in range(matrix.shape[0]):
            answers = {
                name: bool(report.answers[name].detections[index])
                for name in names
            }
            truth = None
            if sink.wants_truth:
                truth = {
                    name: bool(report.true_answers[name].detections[index])
                    for name in names
                }
            sink.write(index, matrix[index], answers, truth)
    finally:
        sink.close()


class TestBatchEgress:
    """A batch ``run(sink=...)`` egresses its report in one block, with
    exactly the output of a per-window loop over the same report."""

    SINKS = ("csv", "jsonl", "memory", "callback", "metrics")

    def service(self):
        from repro.service import ServiceSpec

        return ServiceSpec(
            alphabet=ALPHABET.types,
            patterns=[("p", ("e1", "e2"))],
            queries=[("q1", ("e2", "e3")), ("q2", ("e4",))],
            mechanism="bd",
            mechanism_options={"epsilon": 1.0, "w": 5},
            seed=3,
        ).build()

    def sink(self, kind, directory):
        """A fresh sink of ``kind`` and a reader of its output."""
        if kind in ("csv", "jsonl"):
            path = directory / f"out.{kind}"
            sink_class = CsvSink if kind == "csv" else JsonlSink
            return sink_class(str(path)), path.read_bytes
        if kind == "callback":
            calls = []
            sink = CallbackSink(
                lambda index, row, answers: calls.append(
                    (index, row.tolist(), sorted(answers.items()))
                )
            )
            return sink, lambda: calls
        sink = MemorySink() if kind == "memory" else MetricsSink()
        return sink, sink.result

    @pytest.mark.parametrize("windows", [30, 0])
    @pytest.mark.parametrize("kind", SINKS)
    def test_run_matches_a_per_window_loop(
        self, kind, windows, stream, tmp_path
    ):
        data = stream.slice_windows(0, windows)
        (tmp_path / "block").mkdir()
        (tmp_path / "loop").mkdir()
        sink, output = self.sink(kind, tmp_path / "block")
        report = self.service().run(data, sink=sink)
        reference, expected = self.sink(kind, tmp_path / "loop")
        reference.open(alphabet=ALPHABET, query_names=("q1", "q2"))
        per_window_egress(report, reference)
        assert output() == expected()
        assert sink.windows_written == reference.windows_written == windows

    def test_failing_callback_counts_the_windows_before_it(self, stream):
        def callback(index, row, answers):
            if index == 7:
                raise OSError("egress down")

        sink = CallbackSink(callback)
        with pytest.raises(OSError, match="egress down"):
            self.service().run(stream, sink=sink)
        assert sink.windows_written == 7

    def test_write_indicator_csv_matches_per_window_writes(
        self, stream, tmp_path
    ):
        from repro.io import write_indicator_csv

        written = tmp_path / "written.csv"
        write_indicator_csv(stream, str(written))
        looped = tmp_path / "looped.csv"
        sink = CsvSink(str(looped))
        sink.open(alphabet=ALPHABET, query_names=())
        matrix = stream.matrix_view()
        for index in range(stream.n_windows):
            sink.write(index, matrix[index], {})
        sink.close()
        assert written.read_bytes() == looped.read_bytes()

    def test_metrics_write_without_truth_still_raises(self, stream):
        sink = MetricsSink()
        sink.open(alphabet=ALPHABET, query_names=("q",))
        with pytest.raises(ValueError, match="true answers"):
            sink.write(0, stream.matrix_view()[0], {"q": True})
