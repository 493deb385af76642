"""Self-tests of the served-path benchmark.

Run from the root of the repository:

    python -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from harness import measure  # noqa: E402
from layers import LayerTracer, self_seconds  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from workloads import WORKLOADS, pack_answers, unpack_answers  # noqa: E402

from repro.io import CsvSource, StreamSource  # noqa: E402
from repro.obs.tracing import Span  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def test_workload_names_agree():
    declared = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    # gateway-paced runs in the traced run and by hand only.
    assert declared == [name for name in WORKLOADS if name != "gateway-paced"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    result = measure(name, 3, 1, False, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert _units(result["metrics"]) == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    result = measure("served", 3, 1, True, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert _units(result["metrics"]) == expected
    assert result["metrics"]["served.trace.coverage"]["value"] >= 0.9
    assert result["correct"] and result["failed"] == 0


def _answer_lists(name, outputs):
    """Every packed per-query answer mapping of a round's outputs."""
    if name == "served":
        return [outputs["answers"]]
    if name == "batch":
        return [answers for _released, answers in outputs.values()]
    return list(outputs["answers"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("fault", ["flip", "drop", "duplicate"])
def test_planted_fault_fails_exactly_one_window(name, fault, tmp_path):
    workload = WORKLOADS[name](5, 200, tmp_path)
    workload.generate()
    result = workload.run_round()
    assert workload.check(result) == 0
    packed = _answer_lists(name, result.outputs)[0]
    for query, answers in unpack_answers(packed).items():
        values = list(answers)
        if fault == "flip":
            values[7] = not values[7]
        elif fault == "drop":
            values.pop()
        else:
            values.append(values[-1])
        packed.update(pack_answers({query: values}))
        if fault == "flip":
            break  # one query of one window
    assert workload.check(result) == 1


@pytest.mark.parametrize("name", ["gateway-paced", "gateway-resume"])
def test_window_egressed_twice_fails(name, tmp_path):
    workload = WORKLOADS[name](5, 200, tmp_path)
    workload.generate()
    result = workload.run_round()
    next(iter(result.outputs["counts"].values()))[11] += 1
    assert workload.check(result) == 1


def test_answers_round_trip_through_packing():
    answers = {"q0": [True, False, True], "q1": [], "q2": [False] * 9}
    unpacked = unpack_answers(pack_answers(answers))
    assert {q: v.tolist() for q, v in unpacked.items()} == answers


def test_double_charged_ledger_fails_the_tenant(tmp_path):
    workload = WORKLOADS["gateway-resume"](5, 200, tmp_path)
    workload.generate()
    result = workload.run_round()
    ledger = result.outputs["ledgers"]["bd"]
    ledger.append(ledger[0])
    assert workload.check(result) == workload.n


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_never_changes_a_release(name, tmp_path):
    workload = WORKLOADS[name](7, 300, tmp_path)
    workload.generate()
    plain = workload.run_round()
    with workload.tracer():
        traced = workload.run_round()
    assert _plain(traced.outputs) == _plain(plain.outputs)
    assert workload.check(traced) == 0


def test_tracer_restores_the_program():
    tracer = LayerTracer(capacity=16)
    tracer.wrap_async_iterator(CsvSource, "arows", "io.source")
    with tracer:
        assert "arows" in vars(CsvSource)
    assert "arows" not in vars(CsvSource)
    assert CsvSource.arows is StreamSource.arows


def test_self_time_subtracts_nested_spans():
    spans = [
        Span("outer", 1, None, 0.0, 10.0, {}),
        Span("inner", 2, None, 1.0, 4.0, {}),
        Span("leaf", 3, None, 2.0, 3.0, {}),
        Span("inner", 4, None, 5.0, 6.0, {}),
    ]
    assert self_seconds(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
