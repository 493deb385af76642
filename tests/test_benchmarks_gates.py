"""The benchmark regression gate checker (benchmarks/check_gates.py).

The checker is the CI bench job's last line of defence, so it must be
robust to its own inputs: a malformed gate spec (missing floor/value),
a truncated JSON file or a mangled gates section is reported as a
failure for that file — and checking continues — rather than crashing
with a bare ``KeyError`` and masking every other gate's status.
"""

import importlib.util
import json
import os
import sys

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCHMARKS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_gates = load_script("check_gates")
compare = load_script("compare")


def write_summary(directory, name, payload):
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


class TestCheckGates:
    def test_passing_gates(self, tmp_path, capsys):
        write_summary(
            tmp_path, "ok", {"gates": {"g": {"floor": 1.0, "value": 2.0}}}
        )
        assert check_gates.check(str(tmp_path)) == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        write_summary(
            tmp_path, "slow", {"gates": {"g": {"floor": 2.0, "value": 1.0}}}
        )
        assert check_gates.check(str(tmp_path)) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_no_summaries_fails(self, tmp_path):
        assert check_gates.check(str(tmp_path)) == 1

    def test_gateless_summary_passes(self, tmp_path):
        write_summary(tmp_path, "metrics", {"gates": {}})
        assert check_gates.check(str(tmp_path)) == 0

    def test_malformed_spec_reports_file_and_gate(self, tmp_path, capsys):
        # Missing floor/value must not crash with a bare KeyError; the
        # offending file/gate is reported and the rest keeps checking.
        write_summary(
            tmp_path, "broken", {"gates": {"g": {"value": 2.0}}}
        )
        write_summary(
            tmp_path, "fine", {"gates": {"h": {"floor": 1.0, "value": 3.0}}}
        )
        assert check_gates.check(str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert "BENCH_broken.json" in captured.err
        assert "g" in captured.err
        # The healthy file was still checked and reported.
        assert "BENCH_fine.json: h = 3.00" in captured.out

    def test_non_numeric_spec_reported(self, tmp_path, capsys):
        write_summary(
            tmp_path,
            "words",
            {"gates": {"g": {"floor": "fast", "value": "slow"}}},
        )
        assert check_gates.check(str(tmp_path)) == 1
        assert "malformed gate spec" in capsys.readouterr().err

    def test_non_mapping_gates_reported(self, tmp_path, capsys):
        write_summary(tmp_path, "mangled", {"gates": [1, 2, 3]})
        assert check_gates.check(str(tmp_path)) == 1
        assert "not a mapping" in capsys.readouterr().err

    def test_truncated_json_reported(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "BENCH_cut.json")
        with open(path, "w") as handle:
            handle.write('{"gates": {"g": {"floor"')
        write_summary(
            tmp_path, "fine", {"gates": {"h": {"floor": 1.0, "value": 3.0}}}
        )
        assert check_gates.check(str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert "unreadable" in captured.err
        assert "BENCH_fine.json: h = 3.00" in captured.out

    def test_cli_entrypoint(self, tmp_path):
        write_summary(
            tmp_path, "ok", {"gates": {"g": {"floor": 1.0, "value": 2.0}}}
        )
        script = os.path.join(BENCHMARKS, "check_gates.py")
        import subprocess

        result = subprocess.run(
            [sys.executable, script, str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "all benchmark gates passed" in result.stdout


class TestCompare:
    """benchmarks/compare.py flags only moves outside the base spread."""

    BASE = {
        "metrics": {
            "ratio": 1.0,
            "ratio_min": 0.8,
            "ratio_max": 1.2,
            "ratio_rounds": 5,
            "speedup": 3.0,
            "speedup_min": 2.5,
            "speedup_max": 3.5,
            "n_windows": 100,
        }
    }

    def dirs(self, tmp_path, fresh_metrics):
        base, fresh = tmp_path / "base", tmp_path / "fresh"
        base.mkdir()
        fresh.mkdir()
        write_summary(base, "x", self.BASE)
        write_summary(fresh, "x", {"metrics": fresh_metrics})
        return str(fresh), str(base)

    def test_moves_only_outside_the_recorded_spread(self, tmp_path, capsys):
        fresh = {
            **self.BASE["metrics"],
            "ratio": 1.15,
            "speedup": 4.0,
            "n_windows": 200,
        }
        assert compare.compare(*self.dirs(tmp_path, fresh)) == 1
        out = capsys.readouterr().out
        assert "BENCH_x.json: ratio = 1.15 within [0.8, 1.2]" in out
        assert "BENCH_x.json: speedup = 4 MOVED outside [2.5, 3.5]" in out
        assert "unflagged (no recorded spread): n_windows" in out
        # The spread bounds themselves are not metrics to compare.
        assert "ratio_min =" not in out
        assert "1 of 2 compared metrics moved" in out

    def test_summary_without_base_is_not_compared(self, tmp_path, capsys):
        fresh, base = self.dirs(tmp_path, {"ratio": 9.0})
        write_summary(fresh, "new", {"metrics": {"ratio": 9.0}})
        assert compare.compare(fresh, base) == 1
        out = capsys.readouterr().out
        assert "BENCH_new.json: no readable base summary" in out

    def test_cli_always_exits_zero(self, tmp_path):
        import subprocess

        fresh, base = self.dirs(tmp_path, {"ratio": 9.0})
        script = os.path.join(BENCHMARKS, "compare.py")
        result = subprocess.run(
            [sys.executable, script, fresh, base],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "MOVED" in result.stdout
