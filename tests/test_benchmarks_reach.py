"""The reach tracer (benchmarks/reach.py).

The tracer decides what counts as dead code, so its own blind spots
are pinned here: a keep-list entry that names nothing, a profiler that
pytest-benchmark switches off, and a ``--check`` that passes whatever
it finds.  Each test runs the real child interpreter on a planted
package, never the repository's full traffic.
"""

import importlib.util
import os
import textwrap

import pytest

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCHMARKS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = load_script("reach")


def plant(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return str(root / "pkg")


PACKAGE = {
    "pkg/__init__.py": "",
    "pkg/mod.py": """\
        def used():
            return 1


        def planted():
            return 2


        def declared():  # nothing to run: never listed
            raise NotImplementedError
        """,
    "run.py": """\
        from pkg.mod import used

        used()
        """,
}


def keys_of(src, *names):
    return {
        function.key
        for function in reach.functions(src)
        if function.qualname in names
    }


class TestKeepList:
    def test_every_entry_names_a_function(self):
        assert reach.unresolved(reach.KEEP, reach.SRC) == []

    def test_every_entry_gives_a_reason(self):
        for entry, reason in reach.KEEP.items():
            assert reason.strip(), entry


class TestFunctions:
    @pytest.mark.parametrize(
        "body, declaration",
        [
            ('"""Docstring only."""', True),
            ("pass", True),
            ("...", True),
            ("raise NotImplementedError", True),
            ('raise NotImplementedError("subclass")', True),
            ('"""Abstract."""\n    raise NotImplementedError', True),
            ("return 1", False),
            ('raise ValueError("bad")', False),
            ('"""Doc."""\n    return None', False),
        ],
        ids=[
            "docstring",
            "pass",
            "ellipsis",
            "raise-bare",
            "raise-call",
            "docstring-raise",
            "return",
            "raise-other",
            "docstring-return",
        ],
    )
    def test_declarations_have_nothing_to_run(
        self, tmp_path, body, declaration
    ):
        src = plant(
            tmp_path, {"pkg/mod.py": f"def f():\n    {body}\n"}
        )
        (function,) = reach.functions(src)
        assert function.declaration is declaration

    def test_key_is_what_the_hook_records(self, tmp_path):
        # The key joins the static scan to the traced code objects, so
        # it must match co_firstlineno and co_name, decorators included.
        src = plant(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": """\
                    import functools


                    class Box:
                        @staticmethod
                        @functools.lru_cache
                        def method():
                            def inner():
                                return 1

                            return inner
                    """,
            },
        )
        spec = importlib.util.spec_from_file_location(
            "planted_mod", os.path.join(src, "mod.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        method = module.Box.method.__wrapped__.__code__
        inner = module.Box.method().__code__
        found = {f.qualname: f for f in reach.functions(src)}
        assert set(found) == {"Box.method", "Box.method.<locals>.inner"}
        assert found["Box.method"].key == (
            "mod.py", method.co_firstlineno, method.co_name
        )
        assert found["Box.method.<locals>.inner"].key == (
            "mod.py", inner.co_firstlineno, inner.co_name
        )

    def test_body_lines_exclude_the_signature(self, tmp_path):
        src = plant(
            tmp_path,
            {
                "pkg/mod.py": """\
                    def f(
                        a,
                        b,
                    ):
                        total = a + b
                        return total
                    """,
            },
        )
        (function,) = reach.functions(src)
        assert function.lines == 2


def function_at(path, qualname):
    return reach.Function(path, 1, qualname, 1, False)


class TestKept:
    @pytest.mark.parametrize(
        "entry, path, qualname",
        [
            ("core/budget.py", "core/budget.py", "split"),
            ("core/*.py", "core/budget.py", "Budget.split"),
            (
                "io/sinks.py::StreamSink.write",
                "io/sinks.py",
                "StreamSink.write",
            ),
            (
                "broker/client.py::BrokerClient",
                "broker/client.py",
                "BrokerClient.send",
            ),
            (
                "io/registry.py::registered_*",
                "io/registry.py",
                "registered_sinks",
            ),
            ("*::*.__*__", "streams/events.py", "Event.__repr__"),
            (
                "*::*Stepper.restore",
                "runtime/adapters.py",
                "_BdStepper.restore",
            ),
        ],
    )
    def test_entry_covers(self, entry, path, qualname):
        keep = {entry: "reason"}
        assert reach.kept(function_at(path, qualname), keep) == "reason"

    @pytest.mark.parametrize(
        "entry, path, qualname",
        [
            ("core/budget.py", "core/budget_model.py", "split"),
            (
                "io/sinks.py::StreamSink.write",
                "io/sinks.py",
                "StreamSink.writer",
            ),
            (
                "broker/client.py::BrokerClient",
                "broker/client.py",
                "BrokerClientPool.send",
            ),
            ("io/sinks.py::StreamSink", "io/sources.py", "StreamSink.write"),
        ],
    )
    def test_entry_does_not_cover(self, entry, path, qualname):
        keep = {entry: "reason"}
        assert reach.kept(function_at(path, qualname), keep) is None

    def test_unresolved_names_the_stale_entries(self, tmp_path):
        src = plant(tmp_path, PACKAGE)
        keep = {
            "mod.py::planted": "resolves",
            "mod.py::gone": "the function was deleted",
            "gone.py": "the module was deleted",
        }
        assert reach.unresolved(keep, src) == ["mod.py::gone", "gone.py"]


class TestReport:
    def test_lists_unreached_by_file_with_body_lines(self, tmp_path, capsys):
        src = plant(tmp_path, PACKAGE)
        every = reach.functions(src)
        reached = keys_of(src, "used")
        share = reach.report(every, reached, {})
        out = capsys.readouterr().out
        assert "mod.py: 1 unreached, 1 body lines" in out
        assert "planted (1)" in out
        assert "declared" not in out
        assert share == pytest.approx(1 / 3)
        assert "1 of 3 functions unreached" in out

    def test_kept_functions_are_counted_apart(self, tmp_path, capsys):
        src = plant(tmp_path, PACKAGE)
        every = reach.functions(src)
        share = reach.report(
            every, keys_of(src, "used"), {"mod.py::planted": "kept"}
        )
        out = capsys.readouterr().out
        assert share == 0.0
        assert "0 of 3 functions unreached" in out
        assert "1 more kept" in out


class TestTrace:
    def test_call_inside_a_benchmark_fixture_is_recorded(self, tmp_path):
        # pytest-benchmark's fixture switches the profiler off around
        # every timed call; the tracer must see through that.
        src = plant(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": """\
                    def timed():
                        return 1
                    """,
                "test_fixture.py": """\
                    from pkg.mod import timed


                    def test_timed(benchmark):
                        benchmark.pedantic(timed, rounds=2, iterations=1)
                    """,
            },
        )
        reached, failed = reach.trace(
            (("pytest", "test_fixture.py"),), src, str(tmp_path)
        )
        assert failed == []
        assert keys_of(src, "timed") <= reached

    def test_call_on_a_worker_thread_is_recorded(self, tmp_path):
        src = plant(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/mod.py": """\
                    def on_thread():
                        return 1
                    """,
                "run.py": """\
                    from concurrent.futures import ThreadPoolExecutor

                    from pkg.mod import on_thread

                    with ThreadPoolExecutor(1) as pool:
                        pool.submit(on_thread).result()
                    """,
            },
        )
        reached, failed = reach.trace(
            (("script", "run.py"),), src, str(tmp_path)
        )
        assert failed == []
        assert keys_of(src, "on_thread") <= reached

    def test_check_fails_on_a_planted_unreached_function(
        self, tmp_path, monkeypatch, capsys
    ):
        src = plant(tmp_path, PACKAGE)
        monkeypatch.setattr(reach, "SRC", src)
        monkeypatch.setattr(reach, "ROOT", str(tmp_path))
        monkeypatch.setattr(reach, "TRAFFIC", (("script", "run.py"),))
        monkeypatch.setattr(reach, "KEEP", {})
        assert reach.main([]) == 0
        assert reach.main(["--check"]) == 1
        assert "mod.py: 1 unreached" in capsys.readouterr().out
        monkeypatch.setattr(
            reach, "KEEP", {"mod.py::planted": "planted by the test"}
        )
        assert reach.main(["--check"]) == 0

    def test_a_failing_part_is_reported_and_the_rest_still_count(
        self, tmp_path
    ):
        files = dict(PACKAGE)
        files["fail.py"] = """\
            from pkg.mod import planted

            planted()
            raise SystemExit(3)
            """
        src = plant(tmp_path, files)
        reached, failed = reach.trace(
            (("script", "fail.py"), ("script", "run.py")),
            src,
            str(tmp_path),
        )
        assert failed == [("fail.py", 3)]
        assert keys_of(src, "planted", "used") <= reached

    def test_check_fails_on_a_stale_keep_entry(
        self, tmp_path, monkeypatch, capsys
    ):
        src = plant(tmp_path, PACKAGE)
        monkeypatch.setattr(reach, "SRC", src)
        monkeypatch.setattr(reach, "ROOT", str(tmp_path))
        monkeypatch.setattr(reach, "TRAFFIC", (("script", "run.py"),))
        monkeypatch.setattr(
            reach,
            "KEEP",
            {"mod.py::planted": "kept", "mod.py::gone": "deleted"},
        )
        assert reach.main(["--check"]) == 1
        out = capsys.readouterr().out
        assert "keep-list entry names no function: mod.py::gone" in out
