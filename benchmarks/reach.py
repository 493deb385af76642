"""Which ``src/repro`` functions does the repository's own traffic reach?

Runs each part of ``TRAFFIC`` (the example tests, the benchmark and
perfbench suites, the CI examples job's commands at full size and
``perfbench/run.py`` on every workload) in a fresh interpreter with a
``sys.setprofile`` hook that records every code object it sees run.
It then lists the ``src/repro`` functions that ran in none of them, by
file with their body lines, minus ``KEEP``: named functions or modules
that stay for the reason given beside each entry.  A declaration (a
body that is only a docstring, ``pass``, ``...`` or ``raise
NotImplementedError``) has nothing to run and is never listed.  A
function no gate, example or spec reaches is a deletion candidate.

Usage (from the root of a checkout):

    python benchmarks/reach.py            # report, always exits 0
    python benchmarks/reach.py --check    # exit 1 above 5 % unreached

What the hook cannot see: processes the traffic spawns (cluster
workers, perfbench's set-up probes) and code a part reaches only
after its own failure.  A part that fails is reported and the others
still count.  pytest-benchmark's fixture switches the profiler off
around every timed call, so the hook pins itself: in the traced
interpreter ``sys.setprofile`` installs the hook whatever it is
given.
"""

import argparse
import ast
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src", "repro")

#: Share of functions, outside ``KEEP``, that ``--check`` lets go
#: unreached.
THRESHOLD = 0.05

#: perfbench/run.py's arguments: one traced second per workload.
RUN = ("--seed", "1", "--seconds", "1", "--trace", "1")

#: Each part is ``(kind, path, *args)``: ``pytest`` runs pytest on its
#: arguments, ``script`` runs ``path`` as ``__main__``.  ``{tmp}`` is a
#: scratch directory.  The scripts run full-size (with the CI examples
#: job's arguments) because the example tests patch the slow ones down
#: to toy sizes, which skips code.
TRAFFIC = (
    ("pytest", "tests/test_examples.py"),
    ("pytest", "benchmarks"),
    ("pytest", "perfbench"),
    ("script", "examples/quickstart.py"),
    ("script", "examples/streaming_service.py"),
    ("script", "examples/gateway.py"),
    ("script", "examples/cluster_gateway.py"),
    ("script", "examples/adaptive_tuning.py"),
    ("script", "examples/proxy_discovery.py"),
    ("script", "examples/taxi_fleet.py"),
    ("script", "examples/synthetic_study.py"),
    (
        "script",
        "examples/reproduce_fig4.py",
        "--dataset",
        "synthetic",
        "--datasets",
        "2",
        "--windows",
        "120",
        "--epsilons",
        "1",
        "4",
        "--trials",
        "1",
        "--out",
        "{tmp}/fig4",
    ),
    (
        "script",
        "examples/soak.py",
        "--tenants",
        "2",
        "--windows",
        "150",
        "--rate",
        "5000",
        "--duration",
        "20",
        "--slice-windows",
        "32",
    ),
    (
        "script",
        "examples/broker_pipeline.py",
        "--windows",
        "120",
        "--slice",
        "45",
    ),
    ("script", "perfbench/run.py", "--workload", "served", *RUN),
    ("script", "perfbench/run.py", "--workload", "gateway-paced", *RUN),
    ("script", "perfbench/run.py", "--workload", "gateway-resume", *RUN),
    ("script", "perfbench/run.py", "--workload", "batch", *RUN),
)

#: ``entry: reason``.  An entry without ``::`` names modules under
#: ``src/repro`` (every function in them); ``module.py::Name`` names a
#: function, or a class with everything in it.  Both take ``*`` globs.
KEEP = {
    # The paper's definitional API the audit and verification need.
    "core/neighbors.py": "the paper's neighbouring relations (Defs. 1-3)",
    "core/verification.py": "exact DP verification of the PPMs",
    "core/guarantee.py": "the pattern-level guarantee algebra",
    "core/budget.py": "the paper's budget allocation and conversions",
    "baselines/w_event.py::ReleaseTrace.spent_in_window": (
        "the w-event invariant check"
    ),
    "baselines/w_event.py::ReleaseTrace.max_window_spend": (
        "the w-event invariant check"
    ),
    "baselines/w_event.py::ReleaseTrace._spend_prefix": (
        "the w-event invariant check's window sums"
    ),
    "mechanisms/randomized_response.py::flip_probability_to_epsilon": (
        "core/budget.py's per-event budget of a flip probability"
    ),
    # Oracles and references the tests compare against.
    "runtime/reference.py": "seed release loops, the bit-identity oracle",
    "runtime/rng_pool.py::pcg64_state_from_words": (
        "scalar reference of the vectorized PCG64 seeding"
    ),
    "runtime/rng_pool.py::first_uniform_scalar": (
        "scalar reference of the vectorized first draw"
    ),
    "core/quality_model.py::MonteCarloQualityEstimator": (
        "simulation cross-check of the analytic quality model"
    ),
    "core/quality_model.py::combine_flip_probabilities": (
        "overlapping-PPM flips (Sec. V-A), checked against simulation"
    ),
    "core/quality_model.py::expected_confusion_for_flips": (
        "overlapping-PPM confusion (Sec. V-A), checked against simulation"
    ),
    "baselines/budget_*.py::*.max_single_publication_budget": (
        "worst-case step spend the conversion coefficients are checked by"
    ),
    # perfbench wraps these by name; a rename breaks its traced run.
    "io/sinks.py::StreamSink.write": "perfbench wraps it by name",
    # Run only in spawned or forked worker processes the hook misses.
    "runtime/cluster.py::_execute_task": "runs in cluster workers",
    "runtime/cluster.py::_run_attached": "runs in cluster workers",
    "runtime/cluster.py::_worker_main": "runs in cluster workers",
    "runtime/shm.py::attach": "runs in cluster workers",
    "service/gateway.py::_serve_slot": "runs in forked gateway workers",
    # The in-process broker tests and the broker example run against.
    "broker/fake.py": "in-process broker with fault injection",
    # Spec vocabulary: what a spec string can name stays servable.
    "service/spec.py::_window_assigner": "window= spec kinds",
    "service/spec.py::ServiceSpec.window_assigner": "window= spec kinds",
    "streams/windows.py": "window= spec kinds",
    "cep/engine.py::CEPEngine.process_events": "window= spec: raw events",
    "runtime/stages.py::IndicatorExtractor.extract": "window= spec",
    "cep/engine.py::CEPEngine.quality_requirement": "quality= spec",
    "cep/engine.py::EngineReport.meets_requirement": "quality= spec",
    "cep/engine.py::EngineReport.measured_*": "quality= spec",
    "service/registry.py::MechanismContext.max_private_length": (
        "pattern_epsilon= spec key: the conversion's pattern length"
    ),
    "service/spec.py::TenantSpec.*json": "tenant spec documents",
    "service/spec.py::TenantSpec.with_": "tenant spec documents",
    "service/registry.py::_coerce": "positional mechanism spec tails",
    "service/registry.py::registered_*": "spec names listed in errors",
    "io/registry.py::registered_*": "spec names listed in errors",
    "service/registry.py::_build_cluster_executor": "cluster: executor",
    "service/registry.py::_no_transport": "sharded: transport= key error",
    "io/sources.py::JsonlSource": "jsonl: source",
    "io/sources.py::MemorySource._rows": "memory: of type sets",
    "io/sources.py::StreamSource._row_from_types": "memory: of type sets",
    "service/service.py::StreamService._egress_report": "sink= on batch runs",
    "io/sources.py::QueueSource": "queue: source",
    "io/sources.py::_ThrottledSource": "a TenantSpec rate_limit=",
    "io/sinks.py::JsonlSink": "jsonl: sink",
    "broker/connectors.py::BrokerS*": "broker: source and sink",
    "broker/client.py::BrokerClient": "the broker: connectors' client",
    "runtime/adapters.py::_MatrixRR*": "event-rr and user-rr steppers",
    "baselines/user_level.py::UserLevelRR.per_bit_epsilon": (
        "user-rr: the attribute the runtime adapter classifies it by"
    ),
    "runtime/adapters.py::_Identity*": "sessions without a mechanism",
    # Public session API (sessions restore in place as well as resume).
    "cep/online.py::*.restore": "public session API",
    "cep/async_session.py::AsyncSession": "public session API",
    "*::*Stepper.restore": "public session API: stepper restore",
    "*::*Releaser.restore": "public session API: releaser restore",
    # The paper's pattern language (Section III-A); spec patterns are
    # its sequence subset.
    "cep/patterns.py": "the pattern algebra SEQ/AND/OR/NEG/KLEENE",
    "cep/nfa.py": "the pattern algebra's automata",
    "cep/predicates.py": "the pattern algebra's event predicates",
    "cep/matcher.py::PatternMatch": "the pattern algebra's matches",
    # Scheduler hook defaults: every built-in scheduler overrides them.
    "baselines/w_event.py::WEventMechanism._initial_scheduler_state": (
        "default for schedulers without state"
    ),
    "baselines/w_event.py::WEventMechanism._budget_until": (
        "default one-timestamp budget stretch"
    ),
    # The metrics plane's exposition formats, what a scraper reads.
    "obs/exposition.py": "metrics text and JSONL snapshot exposition",
    "obs/metrics.py::MetricsRegistry.render_text": "metrics text exposition",
    "obs/metrics.py::_*label*": "metrics text exposition",
    # Error paths the tests pin.
    "io/sources.py::_checked_row": "csv: malformed-line errors",
    "io/sources.py::_CsvCursor._parse": "csv: lines off the fixed width",
    "runtime/adapters.py::RuntimeMechanism.stepper": (
        "batch-only mechanism error"
    ),
    # Python data model: called by the language, not by name.
    "*::*.__*__": "Python data-model method",
    "*::__*__": "Python module hook",
}


@dataclass(frozen=True)
class Function:
    path: str  # relative to the package directory, with "/"
    line: int  # first line, decorators included (``co_firstlineno``)
    qualname: str
    lines: int  # body lines
    declaration: bool  # nothing to run: docstring, pass, ... or raise

    @property
    def key(self):
        """What the hook records for this function's code object."""
        return (self.path, self.line, self.qualname.rpartition(".")[2])


def functions(src):
    """Every ``def`` under ``src``, nested ones included."""
    found = []
    for folder, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            full = os.path.join(folder, name)
            rel = os.path.relpath(full, src).replace(os.sep, "/")
            with open(full, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), full)
            _collect(tree, rel, "", found)
    return sorted(found, key=lambda f: (f.path, f.line))


def _collect(node, rel, prefix, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min(
                [child.lineno] + [d.lineno for d in child.decorator_list]
            )
            lines = child.end_lineno - child.body[0].lineno + 1
            found.append(
                Function(rel, first, qualname, lines, _declares(child))
            )
            _collect(child, rel, qualname + ".<locals>.", found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, rel, prefix + child.name + ".", found)
        else:
            _collect(child, rel, prefix, found)


def _declares(node):
    """Whether ``node``'s body only declares: no statement to run."""
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # the docstring, or ``...``
        raised = getattr(statement, "exc", None)
        if isinstance(raised, ast.Call):
            raised = raised.func
        if getattr(raised, "id", None) == "NotImplementedError":
            continue
        return False
    return True


def kept(function, keep):
    """The reason ``function`` stays unreached, or ``None``."""
    name = f"{function.path}::{function.qualname}"
    for entry, reason in keep.items():
        if "::" not in entry:
            if fnmatch.fnmatchcase(function.path, entry):
                return reason
        elif fnmatch.fnmatchcase(name, entry) or fnmatch.fnmatchcase(
            name, entry + ".*"
        ):
            return reason
    return None


def unresolved(keep, src):
    """Keep entries that name no function."""
    every = functions(src)
    return [
        entry
        for entry, reason in keep.items()
        if not any(kept(f, {entry: reason}) for f in every)
    ]


def _record(out, src, kind, argv):
    """Child side: run one part under the hook, then write what ran."""
    codes = {}

    def hook(frame, event, arg):
        codes.setdefault(id(frame.f_code), frame.f_code)

    import threading

    set_profile = sys.setprofile
    threading.setprofile(hook)
    set_profile(hook)
    # Any later call (a new thread's start-up, pytest-benchmark's
    # pause) installs the hook in the calling thread.
    sys.setprofile = lambda func: set_profile(hook)
    try:
        if kind == "pytest":
            import pytest

            sys.path[0] = os.getcwd()  # as ``python -m pytest`` has it
            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
        else:
            import runpy

            sys.argv = list(argv)
            sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
            try:
                runpy.run_path(argv[0], run_name="__main__")
                status = 0
            except SystemExit as stop:
                status = stop.code if isinstance(stop.code, int) else 1
    finally:
        set_profile(None)
        threading.setprofile(None)
        prefix = os.path.join(os.path.realpath(src), "")
        ran = set()
        for code in list(codes.values()):
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix):
                rel = path[len(prefix) :].replace(os.sep, "/")
                ran.add((rel, code.co_firstlineno, code.co_name))
        with open(out, "w") as handle:
            json.dump(sorted(ran), handle)
    return int(status)


def trace(traffic, src, root):
    """``{(path, line, name)}`` of every code object the traffic ran,
    and the parts that exited non-zero."""
    reached, failed = set(), []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(src), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reached.json")
        for kind, *argv in traffic:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            print(f"reach: {kind} {' '.join(argv)}", file=sys.stderr)
            command = [sys.executable, __file__, "--record", out, src, kind]
            done = subprocess.run(
                command + argv,
                cwd=root,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            if done.returncode:
                failed.append((" ".join(argv), done.returncode))
            if os.path.exists(out):
                with open(out) as handle:
                    reached.update(map(tuple, json.load(handle)))
                os.remove(out)
    return reached, failed


def report(every, reached, keep):
    """Print the unreached functions by file; return their share."""
    missing = [f for f in every if f.key not in reached and not f.declaration]
    left = [f for f in missing if kept(f, keep) is None]
    by_file = {}
    for function in left:
        by_file.setdefault(function.path, []).append(function)
    for path, group in sorted(by_file.items()):
        total = sum(f.lines for f in group)
        print(f"{path}: {len(group)} unreached, {total} body lines")
        for f in group:
            print(f"  {f.line:5d}  {f.qualname} ({f.lines})")
    share = len(left) / max(1, len(every))
    print(
        f"{len(left)} of {len(every)} functions unreached outside the "
        f"keep-list ({share:.1%}), {sum(f.lines for f in left)} body "
        f"lines; {len(missing) - len(left)} more kept"
    )
    return share


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 when more than {THRESHOLD:.0%} are unreached",
    )
    parser.add_argument(
        "--record", nargs=argparse.REMAINDER, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.record:
        out, src, kind, *rest = args.record
        return _record(out, src, kind, rest)
    bad = unresolved(KEEP, SRC)
    for entry in bad:
        print(f"keep-list entry names no function: {entry}")
    reached, failed = trace(TRAFFIC, SRC, ROOT)
    for part, code in failed:
        print(f"part exited {code}: {part}")
    share = report(functions(SRC), reached, KEEP)
    if args.check and (bad or share > THRESHOLD):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
