"""Surface tests of the public API.

Guards the contract a downstream user relies on: everything in
``__all__`` resolves, carries a docstring, matches the committed
surface manifest (``tests/data/public_api.txt``), and the package
imports without side effects on global RNG state.
"""

import importlib
import inspect

from pathlib import Path

import numpy as np
import pytest

import repro

SUBPACKAGES = [
    "repro.baselines",
    "repro.broker",
    "repro.cep",
    "repro.core",
    "repro.datasets",
    "repro.experiments",
    "repro.io",
    "repro.mechanisms",
    "repro.metrics",
    "repro.obs",
    "repro.runtime",
    "repro.service",
    "repro.streams",
    "repro.utils",
]

MANIFEST = Path(__file__).parent / "data" / "public_api.txt"


class TestAllResolvable:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), (
                f"{module_name}.__all__ lists missing {name}"
            )

    def test_each_exported_name_is_one_object(self):
        # Two subpackages may re-export one object, never two objects
        # under one name.
        owners = {}
        for module_name in SUBPACKAGES:
            module = importlib.import_module(module_name)
            for name in module.__all__:
                owners.setdefault(name, {})[id(getattr(module, name))] = (
                    module_name
                )
        clashes = {
            name: sorted(objects.values())
            for name, objects in owners.items()
            if len(objects) > 1
        }
        assert clashes == {}

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_is_sorted(self, module_name):
        module = importlib.import_module(module_name)
        assert list(module.__all__) == sorted(module.__all__), (
            f"{module_name}.__all__ is not sorted"
        )


class TestSurfaceManifest:
    """Surface changes must be deliberate: ``__all__`` is committed."""

    def test_all_matches_committed_manifest(self):
        expected = [
            line.strip()
            for line in MANIFEST.read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        added = sorted(set(repro.__all__) - set(expected))
        removed = sorted(set(expected) - set(repro.__all__))
        assert list(repro.__all__) == expected, (
            "repro.__all__ drifted from tests/data/public_api.txt "
            f"(added: {added}, removed: {removed}); if the surface "
            "change is intentional, update the manifest in the same "
            "commit"
        )

    def test_session_and_service_exports_present(self):
        # The PR-2/PR-3 executors and sessions, and the PR-4 service
        # API, are public, tested surface.
        for name in (
            "AsyncSession",
            "ShardedExecutor",
            "ServiceSpec",
            "StreamGateway",
            "StreamService",
            "register_executor",
            "register_mechanism",
            "register_sink",
            "register_source",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)


#: Keyword parameters of the serving entry points.  A serving knob
#: that comes back (or goes) is a deliberate diff to this table.
SERVING_SIGNATURES = {
    ("AsyncSession", "__init__"): ["rng", "max_pending"],
    ("StreamService", "open_async_session"): ["rng", "max_pending"],
    ("StreamService", "pump"): ["sink", "max_pending", "max_windows"],
    ("StreamGateway", "add_tenant"): [
        "source",
        "sink",
        "history",
        "max_pending",
        "rate_limit",
        "burst",
        "clock",
    ],
}


#: Keyword parameters of the pipeline constructor: windowing happens
#: before a pipeline, and quality is weighed on its result.
PIPELINE_SIGNATURE = ["queries", "mechanism"]


def _keywords(function):
    return [
        parameter.name
        for parameter in inspect.signature(function).parameters.values()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]


class TestServingSignatures:
    @pytest.mark.parametrize("owner, method", sorted(SERVING_SIGNATURES))
    def test_keyword_parameters_are_pinned(self, owner, method):
        function = getattr(getattr(repro, owner), method)
        assert _keywords(function) == SERVING_SIGNATURES[owner, method]

    def test_pipeline_keyword_parameters_are_pinned(self):
        from repro.runtime import StreamPipeline

        assert _keywords(StreamPipeline.__init__) == PIPELINE_SIGNATURE


#: Key=value spec keys of the sequential baselines, read through the
#: mechanism registry.  A tunable that comes back (or goes) is a
#: deliberate diff to this table.
MECHANISM_KEYS = {
    "bd": [
        "epsilon",
        "w",
        "pattern_epsilon",
        "conversion_mode",
    ],
    "ba": [
        "epsilon",
        "w",
        "pattern_epsilon",
        "conversion_mode",
    ],
    "landmark": [
        "epsilon",
        "pattern_epsilon",
        "landmarks",
        "conversion_mode",
        "rho",
    ],
}


class TestMechanismKeys:
    @pytest.mark.parametrize("name", sorted(MECHANISM_KEYS))
    def test_spec_keys_are_pinned(self, name):
        from repro.service.registry import _MECHANISMS

        keys = [key.name for key in _MECHANISMS.keys_for(name)]
        assert keys == MECHANISM_KEYS[name]


#: Key=value spec keys of every built-in executor, read through the
#: executor registry.  An executor that comes back (or goes) is a
#: deliberate diff to this table.
EXECUTOR_KEYS = {
    "batch": [],
    "cluster": ["workers", "transport"],
    "sharded": ["backend", "workers", "transport"],
}


class TestExecutorKeys:
    def test_registered_executors_are_pinned(self):
        from repro.service import registered_executors

        assert registered_executors() == ("batch", "cluster", "sharded")

    @pytest.mark.parametrize("name", sorted(EXECUTOR_KEYS))
    def test_spec_keys_are_pinned(self, name):
        from repro.service.registry import _EXECUTORS

        keys = [key.name for key in _EXECUTORS.keys_for(name)]
        assert keys == EXECUTOR_KEYS[name]


class TestDocstrings:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackages_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_public_objects_documented(self):
        undocumented = [
            name
            for name in repro.__all__
            if not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert undocumented == []


class TestVersion:
    def test_version_matches_pyproject(self):
        """``__version__`` is single-sourced: it must always equal the
        pyproject version, whether resolved from installed metadata or
        from the source tree fallback."""
        import tomllib

        pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text())
        assert repro.__version__ == data["project"]["version"]

    def test_version_is_resolved(self):
        assert repro.__version__ != "0+unknown"
        assert repro.__version__.strip()


class TestNoGlobalRngSideEffects:
    def test_library_calls_do_not_touch_global_numpy_rng(self):
        np.random.seed(1234)
        before = np.random.random()
        np.random.seed(1234)
        # Exercise a representative slice of the library.
        from repro import (
            EventAlphabet,
            IndicatorStream,
            Pattern,
            UniformPatternPPM,
        )

        alphabet = EventAlphabet.numbered(4)
        stream = IndicatorStream(
            alphabet, np.zeros((10, 4), dtype=bool)
        )
        ppm = UniformPatternPPM(Pattern.of_types("p", "e1", "e2"), 2.0)
        ppm.perturb(stream, rng=0)
        after = np.random.random()
        assert before == after
