"""The w-event guarantee on the served path, checked directly.

A BD or BA service is pumped in ``max_windows`` slices and, between
slices, checkpointed, pickled and resumed as a fresh service.  The
stitched run's trace must then hold the w-event invariant itself
(no window of ``w`` timestamps spends more than ε), cover every window
exactly once, and equal both the batch trace and the per-window
columns of the seed release loop (``runtime/reference.py``), which
appends them itself rather than deriving them from a publication log.
"""

import asyncio
import pickle

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.io import write_indicator_csv
from repro.runtime.reference import reference_w_event_perturb
from repro.service import ServiceSpec, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import derive_rng

ALPHABET = ("e1", "e2", "e3", "e4", "e5")
EPSILON = 1.0
W = 10
SEED = 11

#: Slice sizes: a one-window slice, slices across the 32-row prefetch
#: threshold and a slice longer than one served block's default.
SLICES = (1, 31, 33, 64, 171)
N_WINDOWS = sum(SLICES)

COLUMNS = ("published", "publication_budgets", "dissimilarity_budgets")
SCHEDULERS = {"bd": BudgetDistribution, "ba": BudgetAbsorption}


def make_stream():
    rng = np.random.default_rng(9)
    return IndicatorStream(
        EventAlphabet(ALPHABET), rng.random((N_WINDOWS, 5)) < 0.4
    )


@pytest.mark.parametrize("kind", list(SCHEDULERS))
def test_sliced_resumed_serving_keeps_the_w_event_invariant(kind, tmp_path):
    stream = make_stream()
    path = str(tmp_path / "feed.csv")
    write_indicator_csv(stream, path)
    spec = ServiceSpec(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism=f"{kind}:epsilon={EPSILON},w={W}",
        source=f"csv:{path}",
        seed=SEED,
    )

    service = StreamService(spec)
    for index, size in enumerate(SLICES):
        if index:
            checkpoint = pickle.loads(pickle.dumps(service.checkpoint()))
            service = StreamService.resume(spec, checkpoint)
        asyncio.run(service.pump(max_windows=size))
    trace = service.mechanism.last_trace

    assert trace.max_window_spend(W) <= EPSILON + 1e-9
    assert len(trace.published) == N_WINDOWS

    # Sessions draw a sequential releaser's randomness from the
    # seed's "online" child; the batch run and the seed loop take it
    # as their parent.
    batch = StreamService(spec)
    batch.run_indicators(stream, rng=derive_rng(SEED, "online"))
    seed_loop = {}
    reference_w_event_perturb(
        SCHEDULERS[kind](EPSILON, W),
        stream,
        rng=derive_rng(SEED, "online"),
        final_state=seed_loop,
    )
    for column in COLUMNS:
        served = getattr(trace, column)
        assert np.array_equal(
            served, getattr(batch.mechanism.last_trace, column)
        ), column
        assert served.tolist() == seed_loop[column], column
