"""Property tests: every row builder gives the same indicator rows.

Windows arrive as event-type collections in many places — the
indicator-stream constructors, the pipeline's extractor, the
``memory:``/``jsonl:``/``queue:`` sources and the broker's ``types``
entries.  All of them build rows through one function, so each must
agree with it on collections holding repeated and unknown types.
"""

import asyncio
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.connectors import _decode_fields
from repro.io.sources import JsonlSource, MemorySource, QueueSource
from repro.runtime import IndicatorExtractor
from repro.streams.indicator import (
    EventAlphabet,
    IndicatorStream,
    indicator_matrix,
)

ALPHABET = EventAlphabet(["a", "b", "c", "d"])

#: Known types plus a few outside the alphabet; lists repeat freely.
type_names = st.sampled_from(["a", "b", "c", "d", "x", "yy"])

windows = st.lists(
    st.lists(type_names, max_size=8), min_size=1, max_size=12
)


def _reference(type_sets):
    """Each window's row, one bit per alphabet type it mentions."""
    return np.array(
        [[name in set(window) for name in ALPHABET] for window in type_sets],
        dtype=bool,
    ).reshape(len(type_sets), len(ALPHABET))


def _from_queue(type_sets):
    async def drain():
        queue = asyncio.Queue()
        for window in type_sets:
            queue.put_nowait(window)
        queue.put_nowait(None)
        source = QueueSource(queue).bind(ALPHABET)
        return [row async for row in source.arows()]

    return np.stack(asyncio.run(drain()))


def _from_jsonl(type_sets):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "windows.jsonl")
        with open(path, "w") as handle:
            for window in type_sets:
                handle.write(json.dumps(window) + "\n")
        return JsonlSource(path).bind(ALPHABET).indicator_stream().matrix()


@settings(max_examples=40, deadline=None)
@given(type_sets=windows)
def test_every_row_builder_agrees(type_sets):
    expected = _reference(type_sets)
    built = {
        "indicator_matrix": indicator_matrix(ALPHABET, type_sets),
        "from_window_sets": IndicatorStream.from_window_sets(
            ALPHABET, type_sets, strict=False
        ).matrix(),
        "extractor": IndicatorExtractor(ALPHABET).extract_matrix(type_sets),
        "memory": MemorySource(type_sets)
        .bind(ALPHABET)
        .indicator_stream()
        .matrix(),
        "jsonl": _from_jsonl(type_sets),
        "queue": _from_queue(type_sets),
        "broker": np.stack(
            [
                _decode_fields({"types": json.dumps(window)}, ALPHABET)
                for window in type_sets
            ]
        ),
    }
    for name, matrix in built.items():
        assert matrix.dtype == bool, name
        assert np.array_equal(matrix, expected), name


@given(type_sets=windows)
def test_strict_keeps_the_key_error(type_sets):
    unknown = [
        name for window in type_sets for name in window if name not in ALPHABET
    ]
    if not unknown:
        assert np.array_equal(
            indicator_matrix(ALPHABET, type_sets, strict=True),
            _reference(type_sets),
        )
        return
    message = f"event type {unknown[0]!r} is not in the alphabet"
    with pytest.raises(KeyError) as raised:
        IndicatorStream.from_window_sets(ALPHABET, type_sets)
    assert raised.value.args == (message,)
