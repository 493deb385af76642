"""Indicator files are UTF-8 on every host: no text ``open`` in the io
layer falls back to the locale's encoding."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

#: Runs in a fresh interpreter in which every text ``open`` without an
#: ``encoding=`` raises (``EncodingWarning`` as an error).
SCRIPT = textwrap.dedent(
    """
    import asyncio
    import os
    import sys

    import numpy as np

    from repro.io import JsonlSource, read_indicator_csv, write_indicator_csv
    from repro.obs.exposition import JsonlSnapshotWriter
    from repro.service import ServiceSpec, StreamGateway
    from repro.streams.indicator import EventAlphabet, IndicatorStream
    from repro.utils.tables import ResultTable

    workdir = sys.argv[1]
    alphabet = EventAlphabet.numbered(4)
    rng = np.random.default_rng(3)
    stream = IndicatorStream(alphabet, rng.random((90, 4)) < 0.4)
    source = os.path.join(workdir, "in.csv")
    write_indicator_csv(stream, source)
    assert read_indicator_csv(source) == stream

    def spec(sink):
        return ServiceSpec(
            alphabet=alphabet,
            patterns=[("private", ("e1", "e2"))],
            queries=[("q", ("e2", "e3"))],
            mechanism="uniform-ppm",
            mechanism_options={"epsilon": 2.0},
            seed=5,
            source=f"csv:{source}",
            sink=sink,
        )

    # csv: in, jsonl: and csv: out; the jsonl: file reads back as a
    # source equal to the released csv.
    released = os.path.join(workdir, "released.jsonl")
    asyncio.run(spec(f"jsonl:{released}").build().pump())
    copy = os.path.join(workdir, "released.csv")
    asyncio.run(spec(f"csv:{copy}").build().pump())
    replayed = JsonlSource(released).bind(alphabet).indicator_stream()
    assert replayed == read_indicator_csv(copy)

    # A gateway served in two slices, killed between them, resumes.
    alone = StreamGateway()
    alone.add_tenant("t", spec(None))
    expected = alone.run()
    gateway = StreamGateway()
    gateway.add_tenant("t", spec(None))
    asyncio.run(gateway.serve(max_windows=40))
    resumed = StreamGateway.resume(gateway.checkpoint())
    asyncio.run(resumed.serve())
    head, tail = gateway.results()["t"], resumed.results()["t"]
    assert {q: head[q] + tail[q] for q in head} == expected["t"]

    table = ResultTable(["epsilon", "mre"])
    table.add_row(epsilon=1.0, mre=0.25)
    table.write_csv(os.path.join(workdir, "table.csv"))
    JsonlSnapshotWriter(os.path.join(workdir, "metrics.jsonl")).write()
    print("ok")
    """
)


def test_io_declares_its_encoding(tmp_path):
    src = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [
            sys.executable,
            "-X",
            "warn_default_encoding",
            "-W",
            "error::EncodingWarning",
            "-c",
            SCRIPT,
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
