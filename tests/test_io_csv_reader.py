"""The csv: source's byte-record reader: every line layout and every
malformed line reads as a text-mode ``csv.reader`` pass would."""

import asyncio
import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import CsvSource, read_indicator_csv
from repro.streams.indicator import EventAlphabet

ALPHABET = EventAlphabet(["a", "b", "c"])

#: The views every case is read through.
VIEWS = ("rows", "stream", "ablocks-1", "ablocks-3", "ablocks-1024")


def run_view(source, view):
    """The rows ``view`` yields from ``source``, and the message of the
    ``ValueError`` that ended it (``None`` for a clean pass)."""
    rows = []
    try:
        if view == "rows":
            for row in source.rows():
                rows.append(row)
        elif view == "stream":
            rows.extend(source.indicator_stream().matrix_view())
        else:
            max_rows = int(view.split("-")[1])

            async def drain():
                async for block in source.ablocks(max_rows):
                    rows.extend(block)

            asyncio.run(drain())
    except ValueError as exc:
        return rows, str(exc)
    return rows, None


# ---------------------------------------------------------------------------
# Edge-case files, pinned to what the text-mode reader gave
# ---------------------------------------------------------------------------

EDGE_FILES = {
    "crlf": b"a,b,c\r\n1,0,1\r\n0,1,1\r\n0,0,0\r\n",
    "lf": b"a,b,c\n1,0,1\n0,1,1\n0,0,0\n",
    "cr": b"a,b,c\r1,0,1\r0,1,1\r0,0,0\r",
    "no-final-newline": b"a,b,c\r\n1,0,1\r\n0,1,1\r\n0,0,0",
    "mixed": b"a,b,c\r\n1,0,1\n0,1,1\r0,0,0\r\n1,1,1\n",
    "crlf-header-lf-rows": b"a,b,c\r\n1,0,1\n0,1,1\n",
    "spaced": b"a,b,c\n1,0,1\n1, 0,1\n0,1,0\n",
    "quoted": b'a,b,c\n1,0,1\n"1",0,1\n0,1,0\n',
    "header-only": b"a,b,c\n",
    "blank": b"a,b,c\n1,0,1\n\n0,1,1\n",
    "ragged": b"a,b,c\n1,0,1\n0,1,1\n1,0\n1,1,1\n",
    "two": b"a,b,c\n1,0,1\n0,1,1\n1,0,2\n",
    "non-integer": b"a,b,c\n1,0,1\nx,1,1\n",
}

#: The rows of each well-formed file.
CLEAN = {
    "crlf": [[1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "lf": [[1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "cr": [[1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "no-final-newline": [[1, 0, 1], [0, 1, 1], [0, 0, 0]],
    "mixed": [[1, 0, 1], [0, 1, 1], [0, 0, 0], [1, 1, 1]],
    "crlf-header-lf-rows": [[1, 0, 1], [0, 1, 1]],
    "spaced": [[1, 0, 1], [1, 0, 1], [0, 1, 0]],
    "quoted": [[1, 0, 1], [1, 0, 1], [0, 1, 0]],
    "header-only": [],
}

#: Each malformed file's message (after ``<path>``), its rows before
#: the bad line, and per view of :data:`VIEWS` ``(rows yielded,
#: offset)`` for skip 0 and skip 1.
MALFORMED = {
    "blank": (
        ":3: expected 3 columns, got 0",
        [[1, 0, 1]],
        (((1, 1), (0, 1)), ((0, 0), (0, 1)), ((1, 1), (0, 1)),
         ((0, 1), (0, 1)), ((0, 1), (0, 1))),
    ),
    "ragged": (
        ":4: expected 3 columns, got 2",
        [[1, 0, 1], [0, 1, 1]],
        (((2, 2), (1, 2)), ((0, 0), (0, 1)), ((2, 2), (1, 2)),
         ((0, 1), (0, 2)), ((0, 1), (0, 2))),
    ),
    "two": (
        ":4: indicator values must be 0/1",
        [[1, 0, 1], [0, 1, 1]],
        (((2, 2), (1, 2)), ((0, 0), (0, 1)), ((2, 2), (1, 2)),
         ((0, 1), (0, 2)), ((0, 1), (0, 2))),
    ),
    "non-integer": (
        ":3: non-integer indicator value",
        [[1, 0, 1]],
        (((1, 1), (0, 1)), ((0, 0), (0, 1)), ((1, 1), (0, 1)),
         ((0, 1), (0, 1)), ((0, 1), (0, 1))),
    ),
}


@pytest.fixture(params=sorted(EDGE_FILES))
def edge_file(request, tmp_path):
    path = tmp_path / f"{request.param}.csv"
    path.write_bytes(EDGE_FILES[request.param])
    return request.param, str(path)


class TestEdgeCases:
    @pytest.mark.parametrize("skip", [0, 1])
    @pytest.mark.parametrize("view", VIEWS)
    def test_view_matches_the_text_mode_reader(self, edge_file, view, skip):
        name, path = edge_file
        source = CsvSource(path).bind(ALPHABET).skip(skip)
        rows, error = run_view(source, view)
        got = [row.astype(int).tolist() for row in rows]
        if name in CLEAN:
            assert error is None
            assert got == CLEAN[name][skip:]
            assert source.offset == max(skip, len(CLEAN[name]))
            return
        message, before, outcomes = MALFORMED[name]
        count, offset = outcomes[VIEWS.index(view)][skip]
        assert error == path + message
        assert got == before[skip:][:count]
        assert source.offset == offset

    def test_byte_order_mark_fails_at_bind(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("﻿a,b,c\n1,0,1\n".encode("utf-8"))
        message = (
            f"{path} has alphabet ['\\ufeffa', 'b', 'c'] but the service "
            "alphabet is ['a', 'b', 'c']"
        )
        with pytest.raises(ValueError) as excinfo:
            CsvSource(str(path)).bind(ALPHABET)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("before, line", [(3000, 3002), (3, 5)])
    def test_invalid_utf8_names_its_line(self, tmp_path, before, line):
        # bind() decodes only the header line, so a bad byte fails when
        # its row is read, far into the file or right after the header.
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            b"a,b,c\n" + b"1,0,1\n" * before + b"1,\xe9,0\n" + b"0,0,0\n"
        )
        source = CsvSource(str(path)).bind(ALPHABET)
        message = rf"latin1\.csv:{line}: not UTF-8"
        with pytest.raises(ValueError, match=message):
            source.indicator_stream()
        assert source._cursor.handle.closed

    def test_invalid_utf8_header_names_line_one(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_bytes(b"a,\xe9,c\n1,0,1\n")
        with pytest.raises(ValueError, match=r"header\.csv:1: not UTF-8"):
            CsvSource(str(path)).bind(ALPHABET)
        with pytest.raises(ValueError, match=r"header\.csv:1: not UTF-8"):
            read_indicator_csv(str(path))

    def test_quote_left_open_is_not_a_value(self, tmp_path):
        # A row is one line: a quote that runs past the line end does
        # not pull the next line into the row.
        path = tmp_path / "open.csv"
        path.write_bytes(b'a,b,c\n1,0,1\n1,0,"1\n",0,1\n')
        for view in VIEWS:
            source = CsvSource(str(path)).bind(ALPHABET)
            _rows, error = run_view(source, view)
            assert error == f"{path}:3: non-integer indicator value"

    def test_strict_slab_around_a_padded_line(self, tmp_path):
        # One space-padded line deep in a long strict file: its slab
        # takes the line path, and the slabs after it are strict again.
        rng = np.random.default_rng(5)
        matrix = rng.random((3000, 3)) < 0.5
        lines = [",".join(map(str, row)) for row in matrix.astype(int)]
        lines[1500] = lines[1500].replace(",", ", ")
        path = tmp_path / "padded.csv"
        path.write_bytes(("a,b,c\r\n" + "\r\n".join(lines) + "\r\n").encode())
        for view in VIEWS:
            source = CsvSource(str(path)).bind(ALPHABET)
            rows, error = run_view(source, view)
            assert error is None
            assert np.array_equal(np.array(rows), matrix)
            assert source.offset == 3000


# ---------------------------------------------------------------------------
# Property: every view equals a csv.reader + int oracle
# ---------------------------------------------------------------------------


def oracle(text, width, path):
    """Each data line of an indicator CSV's text as ``csv.reader`` and
    ``int`` read it: its 0/1 values, or the message it raises."""
    lines = []
    records = csv.reader(io.StringIO(text, newline=""))
    next(records)
    for number, row in enumerate(records, start=2):
        where = f"{path}:{number}:"
        if len(row) != width:
            lines.append(f"{where} expected {width} columns, got {len(row)}")
            continue
        try:
            values = [int(value) for value in row]
        except ValueError:
            lines.append(f"{where} non-integer indicator value")
            continue
        if not set(values) <= {0, 1}:
            lines.append(f"{where} indicator values must be 0/1")
            continue
        lines.append(values)
    return lines


def expect(lines, skip, width):
    """The rows a pass past ``skip`` lines yields, and its error."""
    rows = []
    for line in lines[skip:]:
        if isinstance(line, str):
            return np.array(rows, dtype=bool).reshape(-1, width), line
        rows.append(line)
    return np.array(rows, dtype=bool).reshape(-1, width), None


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 6))
    n = draw(st.integers(0, 120))
    cells = st.lists(st.booleans(), min_size=n * width, max_size=n * width)
    matrix = np.array(draw(cells), dtype=int).reshape(n, width)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = draw(st.booleans())
    lines = [",".join(f"t{j}" for j in range(width))]
    lines += [",".join(map(str, row)) for row in matrix]
    broken = None
    if n and draw(st.booleans()):
        broken = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["short", "long", "letter", "two"]))
        cells = lines[broken + 1].split(",")
        if kind == "short":
            cells = cells[:-1]
        elif kind == "long":
            cells.append("0")
        else:
            cells[draw(st.integers(0, width - 1))] = (
                "x" if kind == "letter" else "2"
            )
        lines[broken + 1] = ",".join(cells)
    text = ending.join(lines) + (ending if final else "")
    limits = draw(st.lists(st.integers(1, 40), max_size=8))
    skip = draw(st.integers(0, n + 2))
    return width, text, limits, skip


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=csv_files())
    def test_every_view_matches_csv_reader(self, tmp_path_factory, case):
        width, text, limits, skip = case
        path = str(tmp_path_factory.mktemp("oracle") / "s.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        alphabet = EventAlphabet([f"t{j}" for j in range(width)])
        lines = oracle(text, width, path)
        expected, error = expect(lines, skip, width)

        def fresh():
            return CsvSource(path).bind(alphabet).skip(skip)

        def check(source, blocks, got_error):
            got = np.concatenate([np.zeros((0, width), bool), *blocks])
            assert got_error == error
            if error is None:
                assert np.array_equal(got, expected)
                assert source.offset == max(skip, len(lines))
            else:
                assert np.array_equal(got, expected[: len(got)])

        # Any sequence of block limits, then the rest one row at a time.
        source = fresh()
        blocks = []
        try:
            for limit in limits:
                block = source._take(limit)
                if block is None:
                    break
                assert len(block) <= limit
                blocks.append(block)
            blocks.extend(row[None] for row in source.rows())
        except ValueError as exc:
            check(source, blocks, str(exc))
        else:
            check(source, blocks, None)
        for view in VIEWS:
            source = fresh()
            rows, got_error = run_view(source, view)
            check(source, [np.reshape(rows, (-1, width))], got_error)

    def test_limits_return_exact_counts(self, tmp_path):
        # A block holds min(limit, remaining) rows on both paths.
        path = tmp_path / "ten.csv"
        for layout in (b"\r", b"\r\n"):
            path.write_bytes(b"a,b,c" + layout + (b"1,0,1" + layout) * 10)
            source = CsvSource(str(path)).bind(ALPHABET)
            sizes = [len(source._take(limit)) for limit in (1, 4, 2, 7)]
            assert sizes == [1, 4, 2, 3]
            assert source._take(5) is None
            assert source.offset == 10

    def test_read_indicator_csv_takes_the_same_reader(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(EDGE_FILES["mixed"])
        assert read_indicator_csv(str(path)).matrix_view().astype(
            int
        ).tolist() == CLEAN["mixed"]
        path.write_bytes(EDGE_FILES["blank"])
        with pytest.raises(ValueError, match=re.escape(":3: expected 3")):
            read_indicator_csv(str(path))
