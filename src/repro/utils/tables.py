"""Lightweight result tables for experiment reporting.

The experiment harness prints the same rows/series the paper reports.
:class:`ResultTable` is a minimal column-oriented table with aligned text
rendering and CSV export — enough for benchmark output without pulling in
pandas.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence


class ResultTable:
    """A small ordered table of experiment results.

    Rows are mappings from column name to value.  Columns are fixed at
    construction; missing values render as empty strings.

    >>> table = ResultTable(["epsilon", "mre"], title="demo")
    >>> table.add_row(epsilon=1.0, mre=0.25)
    >>> "epsilon" in table.render()
    True
    """

    def __init__(self, columns: Sequence[str], *, title: Optional[str] = None):
        if not columns:
            raise ValueError("a ResultTable needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {list(columns)}")
        self.columns: List[str] = list(columns)
        self.title = title
        self._rows: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The accumulated rows (copies; mutation does not affect the table)."""
        return [dict(row) for row in self._rows]

    def add_row(self, **values: Any) -> None:
        """Append a row given as keyword arguments."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(
                f"unknown column(s) {sorted(unknown)}; table has {self.columns}"
            )
        self._rows.append({col: values.get(col) for col in self.columns})

    def add_rows(self, rows: Iterable[Mapping[str, Any]]) -> None:
        """Append many rows from mappings."""
        for row in rows:
            self.add_row(**dict(row))

    def column(self, name: str) -> List[Any]:
        """Return all values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}; table has {self.columns}")
        return [row[name] for row in self._rows]

    def sort_by(self, *names: str) -> "ResultTable":
        """Return a new table with rows sorted by the given columns."""
        for name in names:
            if name not in self.columns:
                raise KeyError(f"unknown column {name!r}")
        table = ResultTable(self.columns, title=self.title)
        table._rows = sorted(
            (dict(row) for row in self._rows),
            key=lambda row: tuple(row[name] for name in names),
        )
        return table

    def filter(self, **criteria: Any) -> "ResultTable":
        """Return a new table keeping rows whose columns equal ``criteria``."""
        for name in criteria:
            if name not in self.columns:
                raise KeyError(f"unknown column {name!r}")
        table = ResultTable(self.columns, title=self.title)
        table._rows = [
            dict(row)
            for row in self._rows
            if all(row[k] == v for k, v in criteria.items())
        ]
        return table

    def render(self, *, float_format: str = "{:.4f}") -> str:
        """Render the table as aligned monospaced text."""
        def fmt(value: Any) -> str:
            if value is None:
                return ""
            if isinstance(value, bool):
                return str(value)
            if isinstance(value, float):
                return float_format.format(value)
            return str(value)

        cells = [[fmt(row[col]) for col in self.columns] for row in self._rows]
        widths = [
            max(len(col), *(len(row[i]) for row in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = []
        if self.title:
            lines.append(f"== {self.title} ==")
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Render the table as CSV text (header row included)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self._rows:
            writer.writerow([row[col] for col in self.columns])
        return buffer.getvalue()

    def write_csv(self, path: str) -> None:
        """Write the table to ``path`` as CSV."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(self.to_csv())
