"""Minimal ASCII table renderer used by experiment reports.

Keeps the benchmark harness free of plotting dependencies: each figure is
regenerated as the numeric series the paper plots, rendered as a table.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class TextTable:
    """Accumulate rows and render a padded, pipe-delimited ASCII table."""

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self._rows: list[list[str]] = []

    def add_row(self, *values: Any) -> None:
        """Append one row; values are stringified (floats get 4 significant digits)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self._rows.append([_stringify(v) for v in values])

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows at once."""
        for row in rows:
            self.add_row(*row)

    def render(self) -> str:
        """Return the table as a multi-line string."""
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self._rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _stringify(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
