"""Plain-text report rendering for the benchmark harness.

Every figure benchmark prints an ASCII table mirroring the rows/series of
the corresponding figure in the paper, so the reproduction can be compared
at a glance. No plotting dependency is used — the paper's findings are all
orderings and ratios, which tables carry fine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

Cell = Union[str, int, float]


def _render_cell(cell: Cell, precision: int) -> str:
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)


class Table:
    """Minimal monospace table with right-aligned numeric columns."""

    def __init__(
        self,
        headers: Sequence[str],
        precision: int = 3,
        title: Optional[str] = None,
    ) -> None:
        if not headers:
            raise ValueError("table needs at least one column")
        self.headers = list(headers)
        self.precision = precision
        self.title = title
        self._rows: List[List[str]] = []
        self._numeric = [True] * len(headers)

    def add_row(self, *cells: Cell) -> None:
        """Append one row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.headers)} columns"
            )
        rendered = []
        for index, cell in enumerate(cells):
            if isinstance(cell, str):
                self._numeric[index] = False
            rendered.append(_render_cell(cell, self.precision))
        self._rows.append(rendered)

    def render(self) -> str:
        """The formatted table as a string."""
        widths = [len(h) for h in self.headers]
        for row in self._rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def fmt_row(cells: Sequence[str]) -> str:
            parts = []
            for index, cell in enumerate(cells):
                if self._numeric[index]:
                    parts.append(cell.rjust(widths[index]))
                else:
                    parts.append(cell.ljust(widths[index]))
            return "  ".join(parts).rstrip()

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_row(self.headers))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(fmt_row(row) for row in self._rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_figure_header(figure: str, description: str) -> str:
    """Banner line printed above each figure reproduction."""
    line = f"=== {figure}: {description} ==="
    return f"\n{line}"
