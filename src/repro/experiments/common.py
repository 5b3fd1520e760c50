"""Shared infrastructure for the experiment harnesses.

Every experiment module reproduces one table or figure of the paper's
evaluation: it returns an :class:`ExperimentResult` whose rows hold the
regenerated numbers (and, where the paper publishes them, the reference
values), and whose formatted table is what the benchmark harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..wire import WireRecord

__all__ = ["ExperimentResult", "format_table", "format_si", "ratio"]


def format_si(value: float, unit: str = "", digits: int = 3) -> str:
    """Format a value with an SI prefix (1.23 G, 456 M, ...)."""
    if value == 0:
        return f"0 {unit}".strip()
    prefixes = [
        (1e15, "P"), (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K"),
        (1.0, ""), (1e-3, "m"), (1e-6, "u"), (1e-9, "n"),
    ]
    magnitude = abs(value)
    for scale, prefix in prefixes:
        if magnitude >= scale:
            return f"{value / scale:.{digits}g} {prefix}{unit}".strip()
    return f"{value:.{digits}g} {unit}".strip()


def ratio(measured: float, reference: float) -> float:
    """measured / reference, guarding against a zero reference."""
    if reference == 0:
        return float("inf") if measured else 1.0
    return measured / reference


def format_table(rows: list[dict[str, Any]], columns: list[str] | None = None) -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    columns = columns or list(rows[0].keys())
    rendered_rows = []
    for row in rows:
        rendered = {}
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                rendered[column] = f"{value:.4g}"
            else:
                rendered[column] = str(value)
        rendered_rows.append(rendered)
    widths = {
        column: max(len(column), *(len(r[column]) for r in rendered_rows))
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for rendered in rendered_rows:
        lines.append("  ".join(rendered[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines)


@dataclass
class ExperimentResult(WireRecord):
    """The outcome of one table/figure reproduction."""

    name: str
    description: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    columns: list[str] | None = None
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def format(self) -> str:
        lines = [f"== {self.name} ==", self.description, ""]
        lines.append(format_table(self.rows, self.columns))
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def column(self, name: str) -> list[Any]:
        """Extract one column across all rows."""
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``repro experiments --json`` output)."""
        columns = self.columns or (list(self.rows[0]) if self.rows else [])
        return {**super().to_dict(), "columns": columns}
