"""Experiment harnesses: one module per table/figure of the paper."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".": (
        "ablations",
        "fig2",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "motivation",
        "table1",
        "table2",
        "table3",
    ),
    ".common": ("ExperimentResult", "format_si", "format_table", "ratio"),
    ".runner": ("EXPERIMENTS", "run_all"),
})

__all__ = [
    "ExperimentResult",
    "format_table",
    "format_si",
    "ratio",
    "motivation",
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "EXPERIMENTS",
    "run_all",
]
