"""Benchmark support: statistics and table rendering."""

from repro._lazy import exports

_EXPORTS = {
    "PAPER_FIG4": ".figures",
    "print_table": ".figures",
    "render_table": ".figures",
    "percentile": ".stats",
    "ratio": ".stats",
    "sample_summary": ".stats",
    "summarize": ".stats",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = exports(__name__, _EXPORTS)
