"""Run-statistics aggregation and plain-text reporting."""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".collectors": ("RunAggregate",),
        ".report": ("format_table", "format_histogram", "format_series"),
    },
)
