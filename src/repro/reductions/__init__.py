"""Input reductions (Sections 3 and 5)."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".alignment": (
        "align_departures", "assert_aligned", "is_aligned",
        "partition_aligned",
    ),
})
