"""ASCII visualisation and paper-figure regeneration."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".ascii": (
        "render_instance", "render_packing", "render_rows", "timeline_scale",
    ),
    ".figures": ("figure1", "figure2", "figure3"),
    ".plots": ("ascii_chart",),
})
