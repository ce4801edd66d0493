"""Randomised search for hard (oblivious) instances."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".hardening": ("InstanceSearch", "SearchOutcome", "certified_ratio"),
    ".mutators": (
        "aligned_sampler", "aligned_mutator", "general_sampler",
        "general_mutator",
    ),
})
