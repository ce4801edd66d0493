"""Adaptive adversaries: the paper's lower bound and the cited Ω(μ) one."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("AdaptiveAdversary", "AdversaryOutcome", "realized_instance"),
    ".nonclairvoyant": ("NonClairvoyantAdversary",),
    ".sqrt_log": ("SqrtLogAdversary",),
})
