"""Exception types shared across the package."""

from __future__ import annotations


class QuermassError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(QuermassError):
    """Invalid configuration, e.g. an unsupported (dimension, method) pairing."""


class DomainError(QuermassError, ValueError):
    """A parameter lies outside the documented domain of an operation."""


class EvaluationError(QuermassError):
    """A field, or a support jet and its Q[h], is non-finite at some node."""

    def __init__(self, message: str, node_index: int | None = None, point=None):
        super().__init__(message)
        self.node_index = node_index
        self.point = point


class UnsupportedBodyError(QuermassError):
    """Operation requires a smooth body (twice-differentiable support function)."""


class PathValidityError(QuermassError):
    """The support function along a perturbation path left the smooth convex cone."""

    def __init__(self, message: str, s: float | None = None, node_index: int | None = None):
        super().__init__(message)
        self.s = s
        self.node_index = node_index


class WulffUnboundedError(QuermassError):
    """The outer polyhedral approximation of a Wulff shape is unbounded.

    Raised when the sampled constraint directions fail to positively span
    the ambient space; refining the grid resolves this for genuine bodies.
    """


class NumericalError(QuermassError):
    """An internal numerical routine failed to converge or lost feasibility."""
