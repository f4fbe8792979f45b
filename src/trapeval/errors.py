"""Exception types raised by trapeval.

Every condition the library treats as a defined error raises a subclass of
TrapevalError, so callers can distinguish "bad input / bad state" from bugs.
"""


class TrapevalError(Exception):
    """Base class for all defined errors raised by this package."""


class DegenerateHullError(TrapevalError):
    """The enclosing hull of a box pair has no extent where one is required."""


class DegenerateBoxError(TrapevalError):
    """A box is too small for the operation: a zero height where it needs a
    ratio, or a size whose square underflows to zero where it divides by it."""


class DivergedError(TrapevalError):
    """A descent trajectory produced non-finite values."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(f"trajectory diverged at iteration {iteration}")


class CategoryError(TrapevalError):
    """A detection or annotation references a category outside the configured set."""


class EvalError(TrapevalError):
    """Evaluation is undefined for the given inputs (e.g. AP with no ground truth)."""


class GraphError(TrapevalError):
    """Graph construction or traversal failed (unknown layer, bad ancestry)."""


class ShapeError(TrapevalError):
    """Tensor or layer shapes are inconsistent; message names the offending layer."""


class FormatError(TrapevalError):
    """A file (PPM, JSON annotations, CSV, graph text) is malformed."""


class ConfigError(TrapevalError, ValueError):
    """A numeric setting or argument lies outside its valid range."""


class SplitError(TrapevalError):
    """The dataset split protocol cannot be applied or its invariants failed."""
