"""Exception hierarchy shared by every framesum module.

All toolkit errors derive from :class:`FrameToolkitError`, so callers can
catch one base class at pipeline boundaries while tests assert on the
specific subclass.  A subclass names a kind of fault, not the function that
found it: every size that does not line up, whether of a vector, a matrix or
a family of summed frames, is a :class:`DimensionMismatchError`.

Malformed library input raises a subclass, not numpy's or ``float``'s bare
``ValueError`` or ``TypeError``.  A real is a finite ``numbers.Real`` but not
a ``bool`` (``linalg.as_real``), and text is never parsed.  An array that is not
finite, nonempty and of the expected rank (``linalg.as_carray``), ragged, text
or non-numeric included, is a :class:`DimensionMismatchError`, and so is a pivot
that is not an integer; a bound pair or a range ``(m, ||T||)`` that is not two
reals, an :class:`InvalidBoundsError`; lattice or group parameters that are not
reals, a :class:`DegenerateLatticeError`.  ``ValueError`` stays where documented:
``algorithm.run``'s iteration cap and tolerance, and ``gabor``'s window pieces.
"""


class FrameToolkitError(Exception):
    """Base class for every error raised by this package."""


class NoConvergenceError(FrameToolkitError):
    """The LAPACK eigensolver reported that it did not converge."""


class SingularOperatorError(FrameToolkitError):
    """Positive-definite solve requested for a numerically singular matrix."""


class DimensionMismatchError(FrameToolkitError):
    """Sizes do not line up: a vector or matrix dimension, or the vector or
    coefficient count of frames that are summed or paired entry by entry."""


class NotAFrameError(FrameToolkitError):
    """Vector family does not span: smallest frame-operator eigenvalue is zero."""


class InvalidBoundsError(FrameToolkitError):
    """Bound pair violates 0 < lower <= upper (or is not finite)."""


class ZeroCoefficientError(FrameToolkitError):
    """Weighted-sum coefficients must all be nonzero."""


class NonPositiveLowerBoundError(FrameToolkitError):
    """Window estimate produced a non-positive lower bound; no frame conclusion."""


class EmptySupportError(FrameToolkitError):
    """Piecewise generator has no support."""


class DegenerateLatticeError(FrameToolkitError):
    """Group parameters collapse the time-frequency lattice."""


class InvalidBoundsForFrameError(FrameToolkitError):
    """Bound pair handed to the reconstruction algorithm is not valid for the frame."""


class NumericRangeError(FrameToolkitError):
    """A computation overflowed the floating-point range."""


class SpecParseError(FrameToolkitError):
    """Experiment file is not syntactically valid JSON."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SpecSchemaError(FrameToolkitError):
    """Experiment file parsed but violates the experiment schema."""

    def __init__(self, message, field=None):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
