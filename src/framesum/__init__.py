"""Frame bounds for finite frames and sums of frames, window-based bound
estimates for lattice systems, and the width-driven reconstruction algorithm.

The package splits into five layers:

* :mod:`framesum.linalg` -- LAPACK ``eigh`` for exactly Hermitian matrices,
  extreme singular values (LAPACK SVD), positive-definite solves;
* :mod:`framesum.frames` -- finite frames, bound pairs with their widths and
  tightness flags, spectral (optimal) bounds, the exact check of a dual pair;
* :mod:`framesum.sums` -- sufficiency conditions and predicted bounds for the
  four combination rules, the summed families, and certification against the
  spectral oracle;
* :mod:`framesum.gabor` -- piecewise windows, painless-case exact bounds,
  grid estimates, and the group-to-lattice parameter map;
* :mod:`framesum.algorithm` -- the relaxed reconstruction iteration with its
  geometric convergence envelope, and the table that aligns several runs.

The ``framesum`` command line (see :mod:`framesum.cli`) orchestrates the
pipeline bounds -> predict -> build -> certify -> iterate over JSON
experiment files and ships a bundle of reference fixtures.
"""

from .errors import (
    DegenerateLatticeError,
    DimensionMismatchError,
    EmptySupportError,
    FrameToolkitError,
    InvalidBoundsError,
    InvalidBoundsForFrameError,
    NoConvergenceError,
    NonPositiveLowerBoundError,
    NotAFrameError,
    NumericRangeError,
    SpecParseError,
    SpecSchemaError,
    ZeroCoefficientError,
)
from .linalg import extreme_singular_values
from .frames import (
    DualCheck,
    FiniteFrame,
    FrameBounds,
    exact_bounds,
    verify_dual,
)
from .sums import (
    CertificationReport,
    PredictedBounds,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    certify,
    dual_sum_predict,
    finite_sum_best_pivot,
    finite_sum_predict,
    modulus_range,
    operator_sum_predict,
    perturbed_sum_predict,
)
from .gabor import (
    GaborBoundEstimate,
    LatticeParams,
    Piece,
    PiecewiseGenerator,
    WHParams,
    estimate_bounds,
    wh_to_gabor,
)
from .algorithm import (
    ComparisonTable,
    RunSeries,
    format_width,
    run,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
