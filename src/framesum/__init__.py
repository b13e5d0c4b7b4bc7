"""Frame bounds for finite frames and sums of frames, window-based bound
estimates for lattice systems, and the width-driven reconstruction algorithm.

The package splits into five layers:

* :mod:`framesum.linalg` -- the complex Hermitian eigensolver (LAPACK
  ``eigh``), extreme singular values (LAPACK SVD), positive-definite solves;
* :mod:`framesum.frames` -- finite frames, spectral (optimal) bounds, widths,
  and the exact check of a dual pair;
* :mod:`framesum.sums` -- sufficiency conditions and predicted bounds for the
  four combination rules, plus certification against the spectral oracle;
* :mod:`framesum.gabor` -- piecewise windows, painless-case exact bounds,
  grid estimates, and the group-to-lattice parameter map;
* :mod:`framesum.algorithm` -- the relaxed reconstruction iteration with its
  geometric convergence envelope.

The ``framesum`` command line (see :mod:`framesum.cli`) orchestrates the
pipeline bounds -> predict -> build -> certify -> iterate over JSON
experiment files and ships a bundle of reference fixtures.
"""

from .errors import (
    AlignmentMismatchError,
    CountMismatchError,
    DegenerateLatticeError,
    DimensionMismatchError,
    EmptySupportError,
    FrameToolkitError,
    InvalidBoundsError,
    InvalidBoundsForFrameError,
    NoConvergenceError,
    NonPositiveLowerBoundError,
    NotAFrameError,
    NotHermitianError,
    NumericRangeError,
    SingularOperatorError,
    SpecParseError,
    SpecSchemaError,
    ZeroCoefficientError,
)
from .linalg import EigenResult, extreme_singular_values, hermitian_eig, solve_hpd
from .frames import (
    DualCheck,
    FiniteFrame,
    FrameBounds,
    FrameCertificate,
    exact_bounds,
    frame_operator,
    random_unit_vector,
    verify_dual,
    width,
)
from .sums import (
    CertificationReport,
    PredictedBounds,
    ScalarEnvelope,
    build_operator_sum_frame,
    build_perturbed_sum_frame,
    build_sum_frame,
    certify,
    dual_sum_predict,
    finite_sum_best_pivot,
    finite_sum_predict,
    operator_sum_predict,
    perturbed_sum_predict,
)
from .gabor import (
    GaborBoundEstimate,
    LatticeParams,
    Piece,
    PiecewiseGenerator,
    Translates,
    WHParams,
    estimate_bounds,
    evaluate_translates,
    overlap_vanishes,
    shift_overlap_sum,
    translate_energy,
    wh_to_gabor,
)
from .algorithm import (
    AlgoConfig,
    ComparisonTable,
    RunSeries,
    WidthEntry,
    compare_runs,
    format_width,
    run,
    width_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
