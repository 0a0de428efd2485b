"""Alpha-permanental random vectors with M-matrix kernels.

A library and CLI for computing, sampling and verifying alpha-permanental
random vectors whose kernel inverse is a nonsingular M-matrix, and for
numerically probing unboundedness criteria of the associated processes,
including kernels built from Levy-process potential densities.
"""

from . import bounds, gamma_tails, levy, linalg, markov, model, sampler
from .errors import (
    AsymmetryTooLarge,
    DegenerateSigma,
    DimensionTooLarge,
    HypothesisFailed,
    NotConstantDiagonal,
    NotIntegrable,
    NotMMatrix,
    NotSymmetric,
    NotTransient,
    OutOfRange,
    PermanentalError,
    PreconditionViolated,
    SingularMatrix,
    TruncationInfeasible,
)
from .linalg import MMatrixPair, alpha_permanent, validate_m_matrix
from .model import (PermanentalSpec, ZDistribution, direct_laplace, series_laplace_report,
                    z_masses)
from .sampler import RngStream

__version__ = "0.1.0"
