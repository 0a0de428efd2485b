"""Exception types shared across the package.

Every failure that reflects bad input or an unsatisfied mathematical
hypothesis derives from :class:`PermanentalError`; the CLI maps these to
exit status 2 and anything else to 1.
"""

from __future__ import annotations


class PermanentalError(Exception):
    """Base class for validation and hypothesis failures."""


class SingularMatrix(PermanentalError):
    """Matrix is exactly singular or its condition number exceeds the invert threshold."""


class NotMMatrix(PermanentalError):
    """Matrix failed nonsingular M-matrix validation."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class DimensionTooLarge(PermanentalError):
    """Requested exact computation exceeds the hard size cap."""


class TruncationInfeasible(PermanentalError):
    """A series truncation is uncertifiable or a loop-soup draw too long (Perron root near 1)."""


class PreconditionViolated(PermanentalError):
    """A stated precondition fails; ``which`` names the offending bound."""

    def __init__(self, which: str, message: str = ""):
        super().__init__(message or which)
        self.which = which


class HypothesisFailed(PermanentalError):
    """A lemma hypothesis fails; ``row`` locates the violation."""

    def __init__(self, row: int, message: str = ""):
        super().__init__(message or f"hypothesis fails at row {row}")
        self.row = row


class AsymmetryTooLarge(PermanentalError):
    """Kernel asymmetry exceeds the admissible constant; reports the minimum feasible C."""

    def __init__(self, min_feasible_c: float):
        super().__init__(
            f"asymmetry condition needs C >= {min_feasible_c:.6g}, but C < 1 is required"
        )
        self.min_feasible_c = min_feasible_c


class NotConstantDiagonal(PermanentalError):
    """Kernel diagonal is not constant where the bound requires it."""


class DegenerateSigma(PermanentalError):
    """sigma^2 vanishes for a pair with nonzero asymmetry."""


class NotSymmetric(PermanentalError):
    """Operation defined only for symmetric kernels."""


class NotTransient(PermanentalError):
    """Substochastic matrix fails the transience (spectral radius) test."""


class NotIntegrable(PermanentalError):
    """Certified spectral tail diverges."""


class OutOfRange(PermanentalError):
    """Parameters outside the admissible range of the model family."""
