"""Exception hierarchy shared by all subpackages."""


class PadeError(Exception):
    """Base class for numerical failures in this package."""


class ConfigError(Exception):
    """Invalid study configuration (CLI exit code 2)."""


# numerics
class NonHermitianInput(PadeError):
    pass


class NoConvergence(PadeError):
    pass


class DegenerateLeadingCoefficient(PadeError):
    pass


# hilbert
class DimensionMismatch(PadeError):
    pass


class NonFiniteValue(PadeError):
    pass


class InvalidWeights(PadeError, ValueError):  # still a ValueError to callers that catch one
    pass


# modal
class DuplicatePoles(PadeError):
    pass


class LengthMismatch(PadeError):
    pass


class PoleEvaluation(PadeError):
    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class CenterOnPole(PadeError):
    pass


class EigenvalueTooLarge(PadeError):
    pass


class QuadratureNotConverged(PadeError):
    pass


# poly
class ZeroPolynomial(PadeError):
    pass


class NotNormalized(PadeError):
    pass


class ConstantPolynomial(PadeError):
    pass


# pade
class InsufficientTaylorLength(PadeError):
    pass


class RhoOverflow(PadeError):
    pass

