"""Exception hierarchy shared by all subpackages, and the pure-Python
groupings that decide several of their failures (stacks, close_pairs),
compiled before NumPy loads."""


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


def stacks(items, key=len):
    """{key(item): indices} of items, each list of indices in order: the
    stacks that one array pass solves together."""
    found = {}
    for i, item in enumerate(items):
        found.setdefault(key(item), []).append(i)
    return found


def close_pairs(points, tol):
    """The pairs (i, j), i < j, of the complex points within tol of each
    other by Python's abs, each pair compared once."""
    return [(i, j) for j in range(len(points)) for i in range(j)
            if abs(points[i] - points[j]) <= tol]
