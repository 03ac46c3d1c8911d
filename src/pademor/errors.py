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


def settled(outcomes):
    """The results of a stack of problems solved together, each failed one
    recorded in place as the PadeError it raised: raises the first such
    error, as solving the problems one by one in order would."""
    for item in outcomes:
        if isinstance(item, PadeError):
            raise item
    return outcomes


def stacks(outcomes, key=len):
    """{key(outcome): indices} of the outcomes that are not a PadeError,
    each list of indices in order: the stacks that one array pass solves
    together, whose failures settled then raises in order."""
    found = {}
    for i, item in enumerate(outcomes):
        if not isinstance(item, PadeError):
            found.setdefault(key(item), []).append(i)
    return found


def solved(outcomes):
    """The outcomes that are not a PadeError, in order: the items that the
    next pass over a stack takes further."""
    return [x for x in outcomes if not isinstance(x, PadeError)]


def placed(outcomes, results):
    """outcomes with each one that is not a PadeError replaced by the next
    of results, in order: a pass's results put back among the failures
    recorded before it."""
    results = iter(results)
    return [x if isinstance(x, PadeError) else next(results) for x in outcomes]
