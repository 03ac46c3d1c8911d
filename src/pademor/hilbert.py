"""Weighted complex coefficient space over a fixed orthogonal mode basis.

Vectors are plain complex numpy arrays indexed by mode; the inner product
is given by positive diagonal weights alone, built as plain L2 (all ones)
or as the energy product ``weight_k = Re eigenvalue_k + shift``.

json_text is the package's one JSON writer; finite_array checks the arrays
it writes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue


@dataclass(frozen=True)
class InnerProductWeights:
    """Positive diagonal weights defining the inner product."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
            raise ValueError("weights must be a non-empty positive 1-d array")
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self):
        return self.weights.size

    @staticmethod
    def l2(dimension):
        return InnerProductWeights(np.ones(dimension))

    @staticmethod
    def energy(eigenvalues, shift):
        if shift < 0.0:
            raise ValueError("energy shift must be nonnegative")
        lam = np.real(np.asarray(eigenvalues, dtype=complex))
        return InnerProductWeights(lam + shift)


def _check_dims(w, *vectors, ndims=(1,)):
    for v in vectors:
        if v.ndim not in ndims or v.shape[-1] != w.dimension:
            raise DimensionMismatch(
                f"vector of shape {v.shape} incompatible with {w.dimension} weights"
            )


def norm(u, w):
    """V-norm of a vector, or of each row of an (n, dimension) block.

    A row of finite entries whose weighted sum of squares overflows is
    summed again scaled by its largest magnitude, so its norm is finite
    whenever it is representable.
    """
    u = np.asarray(u, dtype=complex)
    _check_dims(w, u, ndims=(1, 2))
    mags = np.abs(np.atleast_2d(u))
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(w.weights * mags**2, axis=-1))
    over = np.isinf(norms)
    if over.any():
        over &= np.isfinite(mags).all(axis=-1)
        top = mags[over].max(axis=-1, keepdims=True)
        scaled = np.sum(w.weights * (mags[over] / top) ** 2, axis=-1)
        norms[over] = top[:, 0] * np.sqrt(scaled)
    return float(norms[0]) if u.ndim == 1 else norms


def complex_to_pair(z):
    """JSON form of a complex scalar or array: [re, im] in place of each
    entry, as nested lists of floats."""
    z = np.asarray(z, dtype=complex)
    return np.stack((z.real, z.imag), -1).tolist()


def finite_array(a, what):
    """A float array, or a complex one viewed as [re, im] float pairs as
    complex_to_pair gives them, C-contiguous for json_text to write
    straight from its memory.  A non-finite entry, which JSON cannot hold,
    raises NonFiniteValue naming what the array is."""
    a = np.ascontiguousarray(a)
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{what} has a non-finite entry")
    return a.view(float).reshape(a.shape + (2,)) if np.iscomplexobj(a) else a


def json_text(obj):
    """JSON text of obj, keys sorted, no spaces, each float in the shortest
    spelling that round-trips (0.00001, 1e16, -0.0), NumPy arrays written
    from their memory, a non-finite float as null."""
    # Imported here: importing orjson loads uuid and zoneinfo, a cost that
    # the CSV commands, which never write JSON, need not pay.
    import orjson

    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS
    return orjson.dumps(obj, option=option).decode()


def pairs_to_array(pairs):
    """Inverse of complex_to_pair, bit for bit (signed zeros included): a
    complex array, 0-d for a single [re, im] pair."""
    a = np.array(pairs, dtype=float)
    # [re, im] pairs in C order are the memory layout of complex numbers.
    return a.view(complex).reshape(a.shape[:-1])


def complex_to_text(z):
    """CSV form of a complex scalar: 're±imj'."""
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)
