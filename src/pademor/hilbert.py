"""Weighted complex coefficient space over a fixed orthogonal mode basis.

Vectors are plain complex numpy arrays indexed by mode; the inner product
is given by positive diagonal weights alone, built as plain L2 (all ones)
or as the energy product ``weight_k = Re eigenvalue_k + shift``.

json_text is the package's one JSON writer and finite_array its one
encoder of arrays: it checks them and views complex ones as [re, im] float
pairs, which pairs_to_array reads back.
"""

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue


class InnerProductWeights:
    """Positive diagonal weights defining the inner product."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
            raise ValueError("weights must be a non-empty positive 1-d array")
        self.weights = w

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

    A row of finite entries, not all zero, whose weighted sum of squares
    overflows or falls below the smallest normal float is summed again
    scaled by its largest magnitude, so its norm is accurate whenever it is
    representable.
    """
    u = np.asarray(u, dtype=complex)
    _check_dims(w, u, ndims=(1, 2))
    mags = np.abs(np.atleast_2d(u))
    with np.errstate(over="ignore", under="ignore"):
        sums = np.sum(w.weights * mags**2, axis=-1)
        norms = np.sqrt(sums)
        rows = np.flatnonzero(np.isinf(sums) | (sums < np.finfo(float).tiny))
        if rows.size:
            top = mags[rows].max(axis=-1)
            keep = np.isfinite(top) & (top > 0.0)
            rows, top = rows[keep], top[keep]
            scaled = np.sum(w.weights * (mags[rows] / top[:, None]) ** 2, axis=-1)
            norms[rows] = top * np.sqrt(scaled)
    return float(norms[0]) if u.ndim == 1 else norms


def finite_array(a, what):
    """A float array, or a complex one (a complex scalar included) viewed as
    [re, im] float pairs, C-contiguous for json_text to write straight from
    its memory; a real scalar gives a NumPy float.  A non-finite entry,
    which JSON cannot hold, raises NonFiniteValue naming what the array is."""
    a = np.asarray(a, order="C")
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{what} has a non-finite entry")
    # a[..., None] gives the pairs an axis to take, a 0-d array included.
    return a[..., None].view(float) if np.iscomplexobj(a) else a[()]


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
    """Inverse of finite_array on a complex array, bit for bit (signed
    zeros included), from nested lists or a float array of [re, im] pairs:
    a complex array, 0-d for a single pair."""
    a = np.array(pairs, dtype=float)
    # [re, im] pairs in C order are the memory layout of complex numbers.
    return a.view(complex).reshape(a.shape[:-1])
