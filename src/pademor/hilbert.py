"""Weighted complex coefficient space over a fixed orthogonal mode basis.

Vectors are plain complex numpy arrays indexed by mode; the inner product
is given by positive diagonal weights alone, built as plain L2 (all ones)
or as the energy product ``weight_k = Re eigenvalue_k + shift``.

json_text is the package's one JSON writer and finite_array its one
encoder of arrays: it checks them and views complex ones as [re, im] float
pairs, which pairs_to_array reads back.
"""

import numpy as np

from .errors import DimensionMismatch, InvalidWeights, NonFiniteValue


class InnerProductWeights:
    """Positive diagonal weights defining the inner product."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if not np.isfinite(w).all():
            raise NonFiniteValue("weights have a non-finite entry")
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
            raise InvalidWeights("weights must be a non-empty positive 1-d array")
        self.weights = w

    @staticmethod
    def l2(dimension):
        return InnerProductWeights(np.ones(dimension))

    @staticmethod
    def energy(eigenvalues, shift):
        if shift < 0.0:
            raise ValueError("energy shift must be nonnegative")
        return InnerProductWeights(np.real(np.asarray(eigenvalues, dtype=complex)) + shift)


def rescued(sums):
    """Indices of the sums of squares that overflow or fall below the
    smallest normal float: their norms are summed again, scaled."""
    return np.flatnonzero(np.isinf(sums) | (sums < np.finfo(float).tiny))


def norm(u, w):
    """V-norm of a vector, or of each row of an (n, dimension) block.

    A row of finite entries, not all zero, whose weighted sum of squares
    overflows or underflows (rescued) is summed again scaled by its largest
    magnitude, so its norm is accurate whenever it is representable.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim not in (1, 2) or u.shape[-1] != w.weights.size:
        raise DimensionMismatch(f"vector of shape {u.shape} incompatible with "
                                f"{w.weights.size} weights")
    block = np.atleast_2d(u)
    sq = np.abs(block)
    with np.errstate(over="ignore", under="ignore"):
        sq **= 2  # squared and weighted in place: one real array of the block's shape
        sq *= w.weights
        sums = sq.sum(axis=-1)
        norms = np.sqrt(sums)
        rows = rescued(sums)
        if rows.size:
            mags = np.abs(block[rows])
            top = mags.max(axis=-1)
            keep = np.isfinite(top) & (top > 0.0)
            rows, top, mags = rows[keep], top[keep], mags[keep]
            norms[rows] = top * np.sqrt(np.sum(w.weights * (mags / top[:, None]) ** 2, axis=-1))
    return float(norms[0]) if u.ndim == 1 else norms


def gram_schmidt(A, w, tol):
    """The R factors of a weighted QR of each (dim, ncols) quasimatrix of a
    (B, dim, ncols) stack: modified Gram-Schmidt with one reorthogonalization
    pass under <u, v> = sum_k w_k u_k conj(v_k), on every quasimatrix at
    once, each with the float operations it takes alone.  Each diagonal is
    real and nonnegative (a sum of w_k |v_k|^2 is), R[b, 0, 0] the first
    column norm.  A pivot at or below tol times that norm leaves a zero
    basis vector, onto which later projections vanish.  The basis vectors
    and their conjugates are kept as rows, Q[j] and Qc[j] for every window.
    """
    B, dim, ncols = A.shape
    Q, Qc = np.zeros((2, ncols, B, dim), dtype=complex)
    R = np.zeros((B, ncols, ncols), dtype=complex)
    for j in range(ncols):
        v = A[:, :, j].copy()
        for _ in range(2):
            for i in range(j):
                c = np.add.reduce(w.weights * v * Qc[i], axis=-1)
                R[:, i, j] += c
                v = v - c[:, None] * Q[i]
        R[:, j, j] = rjj = np.sqrt(np.add.reduce(w.weights * v * v.conj(), axis=-1).real)
        keep = rjj > tol * np.maximum(R[:, 0, 0].real, 1e-300)
        Q[j, keep] = v[keep] / rjj[keep, None]
        Qc[j, keep] = Q[j, keep].conj()
    return R


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

    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS).decode()


def pairs_to_array(pairs):
    """Inverse of finite_array on a complex array, bit for bit (signed
    zeros included), from nested lists or a float array of [re, im] pairs:
    a complex array, 0-d for a single pair.  DimensionMismatch unless the
    trailing axis holds pairs (lists of unequal lengths included),
    NonFiniteValue on a non-finite entry."""
    try:
        a = finite_array(np.array(pairs, dtype=float), "an array of [re, im] pairs")
    except ValueError as exc:  # lists of unequal lengths: a ragged array
        raise DimensionMismatch(f"not an array of [re, im] pairs: {exc}") from None
    if a.shape[-1:] != (2,):
        raise DimensionMismatch(f"array of shape {a.shape} is not of [re, im] pairs")
    # [re, im] pairs in C order are the memory layout of complex numbers.
    return a.view(complex).reshape(a.shape[:-1])
