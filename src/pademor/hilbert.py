"""Weighted complex coefficient space over a fixed orthogonal mode basis.

Vectors are plain complex numpy arrays indexed by mode; the inner product
is given by positive diagonal weights alone, built as plain L2 (all ones)
or as the energy product ``weight_k = Re eigenvalue_k + shift``.

json_bytes is the package's one JSON writer and _finite_array its one
encoder of arrays: it checks them and views complex ones as [re, im] float
pairs, which _pairs_to_array reads back.

_is_number alone decides what a caller may pass as a number; the package
reads every point (_point, _points), scalar (_scalar) and array
(_number_array) that a caller passes through it, and through nothing else.

Every JSON object the package reads, a study config (harness.parse_config),
an approximant (pade.approximant_from_json) or a model
(modal.model_from_json), is checked by the one rule of _require, _number,
_integer and _known_keys: a failed check raises ValueError("at <path>:
<message>"), the path taken from $, the object read; a key the object does
not define is refused, and one without a default must be present.
"""

import math
import numbers
import sys

import numpy as np

from .errors import DimensionMismatch, InvalidWeights, NonFiniteValue


def _require(cond, path, message):
    if not cond:
        raise ValueError(f"at {path}: {message}")


_KINDS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex}
_ARRAYS = (list, tuple, np.ndarray)  # what _points reads as an array of points


def _is_number(value, kind=complex):
    """Whether value is Python's or NumPy's number of kind, int, float or
    complex, never a bool; for float and complex, one that a float holds."""
    if type(value) is kind:
        return True
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        return False
    return kind is int or not isinstance(value, int) or abs(value) <= sys.float_info.max


def _point(z, what):
    """z as a complex number; ValueError naming what it is and z unless z
    is a number (_is_number)."""
    if not _is_number(z):
        raise ValueError(f"{what} {z!r} is not a number")
    return complex(z)


def _scalar(value, name, kind=int, low=None):
    """value if it is a number of kind (_is_number) of at least low, if
    given; ValueError otherwise, "E = 2.5 must be an integer >= 0"."""
    if not _is_number(value, kind) or low is not None and value < low:
        noun = "an integer" if kind is int else "a real number"
        raise ValueError(f"{name} = {value!r} must be {noun}{'' if low is None else f' >= {low}'}")
    return value


def _number(value, path, positive=False):
    """A finite (if asked, positive) JSON number, as a float."""
    _require(_is_number(value, float) and math.isfinite(value), path, "must be a finite number")
    _require(value > 0 or not positive, path, "must be positive")
    return float(value)


def _integer(value, path, low=0, high=2**20):
    """A JSON integer from low to high; booleans are not integers here.  The
    bounds keep every array a study asks NumPy for below its size limit."""
    _require(_is_number(value, int) and low <= value <= high, path,
             f"must be an integer from {low} to {high}")
    return value


def _known_keys(obj, path, keys, required=()):
    """Reject obj unless it is a JSON object whose keys are among keys and
    include each of required, so that a misspelt key is not silently
    replaced by its default."""
    _require(isinstance(obj, dict), path, "must be a JSON object")
    for key in obj:
        _require(key in keys, f"{path}.{key}", "unknown key")
    for key in required:
        _require(key in obj, f"{path}.{key}", "missing key")


def _number_array(a, what, error, dtype=float, ndim=None):
    """a, a NumPy array of a numeric dtype or nested lists of numbers of
    dtype (_is_number), as an array of dtype, float or complex: an array of
    dtype as it is, with no copy, and one of a real dtype, or for complex
    of a complex one too, converted with no scan of its entries.  Raises
    error, an exception class, its message naming what, if an entry is not
    a number of dtype (a bool, a string, None, an object, a complex where
    dtype is float), the lists are ragged, or the array has not ndim axes,
    if given, and is not an empty list, the empty stack of any rank."""
    if not isinstance(a, np.ndarray) or a.dtype.kind not in ("fiu" if dtype is float else "fiuc"):
        try:  # ragged lists leave lists as entries, or raise below their first axis
            a = np.array(a, dtype=object)
            ok = all(_is_number(x, dtype) for x in a.ravel().tolist())
        except ValueError:
            ok = False
        if not ok:
            raise error(f"{what} are not an array of numbers: ragged, or an entry is not one")
    a = np.asarray(a, dtype=dtype)
    if ndim is not None and a.ndim != ndim and a.shape != (0,):
        raise error(f"{what} must be a {ndim}-d array, not shape {a.shape}")
    return a


def _points(z):
    """A point (_point) as a 0-d complex array, or a list, tuple or array of
    points (_number_array) as a complex array of its shape."""
    return (_number_array(z, "points", DimensionMismatch, complex)
            if isinstance(z, _ARRAYS) else np.array(_point(z, "point")))


class InnerProductWeights:
    """Positive diagonal weights defining the inner product."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = _number_array(weights, "weights", InvalidWeights).copy()
        if not np.isfinite(w).all():
            raise NonFiniteValue("weights have a non-finite entry")
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
            raise InvalidWeights("weights must be a non-empty positive 1-d array")
        self.weights = w

    @staticmethod
    def l2(dimension):
        return InnerProductWeights(np.ones(_scalar(dimension, "dimension")))

    @staticmethod
    def energy(eigenvalues, shift):
        if _scalar(shift, "shift", float) < 0.0:
            raise ValueError("energy shift must be nonnegative")
        lam = _number_array(eigenvalues, "eigenvalues", InvalidWeights, complex, 1)
        return InnerProductWeights(np.real(lam) + shift)


def _rescued(sums):
    """Indices of the sums of squares that overflow or fall below the
    smallest normal float: their norms are summed again, scaled."""
    return np.flatnonzero(np.isinf(sums) | (sums < np.finfo(float).tiny))


def norm(u, w):
    """V-norm of a vector, or of each row of an (n, dimension) block.

    A row of finite entries, not all zero, whose weighted sum of squares
    overflows or underflows (_rescued) is summed again scaled by its largest
    magnitude, so its norm is accurate whenever it is representable.
    """
    u = _number_array(u, "vectors", DimensionMismatch, complex)
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
        rows = _rescued(sums)
        if rows.size:
            mags = np.abs(block[rows])
            top = mags.max(axis=-1)
            keep = np.isfinite(top) & (top > 0.0)
            rows, top, mags = rows[keep], top[keep], mags[keep]
            norms[rows] = top * np.sqrt(np.sum(w.weights * (mags / top[:, None]) ** 2, axis=-1))
    return float(norms[0]) if u.ndim == 1 else norms


def _gram_schmidt(A, w, tol):
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


def _finite_array(a, what):
    """A float array, or a complex one (a complex scalar included) viewed as
    [re, im] float pairs, C-contiguous for json_bytes to write straight from
    its memory; a real scalar gives a NumPy float.  A non-finite entry,
    which JSON cannot hold, raises NonFiniteValue naming what the array is."""
    a = np.asarray(a, order="C")
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{what} has a non-finite entry")
    # a[..., None] gives the pairs an axis to take, a 0-d array included.
    return a[..., None].view(float) if np.iscomplexobj(a) else a[()]


def json_bytes(obj):
    """JSON text of obj as orjson's UTF-8 bytes: keys sorted, no spaces,
    each float in the shortest spelling that round-trips (0.00001, 1e16,
    -0.0), NumPy arrays from their memory, a non-finite float as null."""
    # Imported here: importing orjson loads uuid and zoneinfo, a cost that
    # the CSV commands, which never write JSON, need not pay.
    import orjson

    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_SORT_KEYS)


def _pairs_to_array(pairs):
    """Inverse of _finite_array on a complex array, bit for bit (signed
    zeros included), from nested lists or a float array of [re, im] pairs:
    a complex array, 0-d for a single pair.  DimensionMismatch unless the
    trailing axis holds pairs of numbers (_number_array), NonFiniteValue on a
    non-finite entry."""
    a = _finite_array(_number_array(pairs, "[re, im] pairs", DimensionMismatch),
                      "an array of [re, im] pairs")
    if a.shape[-1:] != (2,):
        raise DimensionMismatch(f"array of shape {a.shape} is not of [re, im] pairs")
    # [re, im] pairs in C order are the memory layout of complex numbers.
    return a.view(complex).reshape(a.shape[:-1])
