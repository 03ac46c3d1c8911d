"""Weighted complex coefficient space over a fixed orthogonal mode basis.

Vectors are plain complex numpy arrays indexed by mode; the inner product
is given by positive diagonal weights alone, built as plain L2 (all ones)
or as the energy product ``weight_k = Re eigenvalue_k + shift``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


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


def pairs_to_array(pairs):
    """Inverse of complex_to_pair, bit for bit (signed zeros included): a
    complex array, 0-d for a single [re, im] pair."""
    a = np.array(pairs, dtype=float)
    # [re, im] pairs in C order are the memory layout of complex numbers.
    return a.view(complex).reshape(a.shape[:-1])


def complex_to_text(z):
    """CSV form of a complex scalar: 're±imj'."""
    z = complex(z)
    return format(z.real, ".17g") + format(z.imag, "+.17g") + "j"
