"""Weighted complex coefficient space over a fixed orthogonal mode basis.

Vectors are plain complex numpy arrays indexed by mode; the inner product
carries positive diagonal weights (either plain L2 or the energy product
``weight_k = eigenvalue_k + shift``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class InnerProductWeights:
    """Positive diagonal weights defining the inner product."""

    weights: np.ndarray
    kind: str = "l2"  # "l2" or "energy"
    shift: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0 or np.any(w <= 0.0):
            raise ValueError("weights must be a non-empty positive 1-d array")
        object.__setattr__(self, "weights", w)
        if self.kind not in ("l2", "energy"):
            raise ValueError(f"unknown weight kind {self.kind!r}")

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
        return InnerProductWeights(lam + shift, kind="energy", shift=float(shift))


def _check_dims(w, *vectors, ndims=(1,)):
    for v in vectors:
        if v.ndim not in ndims or v.shape[-1] != w.dimension:
            raise DimensionMismatch(
                f"vector of shape {v.shape} incompatible with {w.dimension} weights"
            )


def inner_product(u, v, w):
    """<u, v> = sum_k w_k u_k conj(v_k); conjugate-linear in v."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    _check_dims(w, u, v)
    return complex(np.sum(w.weights * u * np.conj(v)))


def norm(u, w):
    """V-norm of a vector, or of each row of an (n, dimension) block."""
    u = np.asarray(u, dtype=complex)
    _check_dims(w, u, ndims=(1, 2))
    norms = np.sqrt(np.sum(w.weights * np.abs(u) ** 2, axis=-1))
    return float(norms) if u.ndim == 1 else norms


def complex_to_pair(z):
    """JSON form of a complex scalar: [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair):
    return complex(pair[0], pair[1])


def complex_to_text(z):
    """CSV form of a complex scalar: 're±imj'."""
    z = complex(z)
    return format(z.real, ".17g") + format(z.imag, "+.17g") + "j"
