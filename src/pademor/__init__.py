"""Least-squares Pade approximation of meromorphic resolvent maps."""

from . import errors, harness, hilbert, modal, numerics, pade, poly

__all__ = ["errors", "harness", "hilbert", "modal", "numerics", "pade", "poly"]
__version__ = "0.1.0"
