"""Least-squares Pade approximation of meromorphic resolvent maps.

The public surface is two sets of names: those README.md writes as
`module.name`, and those the benchmark's tracer wraps by name (TRACED in
perfbench/tracer.py), with the exception classes of errors.  Every other
module-level function and class is _-prefixed (tests/test_public_surface.py
checks both).  The package imports its modules and re-exports none of their
names: the tracer patches module namespaces, and a second binding of a
function would escape it.
"""

from . import errors, harness, hilbert, modal, numerics, pade, poly

__all__ = ["errors", "harness", "hilbert", "modal", "numerics", "pade", "poly"]
__version__ = "0.1.0"
