"""Spinor structures on a ring: dispersion splitting and its cross-checks.

A circle factor with nontrivial fundamental group carries two inequivalent
spinor structures.  This package represents the winding angle field that
relates them, the energy splitting it induces between the two shifted
dispersion branches, the unimodular half-angle map carrying sections of one
structure to the other, a twisted-boundary spectral oracle that checks the
closed formulas against dense diagonalization, and the small composition
tables governing how structure-preference labels combine.

The modules are the API: import each name from the module that defines it.
"""

__version__ = "0.1.0"
