"""Spinor structures on a ring: dispersion splitting and its cross-checks.

A circle factor with nontrivial fundamental group carries two inequivalent
spinor structures.  This package represents the winding angle field that
relates them, the energy splitting it induces between the two shifted
dispersion branches, the unimodular half-angle map carrying sections of one
structure to the other, a twisted-boundary spectral oracle that checks the
closed formulas against dense diagonalization, and the small composition
tables governing how structure-preference labels combine.
"""

from .chains import (
    ChainEvent,
    ChainStep,
    PreferenceContext,
    build_context,
    run_chain,
    select_table,
)
from .dispersion import (
    Branch,
    BranchEnergies,
    Preference,
    Structure,
    branch_energies,
    default_degeneracy_tol,
    preferred_branch,
)
from .errors import DomainError
from .lattice import (
    RingSpec,
    Spectrum,
    dirac_ring_spectrum,
    ring_spectrum,
)
from .magma import FiniteMagma, StructureReport, analyze, builtin, compose
from .sections import (
    HalfWindingPhase,
    SampledSection,
    commutation_residual,
    density_residual,
    half_phase,
    intertwining_residual,
    to_exotic,
    to_standard,
)
from .winding import (
    ThetaField,
    WindingGradient,
    build_theta,
    gradient_field,
    involute,
    involuted,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchEnergies",
    "ChainEvent",
    "ChainStep",
    "DomainError",
    "FiniteMagma",
    "HalfWindingPhase",
    "Preference",
    "PreferenceContext",
    "RingSpec",
    "SampledSection",
    "Spectrum",
    "Structure",
    "StructureReport",
    "ThetaField",
    "WindingGradient",
    "analyze",
    "branch_energies",
    "build_context",
    "build_theta",
    "builtin",
    "commutation_residual",
    "compose",
    "default_degeneracy_tol",
    "density_residual",
    "dirac_ring_spectrum",
    "gradient_field",
    "half_phase",
    "intertwining_residual",
    "involute",
    "involuted",
    "preferred_branch",
    "ring_spectrum",
    "run_chain",
    "select_table",
    "to_exotic",
    "to_standard",
]
