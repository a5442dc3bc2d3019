"""Fowler periodic orbits, Floquet spectra, index sets, expansion terms and
mode-truncated cylinder constructions for singular solutions of conformal
scalar curvature and CKN-type equations."""

from .fowler import (FowlerOrbit, FowlerParams, constant_orbit,
                     constant_solution, hamiltonian, max_value,
                     period_quadrature, periodic_orbit)
from .floquet import (FloquetDatum, ModeOperator, classify, exponent_sequence,
                      kernel_basis, lower_bound_check, mode_datum, monodromy,
                      spectrum)
from .index_set import IndexSet, degree_caps, generate, split
from .expansion import (ExpansionTerm, ResonantSolveError, first_order_term,
                        solve_resonant_mode, translate_expansion,
                        translate_zonal)
from .cylinder import (CylinderField, ForcingProfile, ckn_construct,
                       contraction_construct, decay_rate_fit, residual_M,
                       residual_N)
from .acceptance import remark_example_check
from .spheres import HarmonicMode, eigenvalue, eval_zonal, multiplicity

__version__ = "0.1.0"

__all__ = [
    "FowlerOrbit", "FowlerParams", "constant_orbit", "constant_solution",
    "hamiltonian", "max_value", "period_quadrature", "periodic_orbit",
    "FloquetDatum", "ModeOperator", "classify", "exponent_sequence",
    "kernel_basis", "lower_bound_check", "mode_datum", "monodromy", "spectrum",
    "IndexSet", "degree_caps", "generate", "split",
    "ExpansionTerm", "ResonantSolveError", "first_order_term",
    "solve_resonant_mode", "translate_expansion", "translate_zonal",
    "CylinderField", "ForcingProfile", "ckn_construct",
    "contraction_construct", "decay_rate_fit",
    "remark_example_check", "residual_M", "residual_N",
    "HarmonicMode", "eigenvalue", "eval_zonal", "multiplicity",
]
