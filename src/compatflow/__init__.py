"""Compatibility diagnostics for wavelike initial conditions in a periodic
channel: does a given divergence-free, no-slip velocity field admit a
regular pressure at t = 0, or does the initial time derivative pick up a
divergence defect and a tangential wall residual?"""

__version__ = "0.1.0"

from .errors import (
    CompatflowError,
    ConfigurationError,
    DomainError,
    NumericalError,
    ValidationError,
)
from .spectral import ChebGrid, YProfile, cheb_grid
from .fieldops import (
    FlowParams,
    HarmonicScalar,
    WaveField,
    admissibility_violations,
    curl,
    divergence,
    eval_field,
    gradient,
    harmonic_product,
    require_admissible,
)
from .poisson import BVPSpec, solve_bvp, solve_dudt, solve_pressure
from .compat import (
    CompatReport,
    check,
    divergence_defect,
    dudt,
    forcing,
    tangential_residual,
    vorticity_rhs,
)
from .oracle import (
    example_cc_coeffs,
    example_div_coeffs,
    example_dudt,
    example_field,
    example_forcing,
    example_vorticity,
)
from .modes import ModeResult, mode_to_field, poiseuille_base, solve_orr_sommerfeld
from .search import AnsatzSpec, SearchResult, assemble, find_compatible, residual
from .fieldfile import load_field, save_field

__all__ = [
    "AnsatzSpec",
    "BVPSpec",
    "ChebGrid",
    "CompatReport",
    "CompatflowError",
    "ConfigurationError",
    "DomainError",
    "FlowParams",
    "HarmonicScalar",
    "ModeResult",
    "NumericalError",
    "SearchResult",
    "ValidationError",
    "WaveField",
    "YProfile",
    "admissibility_violations",
    "assemble",
    "cheb_grid",
    "check",
    "curl",
    "divergence",
    "divergence_defect",
    "dudt",
    "eval_field",
    "example_cc_coeffs",
    "example_div_coeffs",
    "example_dudt",
    "example_field",
    "example_forcing",
    "example_vorticity",
    "find_compatible",
    "forcing",
    "gradient",
    "harmonic_product",
    "load_field",
    "mode_to_field",
    "poiseuille_base",
    "require_admissible",
    "residual",
    "save_field",
    "solve_bvp",
    "solve_dudt",
    "solve_orr_sommerfeld",
    "solve_pressure",
    "tangential_residual",
    "vorticity_rhs",
    "__version__",
]
