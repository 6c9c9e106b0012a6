"""Compatibility diagnostics for wavelike initial conditions in a periodic
channel: does a given divergence-free, no-slip velocity field admit a
regular pressure at t = 0, or does the initial time derivative pick up a
divergence defect and a tangential wall residual?"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule it lives in. The package imports a
# submodule the first time one of its names is read (PEP 562), so
# ``import compatflow`` loads no computing code and a command pays only
# for the modules it uses. Nothing is cached here: ``compatflow.X`` is
# always the current ``compatflow.<module>.X``.
_HOMES = {
    "errors": ("CompatflowError", "ConfigurationError", "DomainError",
               "NumericalError", "ValidationError"),
    "spectral": ("ChebGrid", "YProfile", "cheb_grid"),
    "fieldops": ("FlowParams", "HarmonicScalar", "WaveField",
                 "admissibility_violations", "curl", "divergence",
                 "harmonic_product", "require_admissible"),
    "poisson": ("BVPSpec", "solve_bvp", "solve_dudt", "solve_pressure"),
    "compat": ("CompatReport", "check", "forcing", "tangential_residual",
               "vorticity_rhs"),
    "oracle": ("example_cc_coeffs", "example_div_coeffs", "example_dudt",
               "example_field", "example_forcing", "example_vorticity"),
    "modes": ("ModeResult", "mode_to_field", "poiseuille_base",
              "solve_orr_sommerfeld"),
    "search": ("AnsatzSpec", "SearchResult", "assemble", "find_compatible"),
    "fieldfile": ("load_field", "save_field"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
