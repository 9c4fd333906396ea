"""Exact-arithmetic toolkit for A-hypergeometric systems.

Builds the system attached to an integer point configuration and a rational
parameter vector, verifies its operator and chain-level identities
symbolically, computes truncated top-cohomology dimensions of the twisted
logarithmic de Rham complexes, and tests the mod-p full-solution criterion.

Importing the package enters every module but ``cli`` in ``sys.modules``
without running it (``importlib.util.LazyLoader``); a module's code runs on
the first access to one of its attributes, and the names below are resolved
from their modules on first access (PEP 562).  So a process runs only the
modules it uses, while ``sys.modules`` lists all of them from the start and
code that walks it (to patch a function wherever it is bound, say) also
reaches the modules that load later.  ``cli`` is left out because
``python -m gkzkit.cli`` runs it as ``__main__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "lattice": ("FacetForm", "ParameterVector", "PointConfig", "RelationLattice",
                "ResonanceVerdict", "cone_facets", "is_nonresonant",
                "relation_lattice", "validate_config"),
    "laurent": ("LaurentPoly", "apply_D", "build_f", "build_f_symbolic",
                "toric_derivative"),
    "window": ("ConeSupport", "FullSupport", "HalfSupport", "RankReport", "Support",
               "cohomology_U_dim", "generic_rank", "quasi_iso_check",
               "top_cohomology_dim"),
    "weyl": ("WeylElement", "box_operator", "check_commutation",
             "check_phi_intertwines", "euler_operator", "phi_map", "weyl_mul"),
    "derham": ("LogForm", "check_complex", "homotopy_identity_check", "nabla",
               "twist_conjugation_check"),
    "hypersurface": ("UForm", "build_g", "check_gamma_chain_map", "gamma",
                     "kernel_equals_dv_image", "tilde_nabla"),
    "modp": ("ModpInstance", "ModpReport", "full_set_sweep", "make_instance",
             "modp_solution_dim", "solution_support"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# modules the package exports by name
_SUBMODULES = ("derham", "errors", "hypersurface", "intmat", "lattice", "laurent",
               "linalg", "modp", "weyl", "window")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])

for _name in (*_SUBMODULES, "catalog", "jsonio", "verify"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_MODULE_OF[name]], name)
    globals()[name] = value
    return value
