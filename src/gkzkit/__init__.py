"""Exact-arithmetic toolkit for A-hypergeometric systems.

Builds the system attached to an integer point configuration and a rational
parameter vector, verifies its operator and chain-level identities
symbolically, computes truncated top-cohomology dimensions of the twisted
logarithmic de Rham complexes, and tests the mod-p full-solution criterion.
"""

__version__ = "0.1.0"

from .lattice import (FacetForm, ParameterVector, PointConfig, RelationLattice,
                      ResonanceVerdict, cone_facets, is_nonresonant,
                      relation_lattice, validate_config)
from .laurent import (ConeSupport, FullSupport, HalfSupport, LaurentPoly,
                      Support, apply_D, build_f, build_f_symbolic,
                      toric_derivative)
from .weyl import (WeylElement, box_operator, check_commutation,
                   check_phi_intertwines, euler_operator, phi_map, weyl_mul)
from .derham import (LogForm, RankReport, check_complex, generic_rank,
                     homotopy_identity_check, homotopy_rho, nabla,
                     quasi_iso_check, top_cohomology_dim,
                     twist_conjugation_check)
from .hypersurface import (LocalizedElement, SplitForm, UForm, build_g,
                           check_gamma_chain_map, cohomology_U_dim, gamma,
                           kernel_equals_dv_image, pochhammer, tilde_nabla)
from .modp import (ModpInstance, ModpReport, full_set_sweep, make_instance,
                   modp_solution_dim, solution_support)

__all__ = [name for name in dir() if not name.startswith("_")]
