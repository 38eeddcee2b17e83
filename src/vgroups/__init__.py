"""Computational workbench for finite quantales and quantale-valued groups.

Core value types: Quantale, VRel (quantale-valued relation), FiniteGroup,
VGroup (group plus compatible structure) and VHom.  On top of them:
torsion and pretorsion decompositions, the two induced factorization
systems, the covering predicate, and window-verified descent covers.
All values are immutable and every operation is pure and deterministic.
"""

from .errors import (CapacityError, NonIntegralQuantaleError, StructuralError,
                     TheoremCheckError, WorkbenchError)
from .quantale import (Quantale, boolean, builtin_quantale, lawvere_chain,
                       ultrametric_chain, validate_quantale)
from .vrel import VRel
from .groups import FiniteGroup, group_isomorphism, quotient_group, subgroup_group
from .vgroup import (ObjectClass, VGroup, VHom, classify_hom, classify_object,
                     cokernel, coequalizer, discrete_vgroup,
                     enumerate_homs, enumerate_structures, equalizer,
                     identity_hom, image_factorize, indiscrete_vgroup,
                     is_isomorphism, is_regular_epi, kernel, product, pullback,
                     structure_from_delta, subobject, quotient_vgroup,
                     trivial_vgroup, validate_hom, validate_vgroup,
                     vgroup_isomorphism, zero_hom)
from .torsion import (PretorsionDecomposition, TorsionDecomposition, coreflect,
                      coreflect_morphism, decompose, is_null_morphism,
                      is_null_object, pretorsion_decompose, reflect,
                      reflect_morphism, symmetric_coreflect, torsion_part,
                      verify_pretorsion_cokernel, verify_pretorsion_kernel)
from .factorization import (Factorization, MorphismClassReport, classify_morphism,
                            is_covering, monotone_light_factorize,
                            reflective_factorize)
from .descent import (IntegerIndexedCover, Window, action_of_covering,
                      descent_cover, kernel_pair_groupoid, verify_cover_window)
from .builders import Suite, standard_suite
from .battery import run_battery

__all__ = [name for name in dir() if not name.startswith("_")]
