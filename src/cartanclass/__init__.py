"""Classification machinery for pairs (real semisimple Lie algebra,
Cartan subalgebra) through root-system involutions and decorated
Dynkin diagrams, in exact arithmetic.

The public names resolve on first access (PEP 562), so importing the
package, or one layer of it, compiles and runs no other layer."""

import importlib

_HOMES = {
    "rootsys": "CartanclassError Chamber RootSystem RootSystemError RootSystemSpec build in_weyl",
    "_linalg": "Qrt2",
    "weylgroup": "PermGroup full_aut_group klein_in_weyl weyl_group",
    "chevalley": "ChevalleySystem DenseAlgebra QuarterTurn ad_k_char_polys apply_map "
                 "dense_algebra exp_quarter_pi_adk structure_constants",
    "involution": "Involution SosClass class_label classify_sos complex_type_involution "
                  "decompose equivalent_involutions find_s_chamber involution_from_images "
                  "is_s_chamber max_sos_class_count maximal_sos_classes special_involutions "
                  "strongly_orthogonalize table2_representatives",
    "diagram": "Diagram admissible chamber_with_imaginary_basis restrict_sigma s_diagram "
               "sigma_diagram theta_on_simple",
    "realform": "AntiInvolution RealFormName SignatureCounts cartan_classes cayley "
                "compact_cartan_enumeration identify in_hom_theta is_quasi_split isomorphic "
                "quasi_split_lift reduce_noncompact signature sigma_from_basis_signs "
                "sigma_from_chamber_signs twist",
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule not yet imported, or no such name
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
