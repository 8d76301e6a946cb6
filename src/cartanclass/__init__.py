"""Classification machinery for pairs (real semisimple Lie algebra,
Cartan subalgebra) through root-system involutions and decorated
Dynkin diagrams, in exact arithmetic."""

from .rootsys import Chamber, RootSystem, RootSystemError, RootSystemSpec, build
from .weylgroup import (PermGroup, RootPermutation, full_aut_group, in_weyl,
                        klein_in_weyl, weyl_group)
from .chevalley import (ChevalleySystem, DenseAlgebra, Qrt2, QuarterTurn, ad_k_char_polys,
                        apply_map, dense_algebra, exp_quarter_pi_adk,
                        structure_constants)
from .involution import (Involution, SosClass, class_label, classify_sos,
                         complex_type_involution, decompose,
                         equivalent_involutions, involution_from_images,
                         max_sos_class_count, maximal_sos_classes,
                         special_involutions, strongly_orthogonalize,
                         table2_representatives)
from .diagram import (Diagram, admissible, chamber_with_imaginary_basis,
                      find_s_chamber, is_s_chamber, is_v_chamber,
                      restrict_sigma, s_diagram, sigma_diagram,
                      theta_on_simple)
from .realform import (AntiInvolution, RealFormName, SignatureCounts,
                       cartan_classes, cayley, compact_cartan_enumeration,
                       eta_from_omega, identify, in_hom_theta, is_quasi_split,
                       isomorphic, quasi_split_lift, reduce_noncompact,
                       signature, sigma_from_basis_signs,
                       sigma_from_chamber_signs, twist)

__version__ = "0.1.0"
