"""k0lab: Grothendieck groups of Leavitt path algebras of weighted Cayley graphs.

Exact integer Smith normal forms, circulant determinants via resultants,
the companion-matrix cokernel reduction, and restricted
Kirchberg-Phillips classification.
"""

from .classify import (
    AlgebraClass,
    KPComparison,
    classify_report,
    dihedral_theorem_row,
    flow_equivalent,
    kp_compare,
)
from .errors import (
    GroupTableError,
    InternalCheckError,
    InvalidSpecError,
    NotGeneratingError,
    NotPurelyInfiniteSimpleError,
)
from .graphs import (
    CayleySpec,
    DirectedMultigraph,
    CyclicGroup,
    DihedralGroup,
    FiniteGroupTable,
    build_cayley,
    build_complete_graph,
    in_split,
    is_purely_infinite_simple,
    is_strongly_connected,
    k_cycle,
)
from .k0 import (
    CompanionMatrix,
    K0Report,
    analyze,
    closed_form_S01,
    companion_matrix,
    f_sequence,
    verify_Tn_structure,
)
from .circulant import (
    Circulant,
    IntPolynomial,
    circulant_det,
    cyclotomic,
    det_sign_closed_form,
    representer,
    resultant,
    singular_cyclotomic_divisors,
    two_generator_singularity,
)
from .zmatrix import (
    FinAbGroup,
    IntMatrix,
    MatrixFormatError,
    cokernel,
    cokernel_with_class,
    det,
    mat_pow,
    rank,
)

__version__ = "0.1.0"
