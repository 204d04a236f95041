"""k0lab: Grothendieck groups of Leavitt path algebras of weighted Cayley graphs.

Exact integer Smith normal forms, cyclic Cayley determinants via
resultants (from x^n mod f, with no degree-n polynomial), the
companion-matrix cokernel reduction, and restricted Kirchberg-Phillips
classification.
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
    is_purely_infinite_simple,
    is_strongly_connected,
)
from .k0 import (
    K0Report,
    analyze,
    closed_form_S01,
    f_sequence,
    verify_Tn_structure,
)
from .circulant import (
    Circulant,
    IntPolynomial,
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
    SparseIntMatrix,
    cokernel,
    cokernel_with_class,
    det,
)

__version__ = "0.1.0"
