"""Exact construction and verification of polarized Hodge-Lefschetz modules.

The package builds two families of instances with arbitrary-precision
rational arithmetic: the differential-operator algebra of a simple polytope
acting on its volume polynomial, and the exterior algebra of a torus with
wedge operators from Hermitian matrices.  On top of the shared module model
it verifies the hard Lefschetz property, Hodge-Riemann positivity,
Lefschetz decompositions, sl2-completions, mixed versions of all of these
for tuples drawn from the module's cone K (the type cone of a polytope, the
Kahler cone of a torus), descent to operator images, and
purity of the filtered Koszul complex.  Everything is exact; a failed check
always carries a machine-readable witness.
"""

from .exact import (
    GaussianRational,
    Matrix,
    MultiPoly,
    apply_diff_op,
    format_scalar,
    hermitian_pd,
    hermitian_psd,
    kernel_basis,
    parse_scalar,
)
from .hodge_lefschetz import (
    BasisVector,
    GradedSpace,
    HLModule,
    OperatorFamily,
    Sl2Triple,
    closed_cone_membership,
    cone_membership,
    lefschetz_decomposition,
    lefschetz_property,
    polarization_check,
    primitive_subspace,
    sample_cone_element,
    sample_cone_tuple,
    sl2_complete,
    validate_structure,
)
from .mixed import (
    kernel_weight_bound,
    mixed_decomposition_check,
    mixed_hlt_check,
    mixed_hrr_check,
)
from .descent import (
    DescentResult,
    KoszulComplex,
    QuotientDescent,
    descent,
    koszul_complex,
    purity_check,
    quotient_descent,
    repeated_descent,
)
from .polytopes import (
    SimplePolytope,
    VolumePolynomial,
    af_check,
    build_pkt_module,
    build_polytope,
    h_vector,
    in_closed_type_cone,
    mixed_volume,
    type_cone,
    volume_oracle,
    volume_polynomial,
)
from .torus import TorusSpec, build_torus_module, kahler_operator
from .report import CheckReport

__version__ = "0.1.0"
