"""Exact homological computations over polynomial quotient rings.

Gröbner-based kernels, bounded free complexes, Tor/Ext towers against
rational points, local cohomology stage towers, perfection decision
procedures, derived fibers with semicontinuity and base-change scans,
and a desk-scale bivariant K0 calculus.
"""

from .fields import GF, QQ
from .orders import GREVLEX, LEX
from .rings import Mat, PolyRing, Polynomial, RationalPoint, groebner_basis, normal_form, syzygy_matrix
from .modules import ModulePresentation, syzygies
from .complexes import (
    ComplexMap,
    FreeComplex,
    cone,
    dual,
    hom_complex,
    koszul,
    koszul_dual_stage,
    minimize,
    tensor,
    unit_complex,
)
from .resolutions import (
    FPComplex,
    derived_tensor,
    free_replacement,
    free_resolution,
    truncate_le,
)
from .derived import (
    PerfectionCertificate,
    boundedness_transfer_check,
    ext_to_point,
    is_perfect_at,
    is_relatively_perfect,
    local_cohomology,
    tor_profile,
)
from .maps import RingMap
from .geometry import (
    FiberData,
    ProjectiveFamily,
    blowup_family,
    chi,
    classical_chi,
    classical_fiber,
    derived_pullback,
    grauert_check,
    hp_scan,
    nice_fiber,
    pushforward_affine,
    pushforward_projective,
    tor_independent,
)
from .ktheory import (
    IndependentSquare,
    K0Class,
    k0_evidence_equal,
    orientation,
    product,
    pullback,
    pushforward,
    verify_axiom,
)

__version__ = "0.1.0"
