"""dbl: exact computation with discretely normed rings and their function algebras.

Finite topological spaces and their clopen calculus, finite-image function
algebras with exact sup norms, multiplicative-seminorm spectra, weighted
free modules with exact tensor norms, closed-cover complexes with
Smith-normal-form homology, integer function bases (partition, van der
Put, Mahler), and constructive indicator certificates over ordered rings.
"""

from .errors import DblError
from .normvalue import NormValue, nv_compare
from .scalars import (
    RingDescriptor,
    fp_triv,
    int_inf,
    int_triv,
    quotient_norm,
    validate_ring,
    zmod_quot,
    zmod_triv,
)
from .spaces import (
    BallNode,
    FiniteSpace,
    PointMap,
    UltrametricSpace,
    ball_tree,
    banaschewski,
    inclusion_map,
    zeta_embedding_check,
)
from .functions import (
    CfinFunction,
    decompose,
    dominating_idempotent,
    extend_banaschewski,
    ideal_product_split,
    ideal_sum_split,
    indicator,
    limit_along,
    reconstruct,
    restrict,
    separates_points,
    tietze_extend,
)
from .spectrum import (
    BasePoint,
    SpectrumPoint,
    base_eval,
    eval_seminorm,
    g_inverse,
    g_split,
    gelfand_roundtrip,
    validate_point,
)
from .modtensor import (
    QuotientModule,
    TensorElement,
    WeightedFreeModule,
    absorbing_map,
    free_base_change,
    tensor_norm,
    tensor_product_module,
    tensor_rank_lower_bound,
)
from .cech import (
    ChainComplex,
    CoverFamily,
    build_tate_cech,
    descent_faithful_witness,
    exactness,
    glue_modules,
    is_cover,
    strict_sections,
    tate_equivalence_report,
)
from .bases import (
    BasisFamily,
    basis_change_matrix,
    generalised_vdp,
    is_unimodular_basis,
    mahler_coeffs,
    mahler_level_unimodular,
    mahler_pairing,
    partition_basis,
    vdp_basis_level,
    vdp_expand,
)
from .weierstrass import (
    SWCertificate,
    sw_construct_indicator,
    sw_idempotentize,
    sw_vanishing_witness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
