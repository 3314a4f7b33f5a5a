"""dbl: exact computation with discretely normed rings and their function algebras.

Finite topological spaces and their clopen calculus, finite-image function
algebras with exact sup norms, multiplicative-seminorm spectra, weighted
free modules with exact tensor norms, closed-cover complexes with
Smith-normal-form homology and strict sections, integer function bases
(partition, van der Put, Mahler), and constructive indicator certificates
over ordered rings.

The README's "Public names" table says which command or acceptance
criterion reaches each exported name.
"""

from .errors import DblError
from .normvalue import NormValue
from .scalars import (
    RingDescriptor,
    fp_triv,
    int_inf,
    int_triv,
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
)
from .functions import (
    CfinFunction,
    extend_banaschewski,
    ideal_sum_split,
    indicator,
    restrict,
    separates_points,
)
from .spectrum import (
    BasePoint,
    SpectrumPoint,
    base_eval,
    g_inverse,
    g_split,
    gelfand_roundtrip,
)
from .modtensor import (
    TensorElement,
    WeightedFreeModule,
    absorbing_map,
    tensor_norm,
    tensor_product_module,
    tensor_rank_lower_bound,
)
from .cech import (
    ChainComplex,
    CoverFamily,
    build_tate_cech,
    descent_faithful_witness,
    is_cover,
    strict_sections,
    tate_equivalence_report,
)
from .bases import (
    BasisFamily,
    generalised_vdp,
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

__all__ = [
    "BallNode",
    "BasePoint",
    "BasisFamily",
    "CfinFunction",
    "ChainComplex",
    "CoverFamily",
    "DblError",
    "FiniteSpace",
    "NormValue",
    "PointMap",
    "RingDescriptor",
    "SWCertificate",
    "SpectrumPoint",
    "TensorElement",
    "UltrametricSpace",
    "WeightedFreeModule",
    "absorbing_map",
    "ball_tree",
    "banaschewski",
    "base_eval",
    "build_tate_cech",
    "descent_faithful_witness",
    "extend_banaschewski",
    "fp_triv",
    "g_inverse",
    "g_split",
    "gelfand_roundtrip",
    "generalised_vdp",
    "ideal_sum_split",
    "indicator",
    "int_inf",
    "int_triv",
    "is_cover",
    "mahler_coeffs",
    "mahler_level_unimodular",
    "mahler_pairing",
    "partition_basis",
    "restrict",
    "separates_points",
    "strict_sections",
    "sw_construct_indicator",
    "sw_idempotentize",
    "sw_vanishing_witness",
    "tate_equivalence_report",
    "tensor_norm",
    "tensor_product_module",
    "tensor_rank_lower_bound",
    "vdp_basis_level",
    "vdp_expand",
    "zmod_quot",
    "zmod_triv",
]
