"""The public API: every name dbl exports, and the names that were cut from it.

The README's "Public names" table says which command or acceptance
criterion reaches each exported name.  A removed name stays removed from
the package and from the module that defined it until a decision brings it
back; the law checks and references that only the tests use live in
tests/oracles.py.
"""

import importlib
import re
from pathlib import Path

import pytest

import dbl
import oracles

MODULES = [
    "bases",
    "cech",
    "errors",
    "functions",
    "intlinalg",
    "modtensor",
    "normvalue",
    "scalars",
    "spaces",
    "spectrum",
    "weierstrass",
]

NAMES = [
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

# (defining module, name): deleted outright
DELETED = [
    ("bases", "_indicator_rows"),
    ("bases", "basis_change_matrix"),
    ("bases", "is_unimodular_basis"),
    ("bases", "mahler_family"),
    ("cech", "_MEMO_LOCK"),
    ("cech", "_block_keys"),
    ("cech", "_key"),
    ("cech", "_mask"),
    ("cech", "_points_entry"),
    ("cech", "_store"),
    ("cech", "GluedModule"),
    ("cech", "ModulePiece"),
    ("cech", "glue_modules"),
    ("errors", "CocycleViolation"),
    ("functions", "decompose"),
    ("functions", "dominating_idempotent"),
    ("functions", "ideal_product_split"),
    ("functions", "limit_along"),
    ("functions", "reconstruct"),
    ("functions", "tietze_extend"),
    ("intlinalg", "_inverse_q"),
    ("intlinalg", "inverse_mod"),
    ("intlinalg", "inverse_unimodular"),
    ("modtensor", "_SUPPORTED_HOMS"),
    ("modtensor", "free_base_change"),
    ("normvalue", "_RATIO"),
    ("normvalue", "_fraction"),
    ("normvalue", "_from_digits"),
    ("normvalue", "nv_compare"),
    ("spaces", "zeta_embedding_check"),
    ("spectrum", "_LAST_PROBES"),
    ("spectrum", "_MEMOS"),
    ("spectrum", "_MEMO_LOCK"),
    ("spectrum", "_vp"),
    ("spectrum", "eval_seminorm"),
    ("weierstrass", "_printable_scale"),
]

# (defining module, class, name): a field or method deleted outright
DELETED_MEMBERS = [
    ("bases", "BasisFamily", "member"),
    ("bases", "BasisFamily", "rows"),
    ("scalars", "RingDescriptor", "isolation_gap"),
    ("spaces", "BallNode", "all_nodes"),
]

# (former module, name): moved to tests/oracles.py
MOVED = [
    ("bases", "mahler_eval"),
    ("bases", "mahler_matrix"),
    ("cech", "exactness"),
    ("intlinalg", "bareiss_det"),
    ("intlinalg", "matvec"),
    ("intlinalg", "transpose"),
    ("scalars", "validate_ring"),
    ("spaces", "inclusion_map"),
    ("spectrum", "validate_point"),
]


def test_exported_names_are_pinned():
    assert dbl.__all__ == NAMES


def test_readme_table_lists_exactly_the_exported_names():
    # each name once, in the first column of the rows of "## Public names"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert sorted(re.findall(r"`([^`]+)`", "".join(cells))) == sorted(dbl.__all__)


def test_submodules_are_package_attributes():
    for module in MODULES:
        assert getattr(dbl, module) is importlib.import_module(f"dbl.{module}")


@pytest.mark.parametrize("module, name", DELETED + MOVED)
def test_removed_name_is_gone(module, name):
    assert not hasattr(dbl, name)
    assert not hasattr(importlib.import_module(f"dbl.{module}"), name)


@pytest.mark.parametrize("module, cls, name", DELETED_MEMBERS)
def test_removed_member_is_gone(module, cls, name):
    cls = getattr(importlib.import_module(f"dbl.{module}"), cls)
    assert not hasattr(cls, name)
    assert name not in getattr(cls, "__dataclass_fields__", {})


@pytest.mark.parametrize("module, name", MOVED)
def test_moved_name_lives_in_the_oracles(module, name):
    assert callable(getattr(oracles, name))
