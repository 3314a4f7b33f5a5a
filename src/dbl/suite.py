"""Verification suites behind the CLI and the acceptance tests.

Each check returns a dict with at least {"name", "pass"}; the CLI turns
the dicts into a report and pytest asserts on them.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

from . import fixtures
from .bases import (
    family_determinant,
    generalised_vdp,
    mahler_level_unimodular,
    mahler_pairing,
    partition_basis,
    vdp_basis_level,
    vdp_expand,
    vdp_orthonormal_check,
    vdp_reconstruct,
)
from .cech import CoverFamily, strict_sections, tate_verdict
from .errors import DisconnectedSpectrum, NoSection, SizeExceeded
from .functions import (
    CfinFunction,
    enumerate_functions,
    ideal_sum_split,
    restrict,
    extend_banaschewski,
)
from .modtensor import (
    NONARCH,
    TensorElement,
    WeightedFreeModule,
    absorbing_counterexample,
    absorbing_map,
    elem,
    tensor_norm,
    tensor_rank_lower_bound,
)
from .normvalue import NV_ONE, NormValue, nv_sum
from .scalars import fp_triv, int_inf, int_triv, zmod_triv
from .spaces import MAX_POINTS, FiniteSpace, banaschewski
from .spectrum import (
    BasePoint,
    SpectrumPoint,
    base_eval,
    canonical_point,
    g_inverse,
    g_split,
    gelfand_roundtrip,
)
from .weierstrass import sw_construct_indicator


# -- 1. cover/acyclicity equivalence ---------------------------------------


MAX_EXHAUSTIVE_CASES = 20_000
MAX_MAHLER_PAIRING = 128  # 0.65 s on a 2-core machine; 160 takes 1.8 s
MAX_BASIS_SEEDS = 100  # about 6 ms a seed


def _check_flag(value: int, cap: int, name: str):
    """ValueError below 0 and SizeExceeded above cap, before any work."""
    if value < 0:
        raise ValueError(f"{name} must be at least 0, not {value}")
    if value > cap:
        raise SizeExceeded(f"{name} = {value} > {cap}")


def _check_case_count(max_points: int, max_sets: int, rings: int):
    """Bound rings * (sum over n <= max_points, k <= max_sets of C(2**n, k)).

    Stops at the first partial sum above MAX_EXHAUSTIVE_CASES, so a large
    flag costs a few terms of the sum.  The case list is built even for no
    rings, so that counts as one.
    """
    if max_points < 1 or max_sets < 1:
        raise ValueError(
            f"max_points and max_sets must be at least 1, not {max_points} and {max_sets}"
        )
    total = 0
    for n in range(1, max_points + 1):
        for k in range(1, min(max_sets, 2**n) + 1):
            total += max(rings, 1) * comb(2**n, k)
            if total > MAX_EXHAUSTIVE_CASES:
                raise SizeExceeded(f"more than {MAX_EXHAUSTIVE_CASES} exhaustive cases")


def _tate_cases(max_points: int, max_sets: int):
    cases = []
    for n in range(1, max_points + 1):
        subsets = [frozenset(c) for size in range(n + 1) for c in combinations(range(n), size)]
        for fam_size in range(1, min(max_sets, len(subsets)) + 1):
            for fam in combinations(subsets, fam_size):
                cases.append((n, tuple(sorted(fam, key=lambda s: (len(s), sorted(s))))))
    return cases


def tate_exhaustive(max_points: int = 4, max_sets: int = 3, rings=None) -> dict:
    """Exhaustive cover <=> vanishing-homology agreement on discrete spaces.

    Every family of 1..max_sets subsets of discrete(n), n = 1..max_points,
    over each ring.  Each family whose verdict covers also gets its strict
    sections over Z (cech.strict_sections, the constructive side of the
    equivalence), once for all rings since the homotopy is an integer
    matrix; "section_constant" is the largest constant of a section.  The
    case count is checked before any case is built: flags below 1 raise
    ValueError, and more than MAX_EXHAUSTIVE_CASES cases raise
    SizeExceeded.
    """
    if rings is None:
        rings = (int_inf(), int_triv(), fp_triv(2))
    _check_case_count(max_points, max_sets, len(rings))
    total = sections = constant = 0
    for n, fam in _tate_cases(max_points, max_sets):
        space = FiniteSpace.discrete(n)
        family = CoverFamily.make(space, fam)
        covers = False
        for ring in rings:
            verdict = tate_verdict(space, family, ring)
            if not verdict["agreement"]:
                return {
                    "name": "tate_equivalence",
                    "pass": False,
                    "witness": [n, [sorted(K) for K in fam], str(ring)],
                }
            covers = verdict["cover_components"]
            total += 1
        if covers:
            try:
                stages = strict_sections(space, family, int_inf())
            except NoSection as err:
                return {
                    "name": "tate_equivalence",
                    "pass": False,
                    "witness": [n, [sorted(K) for K in fam], f"NoSection: {err}"],
                }
            sections += 1
            constant = max([constant] + [s["constant"] for s in stages])
    return {
        "name": "tate_equivalence",
        "pass": True,
        "cases": total,
        "sections": sections,
        "section_constant": constant,
        "rings": [str(r) for r in rings],
        "max_points": max_points,
        "max_sets": max_sets,
    }


# -- 2. spectrum homeomorphism ----------------------------------------------


def acceptance_point_grid() -> list[BasePoint]:
    grid: list[BasePoint] = [BasePoint.trivial()]
    for eps in (0, Fraction(1, 2), 1):
        grid.append(BasePoint.arch(eps))
    for p in (2, 3, 5):
        for eps in (Fraction(1, 2), 1):
            grid.append(BasePoint.padic(p, eps))
        grid.append(BasePoint.residue(p))
    return grid


def spectrum_homeomorphism(spaces=None) -> dict:
    """Round trips on the full grid plus exact multiplicativity.

    A constructed seminorm factors through the value of the function on
    the chosen component, so checking multiplicativity on all ring-value
    pairs in {-3..3} covers every pair of functions with values in that
    range; small spaces also get a direct function-pair check.
    """
    ring = int_inf()
    if spaces is None:
        spaces = fixtures.standard_fixture_spaces()
    grid = acceptance_point_grid()
    values = range(-3, 4)
    roundtrips = 0
    value_pairs = 0
    function_pairs = 0
    for space in spaces:
        n_comp = len(space.quasi_components)
        for c in range(n_comp):
            for b in grid:
                oracle = g_inverse(c, b, space, ring)
                pt = g_split(oracle)
                want = SpectrumPoint(c, canonical_point(ring, b))
                if pt != want:
                    return {
                        "name": "spectrum_homeomorphism",
                        "pass": False,
                        "witness": [str(space), c, str(b)],
                    }
                roundtrips += 1
        for b in grid:
            bb = canonical_point(ring, b)
            for a0 in values:
                for a1 in values:
                    lhs = base_eval(bb, ring, a0 * a1)
                    rhs = base_eval(bb, ring, a0) * base_eval(bb, ring, a1)
                    if lhs != rhs:
                        return {
                            "name": "spectrum_homeomorphism",
                            "pass": False,
                            "witness": ["values", str(b), a0, a1],
                        }
                    value_pairs += 1
        if n_comp <= 2:
            sample = list(enumerate_functions(space, ring, values))
            for b in grid:
                for c in range(n_comp):
                    oracle = g_inverse(c, b, space, ring)
                    at = [oracle(f) for f in sample]
                    for f, at_f in zip(sample, at):
                        for g, at_g in zip(sample, at):
                            if oracle(f.mul(g)) != at_f * at_g:
                                return {
                                    "name": "spectrum_homeomorphism",
                                    "pass": False,
                                    "witness": ["functions", c, str(b)],
                                }
                            function_pairs += 1
    return {
        "name": "spectrum_homeomorphism",
        "pass": True,
        "roundtrips": roundtrips,
        "value_pairs": value_pairs,
        "function_pairs": function_pairs,
    }


# -- 3. sum-split constant ---------------------------------------------------


def sum_split_cases(count: int = 1000, seed: int = 7) -> dict:
    """Seeded splits with the exact bound |f0| + |f1| <= 2 |f|."""
    rng = random.Random(seed)
    ring = int_inf()
    spaces = fixtures.standard_fixture_spaces()
    strict_gain = 0
    for _ in range(count):
        space = rng.choice(spaces)
        n_comp = len(space.quasi_components)
        closed_sets = sorted(
            (frozenset(range(space.n)) - U for U in space.opens), key=sorted
        )
        k0 = rng.choice(closed_sets)
        k1 = rng.choice(closed_sets)
        vals = [rng.randint(-5, 5) for _ in range(n_comp)]
        for i, block in enumerate(space.quasi_components):
            if block & k0 and block & k1:
                vals[i] = 0
        f = CfinFunction(space, ring, tuple(vals))
        f0, f1 = ideal_sum_split(f, k0, k1)
        if not f0.add(f1) == f:
            return {"name": "sum_split", "pass": False, "witness": "sum"}
        if not f0.vanishes_on(k0) or not f1.vanishes_on(k1):
            return {"name": "sum_split", "pass": False, "witness": "ideal"}
        lhs = nv_sum([f0.sup_norm(), f1.sup_norm()])
        bound = nv_sum([f.sup_norm(), f.sup_norm()])
        if lhs > bound:
            return {"name": "sum_split", "pass": False, "witness": "bound"}
        if lhs > f.sup_norm():
            strict_gain += 1
    return {
        "name": "sum_split",
        "pass": strict_gain >= 1,
        "cases": count,
        "cases_above_norm": strict_gain,
    }


# -- 4. absorbing dichotomy ---------------------------------------------------


def absorbing_dichotomy(max_n: int = 16) -> dict:
    # the counterexample at n lives on n + 1 points
    _check_flag(max_n, MAX_POINTS - 1, "max_n")
    ring = int_triv()
    space = fixtures.glued_pairs()
    checked = 0
    for w0, w1 in ((1, 1), (1, 2)):
        m0 = WeightedFreeModule(ring, {"u": w0}, NONARCH)
        m1 = WeightedFreeModule(ring, {"c": w1, "d": 1}, NONARCH)
        forward, backward, (cfm0, _), _ = absorbing_map(space, m0, m1)
        keys = [((comp, "u"), s1) for comp in range(2) for s1 in ("c", "d")]
        for combo in product(range(-2, 3), repeat=len(keys)):
            t = TensorElement(
                cfm0, m1, elem({k: v for k, v in zip(keys, combo)})
            )
            ff = forward(t)
            if backward(ff) != t:
                return {"name": "absorbing", "pass": False, "witness": "inverse"}
            if ff.sup_norm() != tensor_norm(t):
                return {"name": "absorbing", "pass": False, "witness": "isometry"}
            checked += 1
    growth = []
    for n in range(1, max_n + 1):
        _, _, _, f_n, forward, _ = absorbing_counterexample(n)
        lower = tensor_rank_lower_bound(f_n)
        sup = forward(f_n).sup_norm()
        ok = (
            lower == NormValue.from_fraction(n + 1)
            and tensor_norm(f_n) == lower
            and sup == NV_ONE
        )
        growth.append({"n": n, "lower": lower.to_json(), "sup_one": sup == NV_ONE})
        if not ok:
            return {"name": "absorbing", "pass": False, "witness": f"n={n}"}
    return {
        "name": "absorbing",
        "pass": True,
        "nonarch_cases": checked,
        "growth_cases": len(growth),
    }


# -- 5. Mahler pairing ---------------------------------------------------------


def mahler_identity(limit: int = 12) -> dict:
    _check_flag(limit, MAX_MAHLER_PAIRING, "limit")
    cases = 0
    for n in range(limit + 1):
        for i in range(limit + 1):
            want = 1 if n == i else 0
            if mahler_pairing(n, i) != want:
                return {"name": "mahler_pairing", "pass": False, "witness": (n, i)}
            cases += 1
    return {"name": "mahler_pairing", "pass": True, "cases": cases}


# -- 6. basis certificates -------------------------------------------------------


def _products_in_family(family) -> bool:
    sets = family.clopens
    for a in sets:
        for b in sets:
            inter = a & b
            if inter not in (a, b) and inter != frozenset():
                return False
    return True


def basis_certificates(levels=None, seeds: int = 20, expansions: int = 100) -> dict:
    _check_flag(seeds, MAX_BASIS_SEEDS, "seeds")
    if levels is None:
        levels = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1))
    # family_determinant raises, naming the first member out of order,
    # on a family that is not unitriangular
    dets = {}
    for p, k in levels:
        dets[f"vdp({p},{k})"] = family_determinant(vdp_basis_level(p, k))
        cert = mahler_level_unimodular(p, k)
        if not cert["unimodular"]:
            return {"name": "basis_certificates", "pass": False, "witness": f"mahler{(p, k)}"}
    for seed in range(seeds):
        um = fixtures.seeded_ultrametric(1000 + seed)
        fam = generalised_vdp(um)
        family_determinant(fam)  # one member per point, each in order
        if not _products_in_family(fam):
            return {"name": "basis_certificates", "pass": False, "witness": f"prod{seed}"}
    family_determinant(partition_basis(fixtures.glued_pairs()))
    rng = random.Random(99)
    checked = 0
    for _ in range(expansions):
        p, k = rng.choice(((2, 1), (2, 2), (3, 1)))
        fam = vdp_basis_level(p, k)
        ring = rng.choice((int_triv(), fp_triv(3)))
        vals = [rng.randrange(0, 3) if ring.kind == "FpTriv" else rng.randint(-3, 3) for _ in range(fam.size)]
        f = CfinFunction(fam.space, ring, tuple(ring.reduce(v) for v in vals))
        coeffs = vdp_expand(f, fam)
        if vdp_reconstruct(fam, ring, coeffs) != f:
            return {"name": "basis_certificates", "pass": False, "witness": "expand"}
        if not vdp_orthonormal_check(f, fam):
            return {"name": "basis_certificates", "pass": False, "witness": "orthonormal"}
        checked += 1
    return {
        "name": "basis_certificates",
        "pass": True,
        "levels": dets,
        "generalised_seeds": seeds,
        "expansions": checked,
    }


# -- 7. Stone-Weierstrass ----------------------------------------------------------


def stone_weierstrass_sweep(max_points: int = 4) -> dict:
    ring = int_inf()
    total = 0
    for n in range(1, max_points + 1):
        space = FiniteSpace.discrete(n)
        gen_tuples = [tuple(range(n)), tuple(2 * i - 1 for i in range(n))]
        for gv in gen_tuples:
            gens = [CfinFunction(space, ring, gv)]
            for size in range(n + 1):
                for pts in combinations(range(n), size):
                    u = frozenset(pts)
                    cert = sw_construct_indicator(space, ring, gens, u)
                    if not cert.verify(space, ring, gens):
                        return {
                            "name": "stone_weierstrass",
                            "pass": False,
                            "witness": [n, sorted(u)],
                        }
                    if u and cert.scale <= 0:
                        return {
                            "name": "stone_weierstrass",
                            "pass": False,
                            "witness": ["scale", n, sorted(u)],
                        }
                    total += 1
    # frozen worked trace on three points
    space = FiniteSpace.discrete(3)
    gens = [CfinFunction(space, ring, (0, 1, 2))]
    cert = sw_construct_indicator(space, ring, gens, frozenset({1}))
    trace_ok = cert.scale == 16 and cert.evaluation == (0, 16, 0)
    return {
        "name": "stone_weierstrass",
        "pass": trace_ok,
        "cases": total,
        "trace_scale": cert.scale,
        "trace_evaluation": list(cert.evaluation),
    }


# -- 8. duality round trip ------------------------------------------------------------


def gelfand_sweep(count: int = 30) -> dict:
    ring = int_inf()
    spaces = fixtures.many_fixture_spaces(count)
    for space in spaces:
        report = gelfand_roundtrip(space, ring)
        if report["space_components"] != len(space.quasi_components):
            return {"name": "gelfand", "pass": False, "witness": str(space)}
        if len(report["recovered_classes"]) != len(space.quasi_components):
            return {"name": "gelfand", "pass": False, "witness": str(space)}
    try:
        gelfand_roundtrip(FiniteSpace.discrete(2), zmod_triv(6))
    except DisconnectedSpectrum as err:
        idem = err.idempotent
        return {
            "name": "gelfand",
            "pass": idem in (3, 4),
            "spaces": len(spaces),
            "idempotent_witness": idem,
        }
    return {"name": "gelfand", "pass": False, "witness": "Z/6 accepted"}


# -- 9. strong exactness --------------------------------------------------------------


def strong_exactness_cases(count: int = 50, seed: int = 11) -> dict:
    """Seeded strict coordinate sequences over IntTriv, pushed through C_fin.

    The lifting (per quasi-component, per clopen block) realizes the
    section of the quotient map with constant C1 = max w1/w2, and kernel
    elements pull back with constant C0 = max w0/w1.
    """
    rng = random.Random(seed)
    ring = int_triv()
    spaces = fixtures.standard_fixture_spaces()[:6]
    weight_pool = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))
    checked = 0
    for _ in range(count):
        space = rng.choice(spaces)
        n_comp = len(space.quasi_components)
        k = rng.randint(1, 3)
        symbols = [f"s{i}" for i in range(k)]
        sub_syms = sorted(rng.sample(symbols, rng.randint(0, k)))
        quo_syms = [s for s in symbols if s not in sub_syms]
        w1 = {s: rng.choice(weight_pool) for s in symbols}
        w0 = {s: rng.choice(weight_pool) for s in sub_syms}
        w2 = {s: rng.choice(weight_pool) for s in quo_syms}
        m1 = WeightedFreeModule(ring, w1, NONARCH)
        m0 = WeightedFreeModule(ring, w0, NONARCH) if sub_syms else None
        m2 = WeightedFreeModule(ring, w2, NONARCH) if quo_syms else None
        c1 = max(
            (Fraction(w1[s]) / Fraction(w2[s]) for s in quo_syms),
            default=Fraction(1),
        )
        c0 = max(
            (Fraction(w0[s]) / Fraction(w1[s]) for s in sub_syms),
            default=Fraction(1),
        )
        sub_set = set(sub_syms)

        def proj(e):  # induced map m1 -> m2, drop the sub coordinates
            return elem({s: c for s, c in e if s not in sub_set})

        def incl(e):  # induced map m0 -> m1, same coordinates
            return elem(dict(e))

        def apply(space_fn, fn, target):
            return CfinFunction(
                space, target, tuple(fn(v) for v in space_fn.values)
            )

        # arbitrary middle functions: image of s is exactly the kernel of t
        for _ in range(4):
            vals = tuple(
                elem({s: rng.randint(-2, 2) for s in symbols})
                for _ in range(n_comp)
            )
            f1 = CfinFunction(space, m1, vals)
            if m2 is not None:
                tf1 = apply(f1, proj, m2)
                in_kernel = tf1.is_zero()
            else:
                in_kernel = True
            support_in_sub = all(
                all(s in sub_set for s, _ in v) for v in vals
            )
            if in_kernel != support_in_sub:
                return {
                    "name": "strong_exactness",
                    "pass": False,
                    "witness": "kernel characterization",
                }
            if in_kernel and m0 is not None:
                f0 = CfinFunction(space, m0, vals)
                if apply(f0, incl, m1) != f1:
                    return {
                        "name": "strong_exactness",
                        "pass": False,
                        "witness": "section of inclusion",
                    }
                bound = f1.sup_norm() * NormValue.from_fraction(c0)
                if f0.sup_norm() > bound:
                    return {
                        "name": "strong_exactness",
                        "pass": False,
                        "witness": "kernel bound",
                    }
        # surjectivity of the induced quotient map, with the lift constant
        if m2 is not None:
            for _ in range(4):
                vals = tuple(
                    elem({s: rng.randint(-2, 2) for s in quo_syms})
                    for _ in range(n_comp)
                )
                f2 = CfinFunction(space, m2, vals)
                f1 = CfinFunction(space, m1, vals)  # per-block lift
                if apply(f1, proj, m2) != f2:
                    return {
                        "name": "strong_exactness",
                        "pass": False,
                        "witness": "lift is not a section",
                    }
                bound = f2.sup_norm() * NormValue.from_fraction(c1)
                if f1.sup_norm() > bound:
                    return {
                        "name": "strong_exactness",
                        "pass": False,
                        "witness": "lift bound",
                    }
        checked += 1
    return {"name": "strong_exactness", "pass": True, "cases": checked}


# -- 10. extension isometry --------------------------------------------------------


def extension_isometry() -> dict:
    ring = int_inf()
    spaces = fixtures.standard_fixture_spaces()
    total = 0
    for space in spaces:
        zeta, iota = banaschewski(space)
        for f in enumerate_functions(space, ring, range(-2, 3)):
            ext = extend_banaschewski(f)
            back = restrict(ext, iota)
            if back != f or ext.sup_norm() != f.sup_norm():
                return {
                    "name": "extension_isometry",
                    "pass": False,
                    "witness": [str(space), list(f.values)],
                }
            total += 1
    return {"name": "extension_isometry", "pass": True, "cases": total}


def run_all(seed: int | None = None) -> list[dict]:
    """Every verification suite; a seed reseeds the randomized ones."""
    return [
        tate_exhaustive(),
        spectrum_homeomorphism(),
        sum_split_cases(seed=7 if not seed else seed),
        absorbing_dichotomy(),
        mahler_identity(),
        basis_certificates(),
        stone_weierstrass_sweep(),
        gelfand_sweep(),
        strong_exactness_cases(seed=11 if not seed else seed + 1),
        extension_isometry(),
    ]
