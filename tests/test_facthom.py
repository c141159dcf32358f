import math
import random

import pytest

from strathom.checks import mixed_algebras
from strathom.exactla import QQ, RingFp, SparseMat, ZZ
from strathom.enrich import (ground_ring_algebra, group_algebra,
                             matrix_algebra, nerve, product_algebra,
                             truncated_polynomial_algebra,
                             commutator_cokernel_invariants, zero_algebra)
from strathom.facthom import (ChainComplexBundle, cart_facthom_disk, connes_B,
                              cyclic_bar_set_level, cyclic_homology,
                              enr_facthom_disk, facthom_set_pi0,
                              hochschild_homology, negative_cyclic_homology,
                              _total_complex, thh_set_pi0)
from strathom.fincat import (discrete_category, monoid_category,
                             poset_category, walking_idempotent)
from strathom.indexing import standard_interval
from strathom.manifold import (GraphManifold, d0, disjoint_union,
                               pointed_circle, smooth_circle)
from strathom.cyclo import cyclic_group_table, symmetric_group_table


POSET = poset_category(("0", "1"), lambda a, b: a <= b)


# -- cartesian evaluation over disks ------------------------------------------------

def test_point_evaluates_to_level_zero():
    nv = nerve(POSET, 1)
    out = cart_facthom_disk(d0(), nv)
    assert len(out) == len(nv.level(0)) == 2


def test_interval_two_gives_composable_pairs():
    nv = nerve(POSET, 2)
    out = cart_facthom_disk(standard_interval(2), nv)
    assert len(out) == 4


def test_intervals_recover_segal_levels():
    nv = nerve(walking_idempotent(), 5)
    for n in range(6):
        out = cart_facthom_disk(standard_interval(n), nv)
        assert len(out) == len(nv.level(n))


def test_segal_check_rejects_non_segal_input():
    from strathom.fincat import SimplicialFinSet
    # two objects, two parallel edges, but level 2 deliberately too small
    levels = [("a",), ("f", "g"), ()]
    faces = {(1, 0): {"f": "a", "g": "a"}, (1, 1): {"f": "a", "g": "a"},
             (2, 0): {}, (2, 1): {}, (2, 2): {}}
    degens = {(0, 0): {"a": "f"}, (1, 0): {"f": (), "g": ()},
              (1, 1): {"f": (), "g": ()}}
    y = SimplicialFinSet(levels, faces, degens)
    with pytest.raises(ValueError):
        cart_facthom_disk(standard_interval(2), y, check_segal=2)


def test_loop_needs_matching_endpoint_labels():
    nv = nerve(POSET, 1)
    out = cart_facthom_disk(pointed_circle(), nv)
    # only identity edges label the loop
    assert len(out) == 2


# -- enriched evaluation over disks ----------------------------------------------------

def test_point_value_is_object_set():
    out = enr_facthom_disk(d0(), walking_idempotent())
    assert len(out) == 1
    out = enr_facthom_disk(d0(), discrete_category(("x", "y")))
    assert len(out) == 2


def test_pointed_circle_of_idempotent_has_two_points():
    assert len(enr_facthom_disk(pointed_circle(), walking_idempotent())) == 2


def test_interval_of_idempotent_has_two_points():
    assert len(enr_facthom_disk(standard_interval(1), walking_idempotent())) == 2


def test_linear_point_value_is_free_module_on_objects():
    mod = enr_facthom_disk(d0(), group_algebra(QQ, *cyclic_group_table(2)))
    assert mod.dim == 1
    mod = enr_facthom_disk(standard_interval(1),
                           group_algebra(QQ, *cyclic_group_table(2)))
    assert mod.dim == 2


def test_enriched_agrees_with_cartesian_route():
    cats = [walking_idempotent(), POSET, discrete_category(("x", "y"))]
    manifolds = [d0(), standard_interval(1), standard_interval(2),
                 pointed_circle(),
                 GraphManifold(("u", "w"), (("p", "u", "w"), ("q", "u", "w")))]
    for cat in cats:
        nv = nerve(cat, 1)
        for m in manifolds:
            assert len(enr_facthom_disk(m, cat)) \
                == len(cart_facthom_disk(m, nv))


# -- pi_0 over general manifolds ----------------------------------------------------------

def test_point_plus_circle_of_idempotent():
    m = disjoint_union(d0(), smooth_circle())
    assert len(facthom_set_pi0(m, walking_idempotent())) == 2


def test_two_circles_of_z4():
    m = disjoint_union(smooth_circle(), smooth_circle())
    cat = monoid_category(*cyclic_group_table(4))
    assert len(facthom_set_pi0(m, cat)) == 16


def test_empty_manifold_gives_singleton():
    m = GraphManifold((), (), 0)
    assert len(facthom_set_pi0(m, walking_idempotent())) == 1


# -- trace classes ---------------------------------------------------------------------------

def test_idempotent_has_two_classes():
    table = thh_set_pi0(walking_idempotent())
    assert len(table) == 2
    assert table.classes() == [("id",), ("phi",)]


def test_abelian_group_classes_are_elements():
    cat = monoid_category(*cyclic_group_table(4))
    assert len(thh_set_pi0(cat)) == 4


def test_s3_classes_are_conjugacy_classes():
    cat = monoid_category(*symmetric_group_table(3))
    assert len(thh_set_pi0(cat)) == 3


def test_word_class_reduces_to_composite():
    cat = poset_category(("0", "1"), lambda a, b: a <= b)
    table = thh_set_pi0(cat)
    assert table.word_class(("0<=0", "0<=0")) == table.class_of("0<=0")


def test_trace_table_json_shape():
    data = thh_set_pi0(walking_idempotent()).to_json_dict()
    assert data == {"classes": [{"rep": "id", "members": ["id"]},
                                {"rep": "phi", "members": ["phi"]}]}


# -- cyclic bar levels --------------------------------------------------------------------------

def test_set_cyclic_bar_level_sizes():
    lvl = cyclic_bar_set_level(walking_idempotent(), 1)
    assert len(lvl.elements) == 4
    lvl0 = cyclic_bar_set_level(walking_idempotent(), 0)
    assert len(lvl0.elements) == 2
    assert all(lvl0.cyclic[e] == e for e in lvl0.elements)


def test_set_cyclic_bar_simplicial_and_cyclic_identities():
    cat = monoid_category(*cyclic_group_table(2))
    lv1 = cyclic_bar_set_level(cat, 1)
    lv2 = cyclic_bar_set_level(cat, 2)
    # d_i d_j = d_{j-1} d_i for i < j, from level 2 to level 0
    for x in lv2.elements:
        for j in range(3):
            for i in range(j):
                assert lv1.faces[i][lv2.faces[j][x]] \
                    == lv1.faces[j - 1][lv2.faces[i][x]]
    # rotation has order n+1 on level n
    for x in lv2.elements:
        y = x
        for _ in range(3):
            y = lv2.cyclic[y]
        assert y == x
    # degeneracies insert units: d_i s_i = id
    for x in lv1.elements:
        for i in range(2):
            assert lv2.faces[i][lv1.degens[i][x]] == x
            assert lv2.faces[i + 1][lv1.degens[i][x]] == x


def test_linear_cyclic_bar_level_dims():
    assert ChainComplexBundle(ground_ring_algebra(QQ), 3).dims == [1, 1, 1, 1]
    assert ChainComplexBundle(
        group_algebra(QQ, *cyclic_group_table(2)), 2).dims == [2, 4, 8]


# -- Hochschild homology -----------------------------------------------------------------------

def test_hh_of_ground_ring():
    groups = hochschild_homology(ground_ring_algebra(QQ), 6)
    assert [g["rank"] for g in groups] == [1, 0, 0, 0, 0, 0, 0]
    assert all(g["torsion"] == [] for g in groups)


def test_hh_of_matrix_algebra_is_morita_trivial():
    groups = hochschild_homology(matrix_algebra(QQ, 2), 3)
    assert [g["rank"] for g in groups] == [1, 0, 0, 0]


def test_hh0_of_group_algebra_is_the_algebra():
    groups = hochschild_homology(group_algebra(QQ, *cyclic_group_table(2)), 1)
    assert groups[0]["rank"] == 2


def test_hh0_matches_commutator_cokernel_oracle():
    rng = random.Random(4)
    from strathom.checks import random_associative_algebra
    for seed in range(10):
        alg = random_associative_algebra(QQ, seed)
        groups = hochschild_homology(alg, 0)
        rank, torsion = commutator_cokernel_invariants(alg)
        assert groups[0]["rank"] == rank
        assert tuple(groups[0]["torsion"]) == torsion


def test_hh_integral_torsion_appears():
    # Z[Z/2] decomposes over conjugacy classes into two copies of the group
    # homology of Z/2, so HH_1 = Z/2 + Z/2 and HH_2 = 0
    groups = hochschild_homology(group_algebra(ZZ, *cyclic_group_table(2)), 2)
    assert groups[0] == {"degree": 0, "rank": 2, "torsion": []}
    assert groups[1] == {"degree": 1, "rank": 0, "torsion": [2, 2]}
    assert groups[2] == {"degree": 2, "rank": 0, "torsion": []}


# -- cyclic homology ------------------------------------------------------------------------------

def test_hc_of_ground_ring_alternates():
    groups = cyclic_homology(ground_ring_algebra(QQ), 6)
    assert [g["rank"] for g in groups] == [1, 0, 1, 0, 1, 0, 1]


def test_hc_of_zero_algebra_vanishes():
    groups = cyclic_homology(zero_algebra(QQ), 3)
    assert [g["rank"] for g in groups] == [0, 0, 0, 0]


def test_hc_additive_over_product_rings():
    one = ground_ring_algebra(QQ)
    groups = cyclic_homology(product_algebra(one, one), 4)
    single = cyclic_homology(one, 4)
    assert [g["rank"] for g in groups] == [2 * g["rank"] for g in single]


def test_negative_cyclic_reports_truncation():
    # the negative theory of the ground field sits in degrees <= 0, so the
    # computed range is rank 1 at 0 and zero above
    result = negative_cyclic_homology(ground_ring_algebra(QQ), 2, i_max=2)
    assert result["truncated_at_column"] == 2
    assert result["exact"] is True
    assert [g["rank"] for g in result["groups"]] == [1, 0, 0]


@pytest.mark.parametrize("name, alg, separable", [
    ("Z[Z/3]", group_algebra(ZZ, *cyclic_group_table(3)), False),
    ("Z[x]/(x^2)", truncated_polynomial_algebra(ZZ, 2), False),
    ("M_2(Z)", matrix_algebra(ZZ, 2), True),
    ("M_2(Q)", matrix_algebra(QQ, 2), True),
    ("Q[Z/3]", group_algebra(QQ, *cyclic_group_table(3)), True),
])
def test_negative_cyclic_claims_exact_only_with_a_certificate(name, alg,
                                                              separable):
    result = negative_cyclic_homology(alg, 2, i_max=1)
    assert result["exact"] is separable, name
    assert result["certificate"] == ("separable" if separable else None)
    assert result["hh_vanishes_above"] == (0 if separable else None)
    # the certificate's promise, checked against the engine: HH_n = 0, n > 0
    if separable:
        hh = hochschild_homology(alg, 3)
        assert all(g["rank"] == 0 and not g["torsion"] for g in hh[1:])


def test_negative_cyclic_rejects_a_negative_column_bound():
    # a negative i_max leaves no column, and so no group, to compute
    alg = group_algebra(QQ, *cyclic_group_table(2))
    with pytest.raises(ValueError, match="i_max"):
        negative_cyclic_homology(alg, 2, i_max=-1)


def test_negative_cyclic_of_z_z3_is_not_exact():
    # periodic HH (Burghelea): HH_5 = (Z/3)^3 lies beyond the degrees that
    # `--max-degree 2 --i-max 1` computes, so no vanishing range is claimed
    alg = group_algebra(ZZ, *cyclic_group_table(3))
    assert hochschild_homology(alg, 5)[5]["torsion"] == [3, 3, 3]
    assert negative_cyclic_homology(alg, 2, i_max=1)["exact"] is False


# -- mixed complex identities -----------------------------------------------------------------------

# -- the (b, B) total complex shared by HC and HC^- --------------------------------------

MIXED = mixed_algebras()


@pytest.mark.parametrize("alg, depth", [m[1:] for m in MIXED],
                         ids=[m[0] for m in MIXED])
def test_column_zero_alone_is_the_hochschild_complex(alg, depth):
    assert negative_cyclic_homology(alg, depth - 1, i_max=0)["groups"] \
        == hochschild_homology(alg, depth - 1)


@pytest.mark.parametrize("alg, depth", [m[1:] for m in MIXED],
                         ids=[m[0] for m in MIXED])
def test_total_complex_differential_squares_to_zero(alg, depth):
    n_hc, n_neg, i_max = depth - 1, depth - 3, 1
    cases = [(ChainComplexBundle(alg, n_hc + 1), n_hc, range(n_hc // 2 + 2)),
             (ChainComplexBundle(alg, n_neg + 2 * i_max + 1), n_neg,
              range(0, -i_max - 1, -1))]
    for complex_, n_max, columns in cases:
        dims, mats = _total_complex(complex_, n_max, columns)
        assert len(dims) == len(mats) == n_max + 2
        assert [m.ncols for m in mats] == dims
        for lower, upper in zip(mats, mats[1:]):
            square = lower.mul(upper)
            assert all(alg.ring.is_zero(v) for row in square.rows
                       for v in row.values())


def test_connes_b_degree_zero_against_identities():
    alg = ground_ring_algebra(QQ)
    cx = ChainComplexBundle(alg, 3)
    assert cx.validate() == []
    b0 = connes_B(alg, 0)
    assert b0.nrows == 1 and b0.ncols == 1


def test_b_squared_vanishes_for_any_algebra():
    alg = truncated_polynomial_algebra(QQ, 2)
    cx = ChainComplexBundle(alg, 3)
    assert cx.connes_b[1].mul(cx.connes_b[0]).is_zero()


def test_mixed_identity_for_group_algebra_in_low_degree():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    cx = ChainComplexBundle(alg, 3)
    mixed = cx.boundaries[2].mul(cx.connes_b[1]).add(
        cx.connes_b[0].mul(cx.boundaries[1]))
    assert mixed.nrows == 4 and mixed.ncols == 4
    assert mixed.is_zero()
    assert cx.validate() == []


def test_randomized_algebras_satisfy_chain_identities():
    from strathom.checks import random_associative_algebra
    from strathom.enrich import validate_linear_category
    count = 0
    for seed in range(35):
        alg = random_associative_algebra(QQ, seed)
        if alg.dim("*", "*") > 3:
            continue
        assert validate_linear_category(alg) == []
        assert ChainComplexBundle(alg, 3).validate() == []
        count += 1
    assert count >= 20


# -- Connes' B: the closed formula against the product form ------------------------------

def _connes_b_oracle(cx, n):
    """Oracle: B = (1 - t) s N on C_n as `SparseMat` products, with t the
    signed cyclic operator, N = sum_k t^k its norm and s the extra
    degeneracy (the unit put in front).  This is the product form that
    `ChainComplexBundle` multiplies out."""
    t = cx.cyclic[n]
    power = norm = SparseMat.identity(cx.dims[n])
    for _ in range(n):
        power = t.mul(power)
        norm = norm.add(power)
    extra = SparseMat.from_columns(cx.dims[n + 1], [
        {cx.index[n + 1][((xs[0],) + xs, (k,) + gs)]: c
         for k, c in cx.category.unit_vector(xs[0]).items()}
        for xs, gs in cx.bases[n]])
    minus_t = SparseMat(cx.dims[n + 1], cx.dims[n + 1],
                        [{j: -v for j, v in row.items()}
                         for row in cx.cyclic[n + 1].rows])
    one_minus_t = SparseMat.identity(cx.dims[n + 1]).add(minus_t)
    return one_minus_t.mul(extra).mul(norm)


def _json_copy(alg):
    from strathom.enrich import LinearCategory
    return LinearCategory.from_json_dict(alg.to_json_dict())


B_CASES = MIXED + [
    ("Z[Z/3]", group_algebra(ZZ, *cyclic_group_table(3)), 3),
    ("F7[Z/3]", group_algebra(RingFp(7), *cyclic_group_table(3)), 3),
    ("Q[Z/3] from JSON", _json_copy(group_algebra(QQ, *cyclic_group_table(3))), 3),
    ("Q x Q[x]/x^2", product_algebra(ground_ring_algebra(QQ),
                                     truncated_polynomial_algebra(QQ, 2)), 3),
]


@pytest.mark.parametrize("alg, depth", [m[1:] for m in B_CASES],
                         ids=[m[0] for m in B_CASES])
def test_connes_b_closed_form_matches_product_form(alg, depth):
    # validate() alone cannot catch a wrong B: B = 0 satisfies bB + Bb = 0
    # and BB = 0
    cx = ChainComplexBundle(alg, depth)
    for n in range(depth):
        assert cx.connes_b[n] == _connes_b_oracle(cx, n), n


# -- groupoid object sets ---------------------------------------------------------------------

def _contractible_groupoid():
    homs = {("x", "x"): ("ix",), ("y", "y"): ("iy",),
            ("x", "y"): ("a",), ("y", "x"): ("ai",)}
    compose = {("ix", "ix"): "ix", ("iy", "iy"): "iy",
               ("a", "ix"): "a", ("iy", "a"): "a",
               ("ai", "iy"): "ai", ("ix", "ai"): "ai",
               ("ai", "a"): "ix", ("a", "ai"): "iy"}
    from strathom.fincat import FinCategory
    return FinCategory(("x", "y"), homs, compose, {"x": "ix", "y": "iy"})


def test_groupoid_quotient_identifies_isomorphic_labelings():
    g = _contractible_groupoid()
    assert len(enr_facthom_disk(d0(), g)) == 2
    assert len(enr_facthom_disk(d0(), g, groupoid_isos=("a",))) == 1
    from strathom.manifold import d1
    assert len(enr_facthom_disk(d1(), g, groupoid_isos=("a",))) == 1


def test_groupoid_quotient_rejects_non_iso():
    with pytest.raises(ValueError, match="'phi' is not invertible"):
        enr_facthom_disk(d0(), walking_idempotent(), groupoid_isos=("phi",))


def test_linear_groupoid_coinvariants_over_field():
    from strathom.enrich import LinearCategory, validate_linear_category
    g = _contractible_groupoid()
    src = {"ix": "x", "iy": "y", "a": "x", "ai": "y"}
    tgt = {"ix": "x", "iy": "y", "a": "y", "ai": "x"}
    sc = {}
    for (h2, h1), h in g.compose_table.items():
        key = (src[h1], tgt[h1], tgt[h2])
        sc.setdefault(key, {})[(h1, h2)] = {h: 1}
    lin = LinearCategory(QQ, ("x", "y"),
                         {k: tuple(v) for k, v in g.homs.items()},
                         sc, {"x": {"ix": 1}, "y": {"iy": 1}})
    assert validate_linear_category(lin) == []
    mod = enr_facthom_disk(d0(), lin, groupoid_isos=(("x", "y", "a"),))
    assert mod.dim == 1
    from strathom.enrich import group_algebra
    z_lin = group_algebra(ZZ, *cyclic_group_table(2))
    with pytest.raises(NotImplementedError):
        enr_facthom_disk(d0(), z_lin, groupoid_isos=(("*", "*", "1"),))


# -- empty categories ----------------------------------------------------------------------------

def test_empty_category_gives_empty_values():
    empty = discrete_category(())
    assert enr_facthom_disk(d0(), empty) == ()
    assert len(thh_set_pi0(empty)) == 0


# -- unified cyclic bar levels ---------------------------------------------------------------------

def test_cyclic_bar_level_dispatches_on_backend():
    from strathom.facthom import LinearCyclicLevel, SetCyclicLevel, \
        cyclic_bar_level
    assert isinstance(cyclic_bar_level(walking_idempotent(), 1),
                      SetCyclicLevel)
    lvl = cyclic_bar_level(group_algebra(QQ, *cyclic_group_table(2)), 1)
    assert isinstance(lvl, LinearCyclicLevel)
    assert lvl.module.dim == 4


def test_linear_level_matrices_satisfy_simplicial_identities():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    from strathom.facthom import cyclic_bar_level
    lv2 = cyclic_bar_level(alg, 2)
    lv1 = cyclic_bar_level(alg, 1)
    # d_i d_j = d_{j-1} d_i for i < j
    for j in range(3):
        for i in range(j):
            lhs = lv1.faces[i].mul(lv2.faces[j])
            rhs = lv1.faces[j - 1].mul(lv2.faces[i])
            assert lhs == rhs
    # d_i s_i = id = d_{i+1} s_i
    from strathom.exactla import SparseMat
    ident = SparseMat.identity(lv1.module.dim)
    for i in range(2):
        assert lv2.faces[i].mul(lv1.degens[i]) == ident
        assert lv2.faces[i + 1].mul(lv1.degens[i]) == ident


# -- Burghelea and universal coefficients over Z ----------------------------------------
#
# Burghelea: HH_n(Z[G]) is the sum over g in G (G abelian) of H_n(G; Z), and
# HC_n(Z[G]) the sum over g of H_n(B(S^1 x G/<g>); Z), i.e. of
# H_(n-2i)(G/<g>; Z) for i >= 0.  For G = Z/m, G/<g> = Z/gcd(g, m), and
# H_j(Z/c; Z) is Z for j = 0, Z/c for odd j and 0 for even j > 0.

def _invariant_factors(orders):
    """Invariant factors d_1 | d_2 | ... of the sum of Z/n over `orders`."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    out = [1] * max(map(len, powers.values()), default=0)
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            out[k] *= q
    return sorted(out)


def _burghelea(verb, m, n):
    """(rank, torsion) of HH_n or HC_n of Z[Z/m]."""
    if n % 2 == 0:
        return (m if n == 0 or verb == "hc" else 0), []
    if verb == "hh":
        return 0, _invariant_factors([m] * m)
    return 0, _invariant_factors([math.gcd(g, m) for g in range(m)]
                                 * ((n + 1) // 2))


@pytest.mark.parametrize("verb", ["hh", "hc"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_integral_group_algebra_matches_burghelea(verb, m):
    engine = hochschild_homology if verb == "hh" else cyclic_homology
    groups = engine(group_algebra(ZZ, *cyclic_group_table(m)), 3)
    assert [(g["rank"], g["torsion"]) for g in groups] == \
        [_burghelea(verb, m, n) for n in range(4)]


@pytest.mark.parametrize("verb", ["hh", "hc"])
@pytest.mark.parametrize("m,p", [(2, 2), (3, 3), (4, 2)])
def test_universal_coefficients_z_against_fp(verb, m, p):
    # dim H_n(C ⊗ F_p) = rank H_n + #{p | d in tors H_n} + #{p | d in tors H_(n-1)}
    engine = hochschild_homology if verb == "hh" else cyclic_homology
    table = cyclic_group_table(m)
    over_z = engine(group_algebra(ZZ, *table), 3)
    over_fp = engine(group_algebra(RingFp(p), *table), 3)
    for n, g in enumerate(over_fp):
        below = over_z[n - 1]["torsion"] if n else []
        expected = (over_z[n]["rank"]
                    + sum(d % p == 0 for d in over_z[n]["torsion"])
                    + sum(d % p == 0 for d in below))
        assert g["rank"] == expected, (verb, m, p, n)
