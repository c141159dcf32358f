import itertools
import math
import random
from fractions import Fraction

import pytest

from strathom.checks import (mixed_algebras, random_segal_category,
                             small_category_pool, small_manifold_pool)
from strathom.exactla import (QQ, RingFp, SparseMat, ZZ, chain_homology,
                              smith_invariant_factors)
from strathom.enrich import (delinearize, ground_ring_algebra, group_algebra,
                             linearize, matrix_algebra, nerve,
                             truncated_polynomial_algebra,
                             commutator_cokernel_invariants)
from strathom.facthom import (ChainComplexBundle, LinearCyclicLevel,
                              _bar_elements, _group_chains, _merged_torsion,
                              centralizer_homology, centralizer_summands,
                              complex_dims,
                              SetCyclicBar, cart_facthom_disk,
                              cyclic_homology, enr_facthom_disk,
                              facthom_set_pi0, hochschild_homology,
                              negative_cyclic_homology, _total_complex,
                              thh_set_pi0)
from strathom.fincat import (UnionFind, discrete_category, generating_set,
                             monoid_category, poset_category,
                             walking_idempotent)
from strathom.indexing import standard_interval
from strathom.manifold import (GraphManifold, cycle_graph, d0,
                               disjoint_union, pointed_circle, smooth_circle)
from strathom.cyclo import (cyclic_group_table, free_monoid_category,
                            group_category, quaternion_group_table,
                            symmetric_group_table)

from helpers import product_algebra, separability_pool, zero_algebra


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
    y = SimplicialFinSet(levels, lambda n, i, x: faces[(n, i)][x],
                         lambda n, i, x: degens[(n, i)][x])
    assert not y.is_segal(2)


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
    assert facthom_set_pi0(m, walking_idempotent()).cardinality == 2


def test_two_circles_of_z4():
    m = disjoint_union(smooth_circle(), smooth_circle())
    cat = monoid_category(*cyclic_group_table(4))
    assert facthom_set_pi0(m, cat).cardinality == 16


def test_empty_manifold_gives_singleton():
    m = GraphManifold((), (), 0)
    assert facthom_set_pi0(m, walking_idempotent()).cardinality == 1


def test_count_past_sys_maxsize_is_exact():
    """64 circles of the walking idempotent have 2^64 labellings, past
    `sys.maxsize`: `cardinality` is exact, and there is no `len` to
    overflow."""
    value = facthom_set_pi0(GraphManifold((), (), 64), walking_idempotent())
    assert value.cardinality == 2 ** 64 == 18446744073709551616
    with pytest.raises(TypeError):
        len(value)


def test_disk_components_are_counted_without_enumerating(monkeypatch):
    """A 64-edge interval of the walking idempotent has 2^64 edge
    decorations: each disk component is held by its count, and its elements
    are built (by `enr_facthom_disk`) only when the product is iterated."""
    import time
    from strathom import facthom

    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("a disk component was enumerated")
    monkeypatch.setattr(facthom, "enr_facthom_disk", enumerate_nothing)
    start = time.perf_counter()
    value = facthom_set_pi0(standard_interval(64), walking_idempotent())
    assert value.cardinality == 2 ** 64
    assert time.perf_counter() - start < 1
    with pytest.raises(AssertionError, match="was enumerated"):
        next(iter(value))


def test_disk_count_is_the_size_of_the_disk_value():
    from strathom.facthom import _disk_count
    for cname, cat in small_category_pool():
        lin = linearize(cat, QQ)
        for mname, m in small_manifold_pool(3):
            size = len(enr_facthom_disk(m, cat))
            assert _disk_count(m, cat) == size, (cname, mname)
            assert _disk_count(m, lin) == enr_facthom_disk(m, lin).dim == size
            value = facthom_set_pi0(m, cat)
            assert value.cardinality == math.prod(
                len(enr_facthom_disk(m.subgraph(*c), cat))
                for c in m.graph_components()), (cname, mname)


def test_circles_are_one_factor_with_a_multiplicity_in_product_order():
    cat = monoid_category(*cyclic_group_table(3))
    m = disjoint_union(disjoint_union(d0(), smooth_circle()), smooth_circle())
    value = facthom_set_pi0(m, cat)
    disk = enr_facthom_disk(d0(), cat)
    classes = thh_set_pi0(cat).class_representatives()
    assert value.times == 2
    assert list(value) == list(itertools.product(disk, classes, classes))
    assert value.cardinality == len(disk) * 9
    assert math.isclose(value.log10_cardinality(),
                        math.log10(value.cardinality))
    empty = facthom_set_pi0(m, discrete_category(()))
    assert empty.cardinality == 0 and list(empty) == []
    assert empty.log10_cardinality() == -math.inf


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
    bar = SetCyclicBar(walking_idempotent(), 1)
    assert len(bar.level(1)) == 4
    assert len(bar.level(0)) == 2
    assert all(bar.cyclic[0][e] == e for e in bar.level(0))


def test_set_cyclic_bar_simplicial_and_cyclic_identities():
    bar = SetCyclicBar(monoid_category(*cyclic_group_table(2)), 2)
    # d_i d_j = d_{j-1} d_i for i < j, and d_i s_i = d_{i+1} s_i = id
    assert bar.validate_identities() == []
    # rotation has order n+1 on level n
    for x in bar.level(2):
        y = x
        for _ in range(3):
            y = bar.cyclic[2][y]
        assert y == x


def test_linear_cyclic_bar_level_dims():
    # unnormalized levels have dimension d^(n+1), the normalized mixed
    # complex d(d-1)^n
    one = ground_ring_algebra(QQ)
    z2 = group_algebra(QQ, *cyclic_group_table(2))
    assert [LinearCyclicLevel(one, n).module.dim for n in range(4)] \
        == [1, 1, 1, 1]
    assert [LinearCyclicLevel(z2, n).module.dim for n in range(3)] == [2, 4, 8]
    assert ChainComplexBundle(one, 3).dims == [1, 0, 0, 0]
    assert ChainComplexBundle(z2, 2).dims == [2, 2, 2]
    z3 = group_algebra(QQ, *cyclic_group_table(3))
    assert ChainComplexBundle(z3, 6).dims[6] == 3 * 2 ** 6  # not 3^7 = 2,187


# level n is disk evaluation over the circle with n + 1 marked points; the
# vertices v0..vn sort by name in that order only while n + 1 <= 10.  In
# the pool a cyclic string stays at one object; in the codiscrete groupoid
# on two objects it can pass through both.
BAR_CATEGORIES = small_category_pool() + [
    ("S_3", group_category(*symmetric_group_table(3))),
    ("Q_8", group_category(*quaternion_group_table())),
    ("pair01", poset_category(("0", "1"), lambda a, b: True))]


@pytest.mark.parametrize("name, cat", BAR_CATEGORIES,
                         ids=[name for name, _ in BAR_CATEGORIES])
def test_set_cyclic_bar_is_a_cyclic_set(name, cat):
    # Loday, *Cyclic Homology*, §6.1, with t the rotation of level n
    bar = SetCyclicBar(cat, 3)
    assert bar.validate_identities() == []
    d, s, t = bar.faces, bar.degens, bar.cyclic
    for n in range(1, 4):
        for x in bar.level(n):
            for i in range(1, n + 1):
                assert d[(n, i)][t[n][x]] == t[n - 1][d[(n, i - 1)][x]]
            assert d[(n, 0)][t[n][x]] == d[(n, n)][x]
    for n in range(3):
        for x in bar.level(n):
            for i in range(1, n + 1):
                assert s[(n, i)][t[n][x]] == t[n + 1][s[(n, i - 1)][x]]
            assert s[(n, 0)][t[n][x]] == t[n + 1][t[n + 1][s[(n, n)][x]]]
    for n in range(4):
        for x in bar.level(n):
            y = x
            for _ in range(n + 1):
                y = t[n][y]
            assert y == x


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("name, cat", BAR_CATEGORIES,
                         ids=[name for name, _ in BAR_CATEGORIES])
def test_set_bar_level_is_disk_evaluation_on_the_marked_circle(name, cat, n):
    assert _bar_elements(cat, n) \
        == list(enr_facthom_disk(cycle_graph(n + 1), cat))


@pytest.mark.parametrize("n", range(4))
def test_linear_bar_level_is_disk_evaluation_on_the_marked_circle(n):
    for name, alg, _ in mixed_algebras():
        assert _bar_elements(alg, n) \
            == list(enr_facthom_disk(cycle_graph(n + 1), alg).basis), name


# -- trace classes against the all-pairs oracle ------------------------------------------------

def _all_pairs_trace_classes(cat):
    """Labelled oracle for `TraceClassTable`: the trace relation g∘f ~ f∘g
    imposed for every composable pair of the table, where the table
    imposes it only for f in a generating set."""
    uf = UnionFind(m for m in cat.morphisms() if cat.src(m) == cat.tgt(m))
    for (g, f), h in cat.compose_table.items():
        if cat.src(f) == cat.tgt(g):
            fg = cat.compose_table.get((f, g))
            if fg is not None:
                uf.union(h, fg)
    return uf.classes()


TRACE_ORACLE_CATEGORIES = BAR_CATEGORIES + [
    ("S_4", group_category(*symmetric_group_table(4))),
    ("S_5", group_category(*symmetric_group_table(5)))] + [
    (f"Z/{n}", group_category(*cyclic_group_table(n))) for n in range(1, 8)] + [
    (f"free({m},{b})", free_monoid_category(m, b))
    for m in range(1, 4) for b in range(7)] + [
    (f"segal{seed}", random_segal_category(seed)) for seed in range(20)]


@pytest.mark.parametrize("name, cat", TRACE_ORACLE_CATEGORIES,
                         ids=[name for name, _ in TRACE_ORACLE_CATEGORIES])
def test_trace_classes_from_generators_match_the_all_pairs_oracle(name, cat):
    assert thh_set_pi0(cat).classes() == _all_pairs_trace_classes(cat)


def test_generators_that_are_not_endomorphisms_still_rotate():
    # in the codiscrete pair 0<=0 = (1<=0)∘(0<=1) ~ (0<=1)∘(1<=0) = 1<=1,
    # a relation that only the generators 0<=1 and 1<=0 impose
    cat = poset_category(("0", "1"), lambda a, b: True)
    assert generating_set(cat) == ["0<=1", "1<=0"]
    assert thh_set_pi0(cat).classes() == [("0<=0", "1<=1")]


def test_free_monoid_is_generated_by_its_letters():
    assert generating_set(free_monoid_category(3, 5)) == ["a", "b", "c"]


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


def test_complex_dims_are_the_built_complex_dims():
    # the dims the CLI sizes its memory check by, from the hom sizes alone,
    # against the bases the complex enumerates; the generator ends only
    # once every later dim is 0
    pool = separability_pool() + [
        ("zero", zero_algebra(QQ)), ("Z[x]/x^3",
                                     truncated_polynomial_algebra(ZZ, 3))]
    for name, alg in pool:
        built = ChainComplexBundle(alg, 3).dims
        counted = list(itertools.islice(complex_dims(alg), 4))
        assert counted + [0] * (4 - len(counted)) == built, name
    assert list(complex_dims(ground_ring_algebra(QQ))) == [1]
    assert list(complex_dims(linearize(POSET, QQ))) == [2, 0]
    assert list(complex_dims(zero_algebra(QQ))) == [0]


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
    b0 = cx.connes_b[0]
    # the normalized C_1 = k ⊗ k/k is zero
    assert b0.nrows == 0 and b0.ncols == 1


def test_b_squared_vanishes_for_any_algebra():
    alg = truncated_polynomial_algebra(QQ, 2)
    cx = ChainComplexBundle(alg, 3)
    assert cx.connes_b[1].mul(cx.connes_b[0]).is_zero()


def test_mixed_identity_for_group_algebra_in_low_degree():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    cx = ChainComplexBundle(alg, 3)
    mixed = cx.boundaries[2].mul(cx.connes_b[1]).add(
        cx.connes_b[0].mul(cx.boundaries[1]))
    assert mixed.nrows == 2 and mixed.ncols == 2
    assert mixed.is_zero()
    assert cx.validate() == []


def test_bundle_with_identities_for_b_and_connes_b_fails_every_identity():
    # Q[Z/2] has C_n = Q^2 in every degree; the identity in place of each
    # b and B breaks b b = 0, b B + B b = 0 and B B = 0 wherever checked
    cx = ChainComplexBundle(group_algebra(QQ, *cyclic_group_table(2)), 3)
    assert cx.dims == [2, 2, 2, 2]
    identity = SparseMat.from_columns(2, [{0: 1}, {1: 1}])
    cx.boundaries = [None] + [identity] * 3
    cx.connes_b = [identity] * 3
    assert cx.validate() == [
        "b b != 0 out of degree 2", "b b != 0 out of degree 3",
        "b B + B b != 0 at degree 1", "b B + B b != 0 at degree 2",
        "B B != 0 at degree 0", "B B != 0 at degree 1"]


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


# -- the normalized mixed complex against the unnormalized one ----------------------------
#
# The oracle is the unnormalized complex, assembled from `LinearCyclicLevel`s:
# b = sum (-1)^i d_i, and B = (1 - t) s N as `SparseMat` products.  The
# projection pi : C -> C_bar onto A ⊗ Ā^(⊗n) is built from the unnormalized
# bases, and the normalized complex must satisfy pi b = b_bar pi and
# pi B = B_bar pi.

def _negated(mat):
    return SparseMat(mat.nrows, mat.ncols,
                     [{j: -v for j, v in row.items()} for row in mat.rows])


def _same_map(ring, a, b):
    return (a.nrows, a.ncols) == (b.nrows, b.ncols) and all(
        ring.is_zero(v) for row in a.add(_negated(b)).rows
        for v in row.values())


def _boundary_oracle(level):
    """b = sum (-1)^i d_i on the unnormalized level."""
    total = SparseMat(level.faces[0].nrows, level.faces[0].ncols)
    for i, face in enumerate(level.faces):
        total = total.add(face if i % 2 == 0 else _negated(face))
    return total


def _connes_b_oracle(alg, level, up):
    """Oracle: B = (1 - t) s N on C_n as `SparseMat` products, with t the
    signed cyclic operator, N = sum_k t^k its norm and s the extra
    degeneracy (the unit put in front); `level` and `up` are the
    unnormalized levels n and n + 1."""
    t = level.cyclic
    power = norm = SparseMat.identity(level.module.dim)
    for _ in range(level.n):
        power = t.mul(power)
        norm = norm.add(power)
    extra = SparseMat.from_columns(up.module.dim, [
        {up.module.index[((xs[0],) + xs, (k,) + gs)]: c
         for k, c in alg.unit_vector(xs[0]).items()}
        for xs, gs in level.module.basis])
    one_minus_t = SparseMat.identity(up.module.dim).add(_negated(up.cyclic))
    return one_minus_t.mul(extra).mul(norm)


def _slot_projection(alg, x, y, g):
    """g in hom(x, y) as a vector of Ā: in an endomorphism slot the pivot
    b*, the first basis element with an invertible unit coefficient, goes to
    -(u - u_(b*) b*) / u_(b*)."""
    ring = alg.ring
    u = ring.reduce(alg.unit_vector(x)) if x == y else {}
    pivot = next((b for b in alg.hom(x, x) if b in u
                  and (ring.is_field or u[b] in (1, -1))), None)
    if g != pivot:
        return {g: 1}
    inverse = ring.normalize(Fraction(1, u[g]))
    return {k: -c * inverse for k, c in u.items() if k != g}


def _projection(alg, level, cx):
    """pi : C_n -> C_bar_n, slot by slot on the unnormalized basis."""
    n, cols = level.n, []
    for xs, gs in level.module.basis:
        slots = [{gs[0]: 1}] + [
            _slot_projection(alg, xs[i], xs[(i + 1) % (n + 1)], gs[i])
            for i in range(1, n + 1)]
        col = {}
        for combo in itertools.product(*(v.items() for v in slots)):
            row = cx.index[n][(xs, tuple(g for g, _ in combo))]
            col[row] = col.get(row, 0) + math.prod(c for _, c in combo)
        cols.append(col)
    return SparseMat.from_columns(cx.dims[n], cols)


def _normalization_failures(alg, depth):
    cx = ChainComplexBundle(alg, depth)
    levels = [LinearCyclicLevel(alg, n) for n in range(depth + 1)]
    pi = [_projection(alg, level, cx) for level in levels]
    failures = []
    for n in range(1, depth + 1):
        if not _same_map(alg.ring, pi[n - 1].mul(_boundary_oracle(levels[n])),
                         cx.boundaries[n].mul(pi[n])):
            failures.append(f"pi b != b pi out of degree {n}")
    for n in range(depth):
        big_b = _connes_b_oracle(alg, levels[n], levels[n + 1])
        if not _same_map(alg.ring, pi[n + 1].mul(big_b),
                         cx.connes_b[n].mul(pi[n])):
            failures.append(f"pi B != B pi out of degree {n}")
    return failures


def test_q_ranks_never_reach_smith_form(monkeypatch):
    """A rank over Q is one field elimination, and Smith form serves Z
    alone.  The oracle is Smith form over Z after scaling each row to
    integers, which does not change the rank."""
    from strathom.exactla import _Core, smith_invariant_factors
    cases = []
    for name, alg, depth in mixed_algebras():
        for b in ChainComplexBundle(alg, depth).boundaries[1:]:
            rows = [{j: int(v * math.lcm(*(Fraction(w).denominator
                                           for w in row.values())))
                     for j, v in row.items()} for row in b.rows]
            cases.append((name, b, len(smith_invariant_factors(
                SparseMat(b.nrows, b.ncols, rows)))))

    def smith(self):
        raise AssertionError("a rank over Q reached Smith form")
    monkeypatch.setattr(_Core, "smith", smith)
    for name, b, rank in cases:
        assert b.rank(QQ) == rank, name
    for name, alg, depth in mixed_algebras():
        if alg.ring == QQ:
            hochschild_homology(alg, depth - 1)
            cyclic_homology(alg, depth - 1)


def _json_copy(alg):
    from strathom.enrich import LinearCategory
    return LinearCategory.from_json_dict(alg.to_json_dict())


def _chaotic_xy(ring):
    """The linearized chaotic category on {x, y}: one morphism each way."""
    return linearize(poset_category(("x", "y"), lambda a, b: True), ring)


def _a2_path(ring):
    """The A_2 path category: 1 -> 2, nothing back."""
    return linearize(poset_category(("1", "2"), lambda a, b: a <= b), ring)


def _rescaled(alg, b, c):
    """A one-object algebra with its basis element b standing for c·b, so
    that the unit's b coordinate is divided by c."""
    from strathom.enrich import algebra_from_table
    ring, obj = alg.ring, alg.objects[0]
    inverse = ring.normalize(Fraction(1, c))

    def rebased(vec, scale=1):
        return ring.reduce({k: v * scale * (inverse if k == b else 1)
                            for k, v in vec.items()})
    basis = alg.hom(obj, obj)
    table = {(i, j): rebased(alg.compose_basis(obj, obj, obj, i, j),
                             (c if i == b else 1) * (c if j == b else 1))
             for i in basis for j in basis}
    return algebra_from_table(ring, basis, table, rebased(alg.unit_vector(obj)))


def _rescaled_basis(alg):
    """`_rescaled` at every basis element: the k-th for (k+2)/(2k+3) times
    itself, so that no structure constant is +-1."""
    (obj,) = alg.objects
    for k, b in enumerate(alg.hom(obj, obj)):
        alg = _rescaled(alg, b, Fraction(k + 2, 2 * k + 3))
    return alg


B_CASES = MIXED + [
    ("Z[Z/3]", group_algebra(ZZ, *cyclic_group_table(3)), 3),
    ("F7[Z/3]", group_algebra(RingFp(7), *cyclic_group_table(3)), 3),
    ("Q[Z/3] from JSON", _json_copy(group_algebra(QQ, *cyclic_group_table(3))), 3),
    ("Q x Q[x]/x^2", product_algebra(ground_ring_algebra(QQ),
                                     truncated_polynomial_algebra(QQ, 2)), 3),
]
NORMALIZATION_CASES = B_CASES + [
    ("zero", zero_algebra(QQ), 3),
    ("chaotic{x,y} over Z", _chaotic_xy(ZZ), 3),
    ("A_2 over F5", _a2_path(RingFp(5)), 3),
    # pivots whose unit coefficient is not 1
    ("M2(Q), E00 for 2 E00", _rescaled(matrix_algebra(QQ, 2), "E00", 2), 3),
    ("M2(Z), E00 for -E00", _rescaled(matrix_algebra(ZZ, 2), "E00", -1), 3),
]


@pytest.mark.parametrize("alg, depth", [m[1:] for m in NORMALIZATION_CASES],
                         ids=[m[0] for m in NORMALIZATION_CASES])
def test_connes_b_closed_form_matches_product_form(alg, depth):
    # validate() alone cannot catch a wrong B: B = 0 satisfies bB + Bb = 0
    # and BB = 0; so B_bar's closed form is checked against the product
    # form of the unnormalized B, and b_bar against b, through pi
    assert _normalization_failures(alg, depth) == []


def test_two_object_categories_drop_degenerate_endomorphism_slots():
    # every endomorphism hom is the ground ring, so slots 1..n must change
    # objects: chaotic{x,y} keeps the 2 alternating chains, and in A_2
    # every such chain needs a morphism 2 -> 1, which does not exist
    from strathom.enrich import validate_linear_category
    assert validate_linear_category(_chaotic_xy(ZZ)) == []
    assert validate_linear_category(_a2_path(RingFp(5))) == []
    assert ChainComplexBundle(_chaotic_xy(QQ), 3).dims == [2, 2, 2, 2]
    assert ChainComplexBundle(_a2_path(QQ), 2).dims == [2, 0, 0]
    hh = hochschild_homology(_chaotic_xy(ZZ), 2)
    assert [(g["rank"], g["torsion"]) for g in hh] == [(1, []), (0, []),
                                                      (0, [])]


def _unnormalized_groups(alg, n_hh, n_hc, n_neg, i_max):
    """HH, HC and HC^- of the unnormalized complex, the oracle."""
    from types import SimpleNamespace
    from strathom.facthom import _groups
    top = max(n_hh + 1, n_hc + 1, n_neg + 2 * i_max + 1)
    levels = [LinearCyclicLevel(alg, n) for n in range(top + 1)]
    oracle = SimpleNamespace(
        n_max=top, dims=[level.module.dim for level in levels],
        boundaries=[None] + [_boundary_oracle(lv) for lv in levels[1:]],
        connes_b=[_connes_b_oracle(alg, lv, up)
                  for lv, up in zip(levels, levels[1:])])
    hh = _groups(oracle.dims[:n_hh + 2], oracle.boundaries[:n_hh + 2],
                 alg.ring)
    hc = _groups(*_total_complex(oracle, n_hc, range(n_hc // 2 + 2)),
                 alg.ring)
    neg = _groups(*_total_complex(oracle, n_neg, range(0, -i_max - 1, -1)),
                  alg.ring)
    return hh, hc, neg


@pytest.mark.parametrize("ring", [QQ, RingFp(5), ZZ], ids=["Q", "F5", "Z"])
def test_normalized_groups_equal_the_unnormalized_oracle(ring):
    from strathom.checks import random_associative_algebra
    for seed in range(20):
        alg = random_associative_algebra(ring, seed)
        hh, hc, neg = _unnormalized_groups(alg, 3, 3, 1, 1)
        assert hochschild_homology(alg, 3) == hh, seed
        assert cyclic_homology(alg, 3) == hc, seed
        assert negative_cyclic_homology(alg, 1, 1)["groups"] == neg, seed


def _rational_cases():
    """(name, an algebra with non-integral scalars, an integral algebra
    isomorphic to it): a basis element b standing for c·b."""
    q, z3, m2, s3 = (ground_ring_algebra(QQ),
                     group_algebra(QQ, *cyclic_group_table(3)),
                     matrix_algebra(QQ, 2),
                     group_algebra(QQ, *symmetric_group_table(3)))
    return [
        ("Q, e = 2·1: e∘e = 2·e, 1 = (1/2)·e", _rescaled(q, "1", 2), q),
        ("Q, e = (1/2)·1: e∘e = (1/2)·e, 1 = 2·e",
         _rescaled(q, "1", Fraction(1, 2)), q),
        ("Q[Z/3], 1 for (3/2)·1", _rescaled(z3, "0", Fraction(3, 2)), z3),
        ("Q[Z/3], g for (2/3)·g", _rescaled(z3, "1", Fraction(2, 3)), z3),
        ("M2(Q), E01 for (1/2)·E01", _rescaled(m2, "E01", Fraction(1, 2)), m2),
        ("Q[S_3], each g_k for (k+2)/(2k+3)·g_k", _rescaled_basis(s3), s3),
    ]


@pytest.mark.parametrize("alg, integral", [c[1:] for c in _rational_cases()],
                         ids=[c[0] for c in _rational_cases()])
def test_rational_scalars_give_the_groups_of_the_integral_algebra(alg,
                                                                  integral):
    # the algebra goes through JSON, so its scalars are parsed from "p/q";
    # its groups must be those of the integral algebra it is isomorphic to,
    # and those of the unnormalized complex of `LinearCyclicLevel`s
    from strathom.enrich import validate_linear_category
    alg = _json_copy(alg)
    scalars = [c for table in alg.sc.values() for vec in table.values()
               for c in vec.values()]
    scalars += [c for vec in alg.units.values() for c in vec.values()]
    assert any(type(c) is Fraction for c in scalars)
    assert validate_linear_category(alg) == []
    hh, hc = hochschild_homology(alg, 3), cyclic_homology(alg, 3)
    assert hh == hochschild_homology(integral, 3)
    assert hc == cyclic_homology(integral, 3)
    # the unnormalized complex of a 6-dimensional algebra has 6^5 = 7,776
    # basis elements in degree 4, and its ranks take seconds: go to degree 2
    top = 3 if alg.dim("*", "*") <= 4 else 2
    assert (hh[:top + 1], hc[:top + 1]) == _unnormalized_groups(
        alg, top, top, 0, 0)[:2]


def test_z_unit_without_a_unit_coordinate_is_rebased():
    # Z x Z in the basis v1 = (-1, 2), v2 = (1, -1): the unit (1, 1) is
    # 2 v1 + 3 v2, and (p, q) = (p + q) v1 + (2p + q) v2
    from strathom.enrich import LinearCategory, validate_linear_category
    vectors = {"v1": (-1, 2), "v2": (1, -1)}

    def coordinates(p, q):
        return {k: c for k, c in (("v1", p + q), ("v2", 2 * p + q)) if c}
    table = {(i, j): coordinates(vi[0] * vj[0], vi[1] * vj[1])
             for i, vi in vectors.items() for j, vj in vectors.items()}
    alg = LinearCategory(ZZ, ("*",), {("*", "*"): ("v1", "v2")},
                         {("*", "*", "*"): table}, {"*": {"v1": 2, "v2": 3}})
    assert validate_linear_category(alg) == []
    hh = hochschild_homology(alg, 3)
    assert [(g["rank"], g["torsion"]) for g in hh] \
        == [(2, []), (0, []), (0, []), (0, [])]
    hc = cyclic_homology(alg, 4)
    assert [(g["rank"], g["torsion"]) for g in hc] \
        == [(2, []), (0, []), (2, []), (0, []), (2, [])]
    assert ChainComplexBundle(alg, 2).validate() == []


def test_a_unit_that_is_not_primitive_is_rejected():
    # 2 is no unit of Z: the unit vector must be primitive
    from strathom.enrich import LinearCategory
    alg = LinearCategory(ZZ, ("*",), {("*", "*"): ("e",)},
                         {("*", "*", "*"): {("e", "e"): {"e": 1}}},
                         {"*": {"e": 2}})
    with pytest.raises(ValueError, match="not primitive"):
        ChainComplexBundle(alg, 1)


# Fault injection: each broken normalized complex must fail the oracle.

def _mutated_method(cls, name, old, new):
    """`cls.name` compiled from its source with `old` replaced by `new`."""
    import inspect
    import textwrap
    from strathom import facthom
    source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
    assert source.count(old) == 1
    scope = {}
    exec(compile(source.replace(old, new), facthom.__file__, "exec"),
         vars(facthom), scope)
    return scope[name]


def test_oracle_catches_a_flipped_connes_b_sign(monkeypatch):
    monkeypatch.setattr(ChainComplexBundle, "_connes_b", _mutated_method(
        ChainComplexBundle, "_connes_b", "flip = -1 if n % 2 else 1",
        "flip = 1 if n % 2 else -1"))
    failures = [f for _, alg, depth in B_CASES
                for f in _normalization_failures(alg, depth)]
    assert failures and all("pi B" in f for f in failures)


def test_oracle_catches_a_projection_that_only_drops_the_pivot(monkeypatch):
    def drop_pivot(self, x, y, vec):
        pivot = self._pivots[x][0] if x == y else None
        return {k: v for k, v in vec.items() if k != pivot}
    monkeypatch.setattr(ChainComplexBundle, "_project", drop_pivot)
    # a unit that is the pivot alone (group algebras) cannot tell the two
    # projections apart; M_2's E00 + E11 can
    failures = _normalization_failures(matrix_algebra(QQ, 2), 3)
    assert "pi b != b pi out of degree 2" in failures


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


def test_groupoid_quotient_names_an_unknown_morphism():
    with pytest.raises(ValueError, match="'zz' is not a morphism"):
        enr_facthom_disk(d0(), walking_idempotent(), groupoid_isos=("zz",))


@pytest.mark.parametrize("triple, message", [
    (("*", "q", "id"), "'id' names an unknown object 'q'"),
    (("*", "*", "nope"), r"'nope' is not in hom\('\*', '\*'\)"),
], ids=["unknown object", "unknown basis element"])
def test_linear_groupoid_coinvariants_name_an_unknown_iso(triple, message):
    lin = linearize(walking_idempotent(), QQ)
    with pytest.raises(ValueError, match=message):
        enr_facthom_disk(d0(), lin, groupoid_isos=(triple,))


def test_linear_groupoid_coinvariants_over_field():
    from strathom.enrich import validate_linear_category
    lin = linearize(_contractible_groupoid(), QQ)
    assert validate_linear_category(lin) == []
    mod = enr_facthom_disk(d0(), lin, groupoid_isos=(("x", "y", "a"),))
    assert mod.dim == 1
    from strathom.enrich import group_algebra
    z_lin = group_algebra(ZZ, *cyclic_group_table(2))
    with pytest.raises(NotImplementedError):
        enr_facthom_disk(d0(), z_lin, groupoid_isos=(("*", "*", "1"),))


# -- linearization: the Set and linear backends meet ------------------------------------

def _linearization_pool():
    return small_category_pool() + [
        ("S3", group_category(*symmetric_group_table(3))),
        ("Q8", group_category(*quaternion_group_table())),
        ("free2^4", free_monoid_category(2, 4)),
        ("free3^3", free_monoid_category(3, 3))]


@pytest.mark.parametrize("ring", [ZZ, QQ, RingFp(2), RingFp(5)],
                         ids=["Z", "Q", "F2", "F5"])
def test_hh0_of_a_linearization_is_free_on_the_trace_classes(ring):
    # HH_0(k[C]) is free on the coequalizer of d_0 and d_1 on the cyclic
    # nerve, the trace classes; over Z it has no torsion
    for name, cat in _linearization_pool():
        (hh0,) = hochschild_homology(linearize(cat, ring), 0)
        assert (hh0["rank"], hh0["torsion"]) == (len(thh_set_pi0(cat)), []), \
            name


@pytest.mark.parametrize("table", [
    cyclic_group_table(2), cyclic_group_table(3), symmetric_group_table(3),
    quaternion_group_table()], ids=["BZ2", "BZ3", "S3", "Q8"])
def test_groupoid_orbits_are_the_linear_coinvariants(table):
    # coinvariants of a permutation module are free on its orbits: a
    # cokernel rank over Q against a union-find over the Set elements
    cat = group_category(*table)
    isos = tuple(cat.morphisms())
    triples = tuple(("*", "*", g) for g in isos)
    lin = linearize(cat, QQ)
    for mname, m in small_manifold_pool(3):
        orbits = enr_facthom_disk(m, cat, groupoid_isos=isos)
        assert len(orbits) == enr_facthom_disk(
            m, lin, groupoid_isos=triples).dim, mname


# -- empty categories ----------------------------------------------------------------------------

def test_empty_category_gives_empty_values():
    empty = discrete_category(())
    assert enr_facthom_disk(d0(), empty) == ()
    assert len(thh_set_pi0(empty)) == 0


# -- unified cyclic bar levels ---------------------------------------------------------------------

def test_linear_level_matrices_satisfy_simplicial_identities():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    lv2 = LinearCyclicLevel(alg, 2)
    lv1 = LinearCyclicLevel(alg, 1)
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

def _burghelea(verb, m, n):
    """(rank, torsion) of HH_n or HC_n of Z[Z/m]."""
    if n % 2 == 0:
        return (m if n == 0 or verb == "hc" else 0), []
    if verb == "hh":
        return 0, _merged_torsion([m] * m)
    return 0, _merged_torsion([math.gcd(g, m) for g in range(m)]
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


# -- HH of a groupoid algebra from its centralizers --------------------------------------

def test_merged_torsion_is_the_smith_form_of_the_diagonal():
    # the invariant factors of a sum of cyclic groups are the Smith form of
    # the diagonal matrix of their orders, its 1s dropped
    rng = random.Random(31)
    orders = (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25, 27, 30, 36, 49, 60,
              97, 210)
    for _ in range(400):
        drawn = [rng.choice(orders) for _ in range(rng.randrange(7))]
        diagonal = SparseMat.from_columns(
            len(drawn), [{i: d} for i, d in enumerate(drawn)])
        smith = [d for d in smith_invariant_factors(diagonal) if d > 1]
        assert _merged_torsion(drawn) == smith, drawn
        assert _merged_torsion(iter(drawn)) == smith, drawn


def test_hh1_of_z_s3_merges_its_summands():
    # the classes of the unit, a transposition and a 3-cycle have the
    # centralizers S_3, Z/2 and Z/3, whose H_1 are Z/2, Z/2 and Z/3; as
    # invariant factors Z/2 + Z/6, not their concatenation
    s3 = group_category(*symmetric_group_table(3))
    summands = centralizer_summands(s3, ZZ, 1)
    assert sorted(h[1][1] for h in summands.values()) == [(2,), (2,), (3,)]
    assert _merged_torsion([2, 2, 3]) == [2, 6]
    hh = centralizer_homology(delinearize(linearize(s3, ZZ)), ZZ, 1)
    assert hh[1] == {"degree": 1, "rank": 0, "torsion": [2, 6]}


def _class_blocks(cat, ring, top):
    """HH_0..HH_top of `linearize(cat, ring)` class by class: the full
    normalized complex to degree top + 1, cut into blocks by the trace
    class of each basis element's cyclic composite, each block's homology
    keyed by its class representative.  Asserts first that no boundary
    entry leaves its block."""
    table = thh_set_pi0(cat)
    complex_ = ChainComplexBundle(linearize(cat, ring), top + 1)
    classes = [[table.word_class(gs) for _, gs in basis]
               for basis in complex_.bases]
    for n in range(1, top + 2):
        for r, row in enumerate(complex_.boundaries[n].rows):
            for c in row:
                assert classes[n][c] == classes[n - 1][r], (n, r, c)
    blocks = {}
    for rep in table.class_representatives():
        where = [{i: k for k, i in enumerate(
            i for i, c in enumerate(level) if c == rep)} for level in classes]
        dims = [len(w) for w in where]
        boundaries = [None]
        for n in range(1, top + 2):
            block = SparseMat(dims[n - 1], dims[n])
            for r, k in where[n - 1].items():
                block.rows[k] = {where[n][c]: v for c, v
                                 in complex_.boundaries[n].rows[r].items()}
            boundaries.append(block)
        blocks[rep] = chain_homology(dims, boundaries, ring)
    return blocks


@pytest.mark.parametrize("ring", [ZZ, RingFp(2)], ids=["Z", "F2"])
@pytest.mark.parametrize("name, table, top", [
    ("S_3", symmetric_group_table(3), 3),
    ("Q_8", quaternion_group_table(), 2),
    ("Z/6", cyclic_group_table(6), 3),
], ids=["S3", "Q8", "Z6"])
def test_the_full_complex_splits_into_the_centralizer_summands(ring, name,
                                                                table, top):
    # Burghelea's splitting, summand by summand: totals could hide two
    # summands swapped or merged
    cat = group_category(*table)
    assert _class_blocks(cat, ring, top) == centralizer_summands(cat, ring,
                                                                 top), name


def _normalized_nerve_chains(cat, depth):
    """The normalized chains of `enrich.nerve` of a one-object category
    `cat`, the oracle for `_group_chains`: C_n free on the strings of
    non-units, in the order of `itertools.product` over `cat`'s non-units,
    and b = sum (-1)^i d_i with the faces read off the nerve's tables, a
    face that holds the unit dropped."""
    unit = cat.unit("*")
    rest = [g for g in cat.hom("*", "*") if g != unit]
    levels = [[("*",)]] + [list(itertools.product(rest, repeat=n))
                           for n in range(1, depth + 1)]
    index = [{s: k for k, s in enumerate(level)} for level in levels]
    nv = nerve(cat, depth)
    boundaries = [None]
    for n in range(1, depth + 1):
        cols = []
        for s in levels[n]:
            col = {}
            for i in range(n + 1):
                face = nv.faces[(n, i)][s]
                if face in index[n - 1]:
                    row = index[n - 1][face]
                    col[row] = col.get(row, 0) + (-1) ** i
            cols.append(col)
        boundaries.append(SparseMat.from_columns(len(levels[n - 1]), cols))
    return [len(level) for level in levels], boundaries


def _subgroup_category(table, elements):
    _, mult, unit = table
    return monoid_category(elements, {(a, b): mult[(a, b)]
                                      for a in elements for b in elements},
                           unit)


@pytest.mark.parametrize("cat, depth", [
    (group_category(*symmetric_group_table(3)), 4),
    (group_category(*quaternion_group_table()), 3),
    (group_category(*cyclic_group_table(4)), 4),
    (group_category(*cyclic_group_table(1)), 3),
    (_subgroup_category(symmetric_group_table(3), ("012", "021")), 5),
], ids=["S3", "Q8", "Z4", "Z1", "S3-transposition"])
def test_group_chains_are_the_normalized_nerve(cat, depth):
    # (|G| - 1)^n strings of non-units in degree n, with the faces of the
    # nerve; a face whose composite is the unit is degenerate, so 0
    dims, boundaries = _group_chains(cat, cat.hom("*", "*"), cat.unit("*"),
                                     depth)
    boundaries = list(boundaries)
    order = len(cat.hom("*", "*"))
    assert dims == [(order - 1) ** n for n in range(depth + 1)]
    assert (dims, boundaries) == _normalized_nerve_chains(cat, depth)
