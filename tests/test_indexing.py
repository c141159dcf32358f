import pytest
from hypothesis import given, settings, strategies as st

from strathom.fincat import FactorizationSystem, FinCategory
from strathom.indexing import (PARACYCLIC, CoverOperator, ParacyclicOp,
                               SimplexMap, all_simplex_maps, central_shift,
                               central_shift_is_natural, coface,
                               cyclic_equal, cyclic_reduce,
                               delta_op_factorize, disk_refinement_category,
                               enumerate_paracyclic, rotation, rotation_power,
                               standard_interval)
from strathom.manifold import d0, pointed_circle, smooth_circle

from helpers import factorization_unique_up_to_iso


# -- standard intervals ---------------------------------------------------------

def test_interval_zero_is_point():
    m = standard_interval(0)
    assert len(m.vertices) == 1 and not m.edges


def test_interval_one_is_the_closed_disk():
    m = standard_interval(1)
    assert len(m.vertices) == 2 and len(m.edges) == 1


def test_interval_three_is_a_path():
    m = standard_interval(3)
    assert len(m.vertices) == 4 and len(m.edges) == 3
    assert [e.src for e in m.edges] == ["v0", "v1", "v2"]


# -- simplex maps ------------------------------------------------------------------

def test_surjection_factors_as_itself_then_identity():
    f = SimplexMap(2, 1, (0, 0, 1))
    act, cls = delta_op_factorize(f)
    assert act == f
    assert cls == SimplexMap.identity(1)


def test_interval_inclusion_factors_as_identity_then_shift():
    f = SimplexMap(1, 4, (2, 3))
    act, cls = delta_op_factorize(f)
    assert act == SimplexMap.identity(1)
    assert cls.values == (2, 3)
    assert cls.is_closed()


def test_mixed_map_factors_uniquely():
    f = SimplexMap(1, 3, (1, 2))
    act, cls = delta_op_factorize(f)
    assert act == SimplexMap.identity(1)
    assert cls.values == (1, 2)
    assert cls.compose(act) == f


def test_delta_factorization_exhaustively_unique():
    for m in range(4):
        for n in range(4):
            for f in all_simplex_maps(m, n):
                act, cls = delta_op_factorize(f)
                assert act.is_active() and cls.is_closed()
                assert cls.compose(act) == f
                count = sum(
                    1
                    for k in range(n + 1)
                    for a in all_simplex_maps(m, k) if a.is_active()
                    for shift in range(n - k + 1)
                    if SimplexMap(k, n, tuple(range(shift, shift + k + 1))
                                  ).compose(a) == f)
                assert count == 1


# -- paracyclic operators ------------------------------------------------------------

def test_rotation_cubed_at_level_two():
    tau = rotation(2)
    cubed = tau.compose(tau).compose(tau)
    assert cubed.values == (3, 4, 5)
    assert cubed.offset() == 1
    assert cubed != ParacyclicOp.identity(2)
    assert cyclic_equal(cubed, ParacyclicOp.identity(2))


def test_central_shift_naturality_small_levels():
    for n in range(5):
        assert central_shift_is_natural(n)
        assert rotation_power(n, n + 1) == central_shift(n)


def test_equivariance_of_evaluation():
    op = ParacyclicOp(2, 3, (1, 2, 4))
    assert op(0 + 3) == op(0) + 4
    assert op(-3) == op(0) - 4


def test_composition_respects_simplicial_identity():
    # delta_j ∘ delta_i = delta_i ∘ delta_{j-1} for i < j, inside the tower
    for n in range(1, 4):
        for j in range(n + 2):
            for i in range(j):
                lhs = ParacyclicOp.from_simplex(coface(n + 1, j)).compose(
                    ParacyclicOp.from_simplex(coface(n, i)))
                rhs = ParacyclicOp.from_simplex(coface(n + 1, i)).compose(
                    ParacyclicOp.from_simplex(coface(n, j - 1)))
                assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_paracyclic_composition_associative(data):
    levels = [data.draw(st.integers(0, 5)) for _ in range(4)]
    def op(m, n):
        v0 = data.draw(st.integers(-6, 6))
        deltas = [data.draw(st.integers(0, n + 1)) for _ in range(m)]
        vals = [v0]
        for d in deltas:
            vals.append(min(vals[-1] + d, v0 + n + 1))
        return ParacyclicOp(m, n, tuple(vals))
    f = op(levels[0], levels[1])
    g = op(levels[1], levels[2])
    h = op(levels[2], levels[3])
    assert h.compose(g).compose(f) == h.compose(g.compose(f))


def test_cyclic_quotient_fibers_are_free_orbits():
    for m in range(3):
        for n in range(3):
            reps = enumerate_paracyclic(m, n)
            window = enumerate_paracyclic(m, n, offset_window=3)
            assert {cyclic_reduce(o).values for o in window} \
                == {o.values for o in reps}
            for op in reps:
                assert cyclic_reduce(op.shift(2)) == op
                assert op.shift(1) != op


# -- cover operators -------------------------------------------------------------------

def test_cover_degree_one_is_identity_on_levels():
    cov = CoverOperator(1)
    for n in range(5):
        assert cov.level(n) == n


def test_cover_point_counts():
    assert CoverOperator(2).level(0) == 1
    assert CoverOperator(2).point_count(0) == 2
    assert CoverOperator(3).level(1) == 5
    assert CoverOperator(3).point_count(1) == 6


def test_cover_functorial_and_intertwines_rotation():
    cov = CoverOperator(2)
    f = ParacyclicOp(1, 2, (0, 2))
    g = ParacyclicOp(2, 1, (0, 1, 1))
    assert cov.apply(g.compose(f)) == cov.apply(g).compose(cov.apply(f))
    assert cov.apply(rotation(2)) == rotation(cov.level(2))
    assert cov.compose(CoverOperator(3)).r == 6


def test_cover_deck_rotation_is_central_lift():
    # rotating the base by one full marked point lifts compatibly: the
    # fiberwise deck rotation is rotation by n+1 steps at the covered level
    cov = CoverOperator(3)
    n = 1
    total = cov.level(n)   # 5
    deck = rotation_power(total, n + 1)
    assert deck.values == tuple(range(n + 1, total + n + 2))
    # its cube is one full turn, the central shift of the covered level
    assert rotation_power(total, (n + 1) * cov.r) == central_shift(total)


# -- disk-refinement descriptors ---------------------------------------------------------

def test_descriptor_point():
    assert disk_refinement_category(d0()).factors == ("point",)


def test_descriptor_circle():
    assert disk_refinement_category(smooth_circle()).factors == ("paracyclic",)


def test_descriptor_interval_two():
    assert disk_refinement_category(standard_interval(2)).factors \
        == ("simplex", "simplex")


def test_descriptor_pointed_circle_is_one_simplex_factor():
    assert disk_refinement_category(pointed_circle()).factors == ("simplex",)


def test_terminal_object_reconstructs_disk_stratified_manifold():
    # no paracyclic factor: the manifold itself is the terminal object
    for m in (d0(), standard_interval(3), pointed_circle()):
        desc = disk_refinement_category(m)
        assert PARACYCLIC not in desc.factors
        assert desc.manifold.to_json_dict() == m.to_json_dict()
    assert PARACYCLIC in disk_refinement_category(smooth_circle()).factors


def _simplex_name(f: SimplexMap) -> str:
    return f"[{f.m}]->[{f.n}]:" + ",".join(map(str, f.values))


def delta_category(max_level: int):
    """The simplex category truncated at [max_level], materialized as a
    finite category, together with its [active; closed] factorization
    system.  Returns (category, system, name lookup)."""
    maps = {}
    homs = {}
    for m in range(max_level + 1):
        for n in range(max_level + 1):
            ms = all_simplex_maps(m, n)
            homs[(f"[{m}]", f"[{n}]")] = tuple(_simplex_name(f) for f in ms)
            for f in ms:
                maps[_simplex_name(f)] = f
    compose = {}
    for gname, g in maps.items():
        for fname, f in maps.items():
            if f.n == g.m:
                compose[(gname, fname)] = _simplex_name(g.compose(f))
    units = {f"[{n}]": _simplex_name(SimplexMap.identity(n))
             for n in range(max_level + 1)}
    cat = FinCategory(tuple(f"[{n}]" for n in range(max_level + 1)),
                      homs, compose, units)
    fs = FactorizationSystem(
        cat,
        frozenset(name for name, f in maps.items() if f.is_active()),
        frozenset(name for name, f in maps.items() if f.is_closed()))
    return cat, fs, maps


def test_materialized_delta_carries_the_factorization_system():
    from strathom.fincat import factorize_morphism, validate_category
    cat, fs, maps = delta_category(3)
    assert validate_category(cat) == []
    assert len(list(cat.morphisms())) <= 200
    assert fs.validate() == []
    for name, f in maps.items():
        l, r = factorize_morphism(fs, name)
        act, cls = delta_op_factorize(f)
        assert maps[l] == act and maps[r] == cls
        assert factorization_unique_up_to_iso(fs, name)
