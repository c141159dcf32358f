import pytest

from strathom.checks import small_manifold_pool, subdivisions
from strathom.indexing import standard_interval
from strathom.manifold import (BundleMap, FinSpan, GraphManifold,
                               RefinementDatum, StratMorphism, all_bundle_maps,
                               all_refinements, blowup, classify_morphism,
                               compose_morphisms, compose_spans, cycle_graph,
                               d0, d1, disjoint_union, factor_closed_active,
                               morphisms_agree, pointed_circle, smooth_circle,
                               spans_isomorphic, strata_span, validate_manifold,
                               vertex_span)


def test_validate_point_and_pointed_circle():
    assert validate_manifold(d0()) == []
    assert validate_manifold(pointed_circle()) == []


def test_validate_reports_dangling_endpoint():
    m = GraphManifold(("v",), (("e", "v", "ghost"),))
    assert any("dangling" in r for r in validate_manifold(m))


def test_disk_stratified_iff_no_circles():
    assert d1().is_disk_stratified
    assert not smooth_circle().is_disk_stratified


# -- blowup ----------------------------------------------------------------------

def test_blowup_point_is_point():
    bl, mor = blowup(d0())
    assert len(bl.vertices) == 1 and not bl.edges
    assert classify_morphism(mor) == "isomorphism"


def test_blowup_pointed_circle_splits_loop_into_interval():
    bl, mor = blowup(pointed_circle())
    assert len(bl.graph_components()) == 1
    assert len(bl.vertices) == 2 and len(bl.edges) == 1
    assert classify_morphism(mor) == "creation"
    assert mor.validate() == []


def test_blowup_interval_two_components_four_vertices():
    bl, mor = blowup(standard_interval(2))
    assert len(bl.graph_components()) == 2
    assert len(bl.vertices) == 4
    assert len(bl.edges) == 2
    assert mor.creation_part.is_surjective()


def test_blowup_keeps_edge_count_and_is_iso_on_one_strata():
    for m in (d1(), standard_interval(3), cycle_graph(2),
              disjoint_union(d0(), pointed_circle())):
        bl, mor = blowup(m)
        assert len(bl.edges) == len(m.edges)
        em = mor.creation_part.edge_map
        assert all(em[e.id][0] == "edge" for e in bl.edges)
        # disk-stratified blowups are unions of points and intervals only
        for verts, edges in bl.graph_components():
            assert len(edges) <= 1


def test_blowup_of_circle_keeps_circle():
    bl, _ = blowup(smooth_circle())
    assert bl.circles == 1 and not bl.vertices


# -- classification -----------------------------------------------------------------

def test_identity_classifies_as_isomorphism():
    assert classify_morphism(StratMorphism.identity(d1())) == "isomorphism"


def test_point_to_interval_creation():
    bm = BundleMap(d1(), d0(), {"v0": "v", "v1": "v"},
                   {"e": ("vertex", "v")})
    mor = StratMorphism.from_creation(bm)
    assert mor.validate() == []
    assert classify_morphism(mor) == "creation"


def test_forgetting_the_basepoint_is_a_refinement():
    ref = RefinementDatum(pointed_circle(), smooth_circle(), {}, {},
                          {0: ("cycle", ("e",))})
    assert ref.validate() == []
    mor = StratMorphism.from_refinement(ref)
    assert classify_morphism(mor) == "refinement"


# -- composition ----------------------------------------------------------------------

def test_compose_with_identity():
    bm = BundleMap(d0(), d1(), {"v": "v0"}, {})
    mor = StratMorphism.from_closed(bm)
    left = compose_morphisms(StratMorphism.identity(d1()), mor)
    right = compose_morphisms(mor, StratMorphism.identity(d0()))
    assert morphisms_agree(left, mor)
    assert morphisms_agree(right, mor)


def test_closed_then_creation_collapses_interval():
    # <1> -> D0 (select the source vertex), then D0 -> D1
    closed = StratMorphism.from_closed(
        BundleMap(d0(), d1(), {"v": "v0"}, {}))
    creation = StratMorphism.from_creation(
        BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": ("vertex", "v")}))
    comp = compose_morphisms(closed, creation)
    assert comp.validate() == []
    assert classify_morphism(comp) == "closed-creation"
    # the composite bundle map collapses the edge to the selected vertex
    vsp = vertex_span(comp)
    assert sorted(vsp.to_left.values()) == ["v0", "v0"]
    assert strata_span(comp).apex == ()


def test_refinement_of_refinement_is_refinement():
    r1 = RefinementDatum(standard_interval(2), d1(),
                         {"v0": "v0", "v1": "v2"}, {"e": ("e0", "e1")})
    r2 = RefinementDatum(standard_interval(4), standard_interval(2),
                         {"v0": "v0", "v1": "v2", "v2": "v4"},
                         {"e0": ("e0", "e1"), "e1": ("e2", "e3")})
    assert r1.validate() == [] and r2.validate() == []
    m1 = StratMorphism.from_refinement(r2)   # <4> -> <2>
    m2 = StratMorphism.from_refinement(r1)   # <2> -> D1
    comp = compose_morphisms(m1, m2)
    assert classify_morphism(comp) == "refinement"
    # a subdivision of a subdivision: the single coarse edge carries all four
    # fine pieces (intermediate cells are renamed during normalization)
    assert len(comp.refinement_part.edge_fibers["e"]) == 4
    assert len(comp.refinement_part.fine.edges) == 4


def test_composition_is_associative_on_sample():
    closed = StratMorphism.from_closed(
        BundleMap(d0(), d1(), {"v": "v0"}, {}))
    creation = StratMorphism.from_creation(
        BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": ("vertex", "v")}))
    ref = StratMorphism.from_refinement(
        RefinementDatum(d1(), d1(), {"v0": "v0", "v1": "v1"}, {"e": ("e",)}))
    lhs = compose_morphisms(compose_morphisms(closed, creation), ref)
    rhs = compose_morphisms(closed, compose_morphisms(creation, ref))
    assert morphisms_agree(lhs, rhs)


# -- closed-active factorization ----------------------------------------------------

def test_factor_point_into_circle():
    # the unique morphism D0 -> S1: creation D0 -> S1_* then forget the point
    creation = StratMorphism.from_creation(
        BundleMap(pointed_circle(), d0(), {"v": "v"}, {"e": ("vertex", "v")}))
    forget = StratMorphism.from_refinement(
        RefinementDatum(pointed_circle(), smooth_circle(), {}, {},
                        {0: ("cycle", ("e",))}))
    mor = compose_morphisms(creation, forget)
    closed, active = factor_closed_active(mor)
    assert classify_morphism(closed) == "isomorphism"
    assert classify_morphism(active) == "active"


def test_factor_closed_morphism_returns_identity_active():
    mor = StratMorphism.from_closed(BundleMap(d0(), d1(), {"v": "v1"}, {}))
    closed, active = factor_closed_active(mor)
    assert morphisms_agree(closed, mor)
    assert classify_morphism(active) == "isomorphism"


def test_factor_middle_vertex_then_interval():
    # <2> -> D0 (pick middle vertex) then D0 -> D1
    closed = StratMorphism.from_closed(
        BundleMap(d0(), standard_interval(2), {"v": "v1"}, {}))
    creation = StratMorphism.from_creation(
        BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": ("vertex", "v")}))
    comp = compose_morphisms(closed, creation)
    c, a = factor_closed_active(comp)
    assert classify_morphism(c) == "closed"
    assert set(c.closed_part.vertex_map.values()) == {"v1"}
    assert classify_morphism(a) in ("creation", "active")
    assert morphisms_agree(compose_morphisms(c, a), comp)


# -- spans ------------------------------------------------------------------------------

def test_identity_refinement_gives_identity_span():
    mor = StratMorphism.identity(d1())
    sp = strata_span(mor)
    assert spans_isomorphic(sp, FinSpan.identity(("e",)))


def test_closed_inclusion_span_is_backwards_mono():
    # <2> -> <1>: contravariantly <1> includes as the first edge
    incl = BundleMap(d1(), standard_interval(2), {"v0": "v0", "v1": "v1"},
                     {"e": ("edge", "e0")})
    sp = strata_span(StratMorphism.from_closed(incl))
    assert sorted(sp.left) == ["e0", "e1"]
    assert len(sp.apex) == 1
    assert sp.right == ("e",)
    assert len(set(sp.to_left.values())) == len(sp.apex)  # mono


def test_creation_span_edge_over_vertex():
    bm = BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": ("vertex", "v")})
    sp = strata_span(StratMorphism.from_creation(bm))
    assert sp.left == ()
    assert sp.apex == ()
    assert sp.right == ("e",)


def test_strata_span_rejects_circles():
    with pytest.raises(ValueError):
        strata_span(StratMorphism.identity(smooth_circle()))


def test_compose_spans_identity_and_pullback():
    s = FinSpan(("1", "2"), ("a", "b"), ("x",),
                {"a": "1", "b": "2"}, {"a": "x", "b": "x"})
    assert spans_isomorphic(compose_spans(FinSpan.identity(("1", "2")), s), s)
    t = FinSpan(("x",), ("u",), ("p",), {"u": "x"}, {"u": "p"})
    comp = compose_spans(s, t)
    assert len(comp.apex) == 2
    empty1 = FinSpan(("1",), (), ("2",), {}, {})
    empty2 = FinSpan(("2",), (), ("3",), {}, {})
    assert compose_spans(empty1, empty2).apex == ()


def test_strata_functoriality_on_enumerated_pairs():
    pool = [d0(), d1(), standard_interval(2)]
    morphs = []
    for a in pool:
        for b in pool:
            for bm in all_bundle_maps(b, a):
                morphs.append(StratMorphism.from_closed_creation(bm))
            for ref in all_refinements(a, b):
                morphs.append(StratMorphism.from_refinement(ref))
    pairs = 0
    for m1 in morphs:
        for m2 in morphs:
            if m1.target != m2.source:
                continue
            pairs += 1
            comp = compose_morphisms(m1, m2)
            assert spans_isomorphic(
                strata_span(comp),
                compose_spans(strata_span(m1), strata_span(m2)))
    assert pairs > 50


def test_all_bundle_maps_yields_only_valid_maps():
    """The suites take every enumerated map as valid, unfiltered: over the
    manifold pool, and from the one-point subdivisions of it."""
    pool = [m for _, m in small_manifold_pool()]
    totals = pool + [ref.fine for m in pool for ref in subdivisions(m, 1)]
    maps = [bm for a in pool for b in totals for bm in all_bundle_maps(b, a)]
    assert len(maps) == 4301
    assert [bm for bm in maps if bm.validate()] == []


def test_manifolds_are_equal_by_value():
    assert d1() == d1() and hash(d1()) == hash(d1())
    assert d1() != GraphManifold(("v0", "v1"), (("e", "v1", "v0"),))
    assert d0() != GraphManifold(("v",), (), circles=1)
    assert d0() != "D0"
    assert len({d1(), d1(), d0()}) == 2


def test_refinement_span_is_forwards_surjection():
    ref = RefinementDatum(standard_interval(2), d1(),
                          {"v0": "v0", "v1": "v2"}, {"e": ("e0", "e1")})
    sp = strata_span(StratMorphism.from_refinement(ref))
    assert len(sp.apex) == 2
    assert sorted(sp.to_left.values()) == ["e0", "e1"]   # backwards iso
    assert set(sp.to_right.values()) == {"e"}            # forwards surjection


# -- serialization ------------------------------------------------------------------

def test_manifold_json_round_trip():
    m = disjoint_union(standard_interval(2), smooth_circle())
    again = GraphManifold.from_json_dict(m.to_json_dict())
    assert again.to_json_dict() == m.to_json_dict()


def test_circle_self_covers_compose_by_degree():
    def cover(r):
        return StratMorphism.from_creation(
            BundleMap(smooth_circle(), smooth_circle(), {}, {},
                      {0: ("circle", 0, r)}))
    comp = compose_morphisms(cover(2), cover(3))
    assert classify_morphism(comp) == "creation"
    assert comp.creation_part.circle_map == {0: ("circle", 0, 6)}
