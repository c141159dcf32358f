import random
import re

import pytest

from strathom.checks import corr_span_pairs, small_manifold_pool, subdivisions
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


# each manifold has exactly one finding, and the report is exactly that finding
_INVALID_MANIFOLDS = [
    (GraphManifold(("v", "v"), ()), "duplicate vertex id"),
    (GraphManifold(("v",), (("e", "v", "v"), ("e", "v", "v"))),
     "duplicate edge id e"),
    (GraphManifold(("v",), (("e", "ghost", "v"),)),
     "edge e has dangling src ghost"),
    (GraphManifold((), (), -1), "negative circle count"),
]


@pytest.mark.parametrize("m, finding", _INVALID_MANIFOLDS, ids=[
    finding for _, finding in _INVALID_MANIFOLDS])
def test_validate_manifold_reports_exactly_its_finding(m, finding):
    assert validate_manifold(m) == [finding]


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
        assert all(em[e.id] is not None for e in bl.edges)
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
                   {"e": None})
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
        BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": None}))
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
        BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": None}))
    ref = StratMorphism.from_refinement(
        RefinementDatum(d1(), d1(), {"v0": "v0", "v1": "v1"}, {"e": ("e",)}))
    lhs = compose_morphisms(compose_morphisms(closed, creation), ref)
    rhs = compose_morphisms(closed, compose_morphisms(creation, ref))
    assert morphisms_agree(lhs, rhs)


# -- closed-active factorization ----------------------------------------------------

def test_factor_point_into_circle():
    # the unique morphism D0 -> S1: creation D0 -> S1_* then forget the point
    creation = StratMorphism.from_creation(
        BundleMap(pointed_circle(), d0(), {"v": "v"}, {"e": None}))
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
        BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": None}))
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
                     {"e": "e0"})
    sp = strata_span(StratMorphism.from_closed(incl))
    assert sorted(sp.left) == ["e0", "e1"]
    assert len(sp.apex) == 1
    assert sp.right == ("e",)
    assert len(set(sp.to_left.values())) == len(sp.apex)  # mono


def test_creation_span_edge_over_vertex():
    bm = BundleMap(d1(), d0(), {"v0": "v", "v1": "v"}, {"e": None})
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


def test_span_legs_are_read_only():
    span = FinSpan((0,), ("u",), (0, 1), {"u": 0}, {"u": 0})
    with pytest.raises(TypeError):
        span.to_right["u"] = 1
    with pytest.raises(TypeError):
        span.to_left["u"] = 1
    assert span.right_fibers == {0: (("u",), (0,))}
    # a composite's legs are views of dicts that only it holds
    comp = compose_spans(span, FinSpan.identity((0, 1)))
    with pytest.raises(TypeError):
        comp.to_right[("u", 0)] = 1
    with pytest.raises(TypeError):
        comp.to_left[("u", 0)] = 1
    assert comp.right_fibers == {0: ((("u", 0),), (0,))}


def test_compose_spans_rejects_mismatched_middle_sets():
    a = FinSpan((0,), ("u",), (0, 1), {"u": 0}, {"u": 1})
    b = FinSpan((0, 2), ("v",), (0,), {"v": 0}, {"v": 0})
    with pytest.raises(ValueError, match="endpoints do not match"):
        compose_spans(a, b)


def test_compose_spans_accepts_a_permuted_middle_set():
    a = FinSpan((0,), ("u", "w"), (0, 1), {"u": 0, "w": 0}, {"u": 0, "w": 1})
    b = FinSpan((1, 0), ("p", "q", "r"), (0,),
                {"p": 1, "q": 0, "r": 1}, {"p": 0, "q": 0, "r": 0})
    comp = compose_spans(a, b)
    assert comp.apex == (("u", "q"), ("w", "p"), ("w", "r"))
    assert dict(comp.to_left) == {u: 0 for u in comp.apex}
    assert dict(comp.to_right) == {u: 0 for u in comp.apex}


def _pullback_oracle(a, b):
    """The pullback as an inline double loop over both apexes: the oracle
    for `compose_spans`, which pairs each u with b's left fiber over its
    image."""
    apex = [(u, v) for u in a.apex for v in b.apex
            if a.to_right[u] == b.to_left[v]]
    return (tuple(apex), {(u, v): a.to_left[u] for (u, v) in apex},
            {(u, v): b.to_right[v] for (u, v) in apex})


def test_compose_spans_matches_the_double_loop_oracle():
    pairs = [(a, b) for a, out_of in corr_span_pairs() for b in out_of]
    nonempty = 0
    for a, b in random.Random(31).sample(pairs, 2000):
        comp = compose_spans(a, b)
        apex, to_left, to_right = _pullback_oracle(a, b)
        assert comp.apex == apex
        assert dict(comp.to_left) == to_left
        assert dict(comp.to_right) == to_right
        assert (comp.left, comp.right) == (a.left, b.right)
        # the layout filled during the walk, against one computed from legs
        assert comp.right_fibers == FinSpan(
            a.left, apex, b.right, to_left, to_right).right_fibers
        nonempty += bool(apex)
    assert nonempty > 1000


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


def test_a_circle_over_a_collapsed_circle_collapses_with_it():
    # S^1 --z^2--> S^1 --collapse--> D0: the double cover lands on the point
    collapse = BundleMap(smooth_circle(), d0(), {}, {}, {0: ("vertex", "v")})
    double = BundleMap(smooth_circle(), smooth_circle(), {}, {},
                       {0: ("circle", 0, 2)})
    comp = collapse.compose(double)
    assert (comp.total, comp.base) == (double.total, collapse.base)
    assert (comp.vertex_map, comp.edge_map, comp.circle_map) \
        == ({}, {}, {0: ("vertex", "v")})
    assert comp.validate() == []


def test_image_of_a_collapsed_circle_is_its_vertex():
    collapse = BundleMap(smooth_circle(), d0(), {}, {}, {0: ("vertex", "v")})
    onto, into = collapse.image_factorization()
    assert (onto.base.vertices, onto.base.edges, onto.base.circles) \
        == (("v",), (), 0)
    assert onto.circle_map == {0: ("vertex", "v")}
    assert onto.validate() == [] and onto.is_surjective()
    assert into.validate() == [] and into.is_injective()
    assert into.compose(onto).circle_map == collapse.circle_map


# -- the refinement pullback on circles --------------------------------------------

def test_forgetting_the_basepoint_then_doubling_is_active():
    forget = StratMorphism.from_refinement(RefinementDatum(
        pointed_circle(), smooth_circle(), {}, {}, {0: ("cycle", ("e",))}))
    double = StratMorphism.from_creation(BundleMap(
        smooth_circle(), smooth_circle(), {}, {}, {0: ("circle", 0, 2)}))
    comp = compose_morphisms(forget, double)
    assert comp.validate() == []
    assert classify_morphism(comp) == "active"
    # the one-edge cycle pulls back along the double cover to a two-edge cycle
    fine = comp.refinement_part.fine
    assert fine == comp.creation_part.total
    assert (len(fine.vertices), len(fine.edges), fine.circles) == (2, 2, 0)
    assert sorted(comp.creation_part.edge_map.values()) == ["e"] * 2
    assert comp.refinement_part.circle_fibers == {
        0: ("cycle", tuple(e.id for e in fine.edges))}


def test_circle_collapsed_onto_the_point_after_identity():
    collapse = StratMorphism.from_creation(BundleMap(
        smooth_circle(), d0(), {}, {}, {0: ("vertex", "v")}))
    comp = compose_morphisms(StratMorphism.identity(d0()), collapse)
    assert comp.validate() == []
    assert classify_morphism(comp) == "creation"
    assert comp.creation_part.total == smooth_circle()
    assert comp.creation_part.circle_map == {0: ("vertex", "v")}
    assert comp.refinement_part.circle_fibers == {0: ("circle", 0)}


def test_closed_circle_inclusion_past_a_cycle_refinement():
    coarse = disjoint_union(d1(), smooth_circle())
    ref = RefinementDatum(disjoint_union(d1(), pointed_circle()), coarse,
                          {"0.v0": "0.v0", "0.v1": "0.v1"},
                          {"0.e": ("0.e",)}, {0: ("cycle", ("1.e",))})
    incl = BundleMap(smooth_circle(), coarse, {}, {}, {0: ("circle", 0, 1)})
    comp = compose_morphisms(StratMorphism.from_refinement(ref),
                             StratMorphism.from_closed(incl))
    assert comp.validate() == []
    assert classify_morphism(comp) == "general"
    # the closed part keeps only the loop over the circle, not the interval
    assert comp.closed_part.total == GraphManifold(("1.v",),
                                                   (("1.e", "1.v", "1.v"),))
    fine = comp.refinement_part.fine
    assert (len(fine.vertices), len(fine.edges), fine.circles) == (1, 1, 0)
    assert comp.creation_part.edge_map == {fine.edges[0].id: "1.e"}
    assert comp.refinement_part.circle_fibers == {
        0: ("cycle", (fine.edges[0].id,))}


def test_pulled_back_cells_avoid_the_closed_parts_names():
    # the closed part's vertex is named like the cell the pullback creates
    ref = StratMorphism.from_refinement(RefinementDatum(
        standard_interval(2), d1(), {"v0": "v0", "v1": "v2"},
        {"e": ("e0", "e1")}))
    a2 = GraphManifold(("e@0", "v1"), (("e", "e@0", "v1"),))
    iso = StratMorphism.from_closed(BundleMap(
        a2, d1(), {"e@0": "v0", "v1": "v1"}, {"e": "e"}))
    comp = compose_morphisms(ref, iso)
    assert comp.validate() == []
    assert classify_morphism(comp) == "refinement"
    assert len(set(comp.refinement_part.fine.vertices)) == 3


def test_pulled_back_cells_avoid_the_creation_parts_names():
    # put a basepoint on the circle of D0 ⊔ S¹, then create from a vertex
    # named like the basepoint the pullback creates
    coarse = disjoint_union(d0(), smooth_circle())
    ref = StratMorphism.from_refinement(RefinementDatum(
        disjoint_union(d0(), pointed_circle()), coarse, {"0.v": "0.v"}, {},
        {0: ("cycle", ("1.e",))}))
    b = GraphManifold(("c0@0",), (), circles=1)
    cre = StratMorphism.from_creation(BundleMap(
        b, coarse, {"c0@0": "0.v"}, {}, {0: ("circle", 0, 1)}))
    comp = compose_morphisms(ref, cre)
    assert comp.validate() == []
    assert classify_morphism(comp) == "refinement"
    assert len(set(comp.refinement_part.fine.vertices)) == 2


# -- validators: each finding on a datum that has it --------------------------------

_S1 = smooth_circle()
_ID1 = {"v0": "v0", "v1": "v1"}
_INVALID = [
    (BundleMap(d0(), d1(), {"v": "ghost"}, {}),
     "vertex v has no valid image"),
    (BundleMap(d1(), d1(), _ID1, {}), "edge e has no image"),
    (BundleMap(d1(), d1(), _ID1, {"e": None}),
     "collapsed edge e has endpoints elsewhere"),
    (BundleMap(d1(), d1(), _ID1, {"e": "f"}), "edge e maps to unknown edge f"),
    (BundleMap(d1(), d1(), {"v0": "v1", "v1": "v0"}, {"e": "e"}),
     "edge e breaks incidence/orientation"),
    (BundleMap(_S1, _S1, {}, {}), "circle 0 has no image"),
    (BundleMap(_S1, _S1, {}, {}, {0: ("circle", 0, 0)}),
     "circle 0 has invalid cover datum ('circle', 0, 0)"),
    (BundleMap(_S1, d0(), {}, {}, {0: ("vertex", "ghost")}),
     "circle 0 collapses to unknown vertex"),
    (BundleMap(_S1, _S1, {}, {}, {0: ("disk",)}),
     "circle 0 has malformed image ('disk',)"),
    (RefinementDatum(d0(), GraphManifold(("a", "b"), ()),
                     {"a": "v", "b": "v"}, {}), "vertex_image not injective"),
    (RefinementDatum(d0(), d0(), {}, {}), "vertex_image domain mismatch"),
    (RefinementDatum(d0(), d0(), {"v": "ghost"}, {}),
     "vertex_image lands outside fine vertices"),
    (RefinementDatum(d1(), d1(), _ID1, {"e": ()}),
     "coarse edge e has empty fiber"),
    (RefinementDatum(d1(), d1(), _ID1, {"e": ("nope",)}),
     "fiber of e has unknown edges"),
    (RefinementDatum(standard_interval(2), d1(), {"v0": "v1", "v1": "v2"},
                     {"e": ("e0", "e1")}),
     "fiber of e does not start at src image"),
    (RefinementDatum(standard_interval(2), d1(), _ID1, {"e": ("e0", "e1")}),
     "fiber of e does not end at dst image"),
    (RefinementDatum(disjoint_union(d1(), d1()), d1(),
                     {"v0": "0.v0", "v1": "1.v1"}, {"e": ("0.e", "1.e")}),
     "fiber of e is not a chain at 0.e|1.e"),
    (RefinementDatum(_S1, _S1, {}, {}, {}), "coarse circle 0 has no fiber"),
    (RefinementDatum(_S1, _S1, {}, {}, {0: ("circle", 1)}),
     "coarse circle 0 has invalid fine circle"),
    (RefinementDatum(pointed_circle(), _S1, {}, {}, {0: ("cycle", ())}),
     "coarse circle 0 has empty cycle fiber"),
    (RefinementDatum(pointed_circle(), _S1, {}, {}, {0: ("cycle", ("nope",))}),
     "cycle fiber of circle 0 has unknown edges"),
    (RefinementDatum(d1(), _S1, {}, {}, {0: ("cycle", ("e",))}),
     "cycle fiber of circle 0 breaks at e"),
    (RefinementDatum(_S1, _S1, {}, {}, {0: ("disk",)}),
     "coarse circle 0 has malformed fiber ('disk',)"),
    (RefinementDatum(standard_interval(2), d1(), {"v0": "v0", "v1": "v2"},
                     {"e": ("e0",)}),
     "edge fibers do not partition the fine edges"),
    (RefinementDatum(GraphManifold(("v",), (), circles=1), d0(), {"v": "v"},
                     {}), "circle fibers do not account for the fine circles"),
    (RefinementDatum(standard_interval(2),
                     GraphManifold(("a", "b", "c"), (("e", "a", "c"),)),
                     {"a": "v0", "b": "v1", "c": "v2"}, {"e": ("e0", "e1")}),
     "a coarse vertex image sits in a fiber interior"),
    (RefinementDatum(GraphManifold(("a", "b"), ()), GraphManifold(("a",), ()),
                     {"a": "a"}, {}), "fine vertices ['b'] unaccounted for"),
    (StratMorphism.from_closed(BundleMap(d1(), d0(), {"v0": "v", "v1": "v"},
                                         {"e": None})),
     "closed part is not injective"),
    (StratMorphism.from_creation(BundleMap(d0(), d1(), {"v": "v0"}, {})),
     "creation part is not surjective"),
    (StratMorphism(BundleMap.identity(d1()), BundleMap.identity(d0()),
                   RefinementDatum.identity(d0())),
     "closed part's total is not the creation part's base"),
    (StratMorphism(BundleMap.identity(d1()), BundleMap.identity(d1()),
                   RefinementDatum.identity(d0())),
     "creation part's total is not the refinement's fine manifold"),
]


@pytest.mark.parametrize("datum, finding", _INVALID, ids=[
    re.sub(r"\W+", "-", finding).strip("-") for _, finding in _INVALID])
def test_validator_reports_its_finding(datum, finding):
    assert finding in datum.validate()


def test_unknown_edge_in_a_cycle_fiber_is_reported_not_raised():
    ref = RefinementDatum(pointed_circle(), smooth_circle(), {}, {},
                          {0: ("cycle", ("nope",))})
    assert ref.validate() == ["cycle fiber of circle 0 has unknown edges",
                              "edge fibers do not partition the fine edges",
                              "fine vertices ['v'] unaccounted for"]
