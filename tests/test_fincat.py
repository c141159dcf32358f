import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from strathom import cyclo, fincat
from strathom.checks import small_category_pool
from strathom.enrich import nerve
from strathom.fincat import (FactorizationSystem, FinCategory, Functor,
                             SetDiagram, SimplicialFinSet, codiscrete,
                             colimit_of_sets,
                             discrete_category,
                             factorizations, factorize_morphism, free_act,
                             free_cocart_second_factor, limit_of_sets,
                             monoid_category, parallel_pair_category,
                             poset_category, validate_category,
                             walking_idempotent)

from helpers import factorization_unique_up_to_iso


def test_one_object_identity_category_is_valid():
    cat = discrete_category(("x",))
    assert validate_category(cat) == []


def test_walking_idempotent_is_valid():
    assert validate_category(walking_idempotent()) == []


def test_missing_composite_is_reported_not_raised():
    homs = {("*", "*"): ("id", "phi")}
    compose = {("id", "id"): "id", ("id", "phi"): "phi", ("phi", "id"): "phi"}
    cat = FinCategory(("*",), homs, compose, {"*": "id"})
    report = validate_category(cat)
    assert any("missing composite (phi,phi)" in r for r in report)


def test_name_repeated_across_homs_is_reported_once():
    """f in hom(x, y) and in hom(y, x): the name keeps only one pair of
    endpoints, so the repetition is the whole report."""
    homs = {("x", "x"): ("ix",), ("y", "y"): ("iy",),
            ("x", "y"): ("f",), ("y", "x"): ("f",)}
    compose = {("ix", "ix"): "ix", ("iy", "iy"): "iy",
               ("f", "ix"): "f", ("iy", "f"): "f"}
    cat = FinCategory(("x", "y"), homs, compose, {"x": "ix", "y": "iy"})
    assert validate_category(cat) == ["duplicate morphism f"]


def test_empty_hom_on_an_unknown_object_is_reported():
    """An empty hom is kept as given: validation sees its endpoints, and
    the JSON form round-trips it."""
    cat = FinCategory(("*",), {("*", "*"): ("id",), ("*", "ghost"): ()},
                      {("id", "id"): "id"}, {"*": "id"})
    assert validate_category(cat) == ["hom (*,ghost) references unknown object"]
    data = cat.to_json_dict()
    assert data["homs"] == {"*->*": ["id"], "*->ghost": []}
    assert FinCategory.from_json_dict(data).to_json_dict() == data


def test_chain_poset_validates_over_composable_pairs_only():
    # 3,240 morphisms: a pass over all ordered pairs would visit 10.5 M
    cat = poset_category(range(80), lambda a, b: a <= b)
    assert validate_category(cat) == []


@pytest.mark.parametrize("name", ["S3", "divisibility"])
def test_deleted_entries_are_reported_exactly_and_in_a_fixed_order(name):
    full = (cyclo.group_category(*cyclo.symmetric_group_table(3))
            if name == "S3" else
            poset_category(range(1, 13), lambda a, b: b % a == 0))
    rng = random.Random(5)
    deleted = rng.sample(sorted(full.compose_table), 7)
    compose = {k: v for k, v in full.compose_table.items() if k not in deleted}
    cat = FinCategory(full.objects, full.homs, compose, full.units)
    # f in morphisms() order, then g in morphisms() order
    assert validate_category(cat) == [
        f"missing composite ({g},{f})" for f in cat.morphisms()
        for g in cat.morphisms() if (g, f) in deleted]


def test_inverse_is_the_two_sided_inverse_or_none():
    s3 = cyclo.group_category(*cyclo.symmetric_group_table(3))
    for m in s3.morphisms():
        w = s3.inverse(m)
        assert s3.compose(w, m) == s3.compose(m, w) == s3.unit("*")
    idem = walking_idempotent()
    assert idem.inverse("id") == "id"
    assert idem.inverse("phi") is None


def test_inverse_needs_a_unit_at_both_ends():
    # with no unit at x and no composite f∘f, "f∘f = 1_x" must not hold
    # vacuously
    cat = FinCategory(("x",), {("x", "x"): ("f",)}, {}, {})
    assert cat.inverse("f") is None
    report = FactorizationSystem(cat, frozenset(), frozenset()).validate()
    assert "left class is missing isomorphisms" not in report
    assert "right class is missing isomorphisms" not in report


def test_dangling_identifier_reported():
    homs = {("*", "*"): ("id",)}
    cat = FinCategory(("*",), homs, {("id", "id"): "ghost"}, {"*": "id"})
    assert any("dangling" in r for r in validate_category(cat))


def test_associativity_violation_reported():
    # x*x = y, y*anything = x: (x x) x = y x = x but x (x x) = x y = x ... build
    # a genuinely broken table instead: u*u = u except one entry
    els = ("e", "u", "v")
    mult = {}
    for a in els:
        for b in els:
            mult[(a, b)] = a if b == "e" else (b if a == "e" else "u")
    mult[("u", "v")] = "v"  # breaks (u v) u vs u (v u)
    cat = monoid_category(els, mult, "e")
    assert any("associativity" in r for r in validate_category(cat))


# -- associativity: Light's test against the triple loop ----------------------------

def triple_loop_report(cat):
    """Independent oracle: the unit-law and associativity part of the report
    by the plain loops, every composable triple (h, g, f) visited.  This is
    what `validate_category` ran before it used Light's test; it expects a
    total table."""
    names = list(cat.morphisms())
    table = cat.compose_table
    report = []
    for f in names:
        if table[(cat.unit(cat.tgt(f)), f)] != f:
            report.append(f"left unit law fails at {f}")
        if table[(f, cat.unit(cat.src(f)))] != f:
            report.append(f"right unit law fails at {f}")
    for f in names:
        for g in names:
            if cat.tgt(f) != cat.src(g):
                continue
            gf = table[(g, f)]
            for h in names:
                if cat.tgt(g) != cat.src(h):
                    continue
                if table[(h, gf)] != table[(table[(h, g)], f)]:
                    report.append(f"associativity fails at ({h},{g},{f})")
    return report


def assert_light_agrees_with_triple_loop(cat):
    report = validate_category(cat)
    oracle = triple_loop_report(cat)
    assert bool(report) == bool(oracle)
    assert set(report) <= set(oracle)
    if not any("unit law" in r for r in oracle):
        # Light's test is complete once the unit laws hold
        assert (any("associativity" in r for r in report)
                == any("associativity" in r for r in oracle))
    return report


def _pair_groupoid_times_cyclic(objects, n):
    """Objects with one arrow x -> y per element of Z/n for every x, y;
    composing adds the elements."""
    name = "{}{}_{}".format
    homs = {(x, y): tuple(name(x, y, k) for k in range(n))
            for x in objects for y in objects}
    compose = {(name(y, z, b), name(x, y, a)): name(x, z, (a + b) % n)
               for x in objects for y in objects for z in objects
               for a in range(n) for b in range(n)}
    return FinCategory(objects, homs, compose,
                       {x: name(x, x, 0) for x in objects})


def _group_categories():
    groups = [("S_3", cyclo.symmetric_group_table(3)),
              ("Q_8", cyclo.quaternion_group_table())]
    groups += [(f"Z/{m}", cyclo.cyclic_group_table(m)) for m in range(1, 7)]
    return [(name, monoid_category(*table)) for name, table in groups]


def _truncated_free_monoid_with_zero(letters, bound):
    """Words up to the bound; a longer concatenation is the absorbing 0.
    The letters are products of nothing else."""
    words = ["".join(w) for n in range(1, bound + 1)
             for w in itertools.product(letters, repeat=n)]
    els = ("1",) + tuple(words) + ("0",)

    def mult(u, v):
        if "0" in (u, v):
            return "0"
        uv = u.replace("1", "") + v.replace("1", "")
        return (uv or "1") if len(uv) <= bound else "0"
    return monoid_category(els, {(u, v): mult(u, v) for u in els for v in els},
                           "1")


def _random_unital_magma(seed):
    rng = random.Random(seed)
    els = ("e",) + tuple(f"x{i}" for i in range(rng.randrange(1, 5)))
    mult = {(a, b): a if b == "e" else b if a == "e" else rng.choice(els)
            for a in els for b in els}
    return monoid_category(els, mult, "e")


def test_light_test_agrees_with_triple_loop_on_valid_categories():
    pool = small_category_pool() + _group_categories() + [
        ("poset_div", poset_category(("1", "2", "3", "6"),
                                     lambda a, b: int(b) % int(a) == 0)),
        ("discrete3", discrete_category(("x", "y", "z"))),
        ("parallel", parallel_pair_category()),
        ("pair_x_z3", _pair_groupoid_times_cyclic(("a", "b"), 3)),
    ]
    for name, cat in pool:
        assert assert_light_agrees_with_triple_loop(cat) == [], name


def test_light_test_agrees_with_triple_loop_on_random_unital_magmas():
    verdicts = set()
    for seed in range(300):
        report = assert_light_agrees_with_triple_loop(_random_unital_magma(seed))
        verdicts.add(bool(report))
    assert verdicts == {True, False}  # both associative and broken tables


def _shuffled(base, table, rng):
    """`base` with another composition table, its morphisms listed in a
    random order (the order in which Light's test picks generators)."""
    homs = {k: tuple(rng.sample(ms, len(ms))) for k, ms in base.homs.items()}
    return FinCategory(base.objects, homs, table, base.units)


def test_light_test_agrees_with_triple_loop_on_corrupted_tables():
    rng = random.Random(20261018)
    bases = [cat for _, cat in _group_categories() if len(cat.hom("*", "*")) > 2]
    bases.append(_pair_groupoid_times_cyclic(("a", "b"), 2))
    monoids = [_truncated_free_monoid_with_zero("ab", 2),
               _truncated_free_monoid_with_zero("abc", 1)]
    for cat in monoids:
        assert assert_light_agrees_with_triple_loop(cat) == []
    flagged = 0
    for trial in range(240):
        base = bases[trial % len(bases)]
        table = dict(base.compose_table)
        (g, f), h = rng.choice(sorted(table.items()))
        others = [m for m in base.hom(base.src(f), base.tgt(g)) if m != h]
        table[(g, f)] = rng.choice(others)
        flagged += bool(assert_light_agrees_with_triple_loop(
            _shuffled(base, table, rng)))
    assert flagged == 240  # one changed entry of a group table is caught
    # monoids with indecomposable elements: a corruption may stay
    # associative, but the verdicts must still agree
    verdicts = set()
    for trial in range(240):
        base = monoids[trial % len(monoids)]
        table = dict(base.compose_table)
        (g, f), h = rng.choice(sorted(table.items()))
        table[(g, f)] = rng.choice([m for m in base.hom("*", "*") if m != h])
        verdicts.add(bool(assert_light_agrees_with_triple_loop(
            _shuffled(base, table, rng))))
    assert verdicts == {True, False}


# -- colimits and limits -------------------------------------------------------

def _diagram_discrete():
    shape = discrete_category(("a", "b"))
    return SetDiagram(shape, {"a": ("x",), "b": ("y",)},
                      {"id_a": {"x": "x"}, "id_b": {"y": "y"}})


def test_colimit_of_discrete_diagram_is_coproduct():
    classes, cocone = colimit_of_sets(_diagram_discrete())
    assert len(classes) == 2


def test_colimit_parallel_pair_saturates_to_one_class():
    shape = parallel_pair_category()
    diag = SetDiagram(shape,
                      {"a": ("fg", "gf"), "b": ("f", "g")},
                      {"id_a": {"fg": "fg", "gf": "gf"},
                       "id_b": {"f": "f", "g": "g"},
                       "d0": {"fg": "g", "gf": "f"},
                       "d1": {"fg": "f", "gf": "g"}})
    assert diag.validate() == []
    classes, _ = colimit_of_sets(diag)
    assert len(classes) == 1
    assert len(classes) == fincat.brute_force_colimit_size(diag)


def test_colimit_group_orbit_quotient():
    shape = monoid_category(("e", "s"), {("e", "e"): "e", ("e", "s"): "s",
                                         ("s", "e"): "s", ("s", "s"): "e"}, "e")
    diag = SetDiagram(shape, {"*": ("x", "y")},
                      {"e": {"x": "x", "y": "y"}, "s": {"x": "y", "y": "x"}})
    classes, _ = colimit_of_sets(diag)
    assert len(classes) == 1


def test_colimit_output_is_canonical_and_cocone_commutes():
    shape = parallel_pair_category()
    diag = SetDiagram(shape, {"a": ("1", "2"), "b": ("u", "v")},
                      {"id_a": {"1": "1", "2": "2"},
                       "id_b": {"u": "u", "v": "v"},
                       "d0": {"1": "u", "2": "v"},
                       "d1": {"1": "u", "2": "u"}})
    classes, cocone = colimit_of_sets(diag)
    assert classes == tuple(sorted(classes))
    for m in shape.morphisms():
        s, t = shape.src(m), shape.tgt(m)
        for a in diag.value(s):
            assert cocone[t][diag.map(m)[a]] == cocone[s][a]


def test_limit_pullback_over_point():
    shape = poset_category(("a", "b", "c"),
                           lambda x, y: x == y or y == "c")
    diag = SetDiagram(shape,
                      {"a": ("1", "2"), "b": ("u",), "c": ("*",)},
                      {"a<=a": {"1": "1", "2": "2"}, "b<=b": {"u": "u"},
                       "c<=c": {"*": "*"},
                       "a<=c": {"1": "*", "2": "*"}, "b<=c": {"u": "*"}})
    elements, cone = limit_of_sets(diag)
    assert len(elements) == 2
    for fam in elements:
        assert cone["a"][fam] in ("1", "2")


def test_limit_equalizer_of_free_swap_is_empty():
    shape = monoid_category(("e", "s"), {("e", "e"): "e", ("e", "s"): "s",
                                         ("s", "e"): "s", ("s", "s"): "e"}, "e")
    diag = SetDiagram(shape, {"*": ("x", "y")},
                      {"e": {"x": "x", "y": "y"}, "s": {"x": "y", "y": "x"}})
    elements, _ = limit_of_sets(diag)
    assert elements == ()


def test_limit_composable_pairs_of_poset_nerve():
    # Entering-path-shaped limit: Y1 x_{Y0} Y1 for the nerve of 0 < 1
    shape = poset_category(("l", "m", "r"),
                           lambda x, y: x == y or y == "m")
    y0 = ("0", "1")
    y1 = ("00", "01", "11")
    tgt = {"00": "0", "01": "1", "11": "1"}
    src = {"00": "0", "01": "0", "11": "1"}
    diag = SetDiagram(shape, {"l": y1, "m": y0, "r": y1},
                      {"l<=l": {a: a for a in y1}, "r<=r": {a: a for a in y1},
                       "m<=m": {a: a for a in y0},
                       "l<=m": tgt, "r<=m": src})
    elements, _ = limit_of_sets(diag)
    assert len(elements) == 4


@st.composite
def _random_parallel_diagram(draw):
    na = draw(st.integers(1, 4))
    nb = draw(st.integers(1, 4))
    a = tuple(f"a{i}" for i in range(na))
    b = tuple(f"b{i}" for i in range(nb))
    f0 = {x: b[draw(st.integers(0, nb - 1))] for x in a}
    f1 = {x: b[draw(st.integers(0, nb - 1))] for x in a}
    shape = parallel_pair_category()
    return SetDiagram(shape, {"a": a, "b": b},
                      {"id_a": {x: x for x in a}, "id_b": {x: x for x in b},
                       "d0": f0, "d1": f1})


@settings(max_examples=60, deadline=None)
@given(_random_parallel_diagram())
def test_colimit_matches_brute_force(diag):
    classes, _ = colimit_of_sets(diag)
    assert len(classes) == fincat.brute_force_colimit_size(diag)


# -- factorization systems ------------------------------------------------------

def _arrow_category():
    """The commutative square category: 0 -> 1 -> 3 and 0 -> 2 -> 3."""
    leq = {("0", "1"), ("0", "2"), ("0", "3"), ("1", "3"), ("2", "3")}
    return poset_category(("0", "1", "2", "3"),
                          lambda a, b: a == b or (a, b) in leq)


def test_factorization_system_validates_and_factors():
    cat = _arrow_category()
    # left class: maps into {0,1}; right class: maps within/towards {1,2,3}
    left = frozenset(m for m in cat.morphisms()
                     if cat.tgt(m) in ("0", "1") or cat.is_identity(m))
    right = frozenset(m for m in cat.morphisms()
                      if cat.src(m) in ("1", "2", "3") or cat.is_identity(m))
    # adjust: this poset needs left = {id, 0<=1}, right = everything from 1
    fs = FactorizationSystem(cat, left | frozenset([cat.unit(x) for x in cat.objects]),
                             right)
    report = fs.validate()
    # the (0 -> 2) leg cannot factor through 1, so this pair is NOT a system
    assert any("no [left;right] factorization" in r for r in report)


def test_iso_factors_as_iso_then_identity():
    cat = walking_idempotent()
    everything = frozenset(cat.morphisms())
    isos = frozenset(m for m in cat.morphisms()
                     if cat.inverse(m) is not None)
    fs = FactorizationSystem(cat, everything, isos)
    assert fs.validate() == []
    l, r = factorize_morphism(fs, "id")
    assert cat.compose(r, l) == "id"
    assert factorization_unique_up_to_iso(fs, "id")
    assert factorization_unique_up_to_iso(fs, "phi")


def test_factorizations_unique_up_to_iso_on_poset():
    cat = _arrow_category()
    isos = frozenset(m for m in cat.morphisms()
                     if cat.inverse(m) is not None)
    everything = frozenset(cat.morphisms())
    fs = FactorizationSystem(cat, isos, everything)
    assert fs.validate() == []
    for f in cat.morphisms():
        assert factorizations(fs, f)
        assert factorization_unique_up_to_iso(fs, f)


# -- composition faults caught by the validators ----------------------------------

def _chain():
    return poset_category(("0", "1", "2"), lambda a, b: a <= b)


def test_diagram_breaking_one_composite_is_reported():
    shape = _chain()
    values = {"0": ("a",), "1": ("b", "b'"), "2": ("c", "c'")}
    maps = {shape.unit(x): {v: v for v in vs} for x, vs in values.items()}
    maps.update({"0<=1": {"a": "b"}, "1<=2": {"b": "c", "b'": "c'"},
                 "0<=2": {"a": "c'"}})  # F(1<=2)∘F(0<=1) sends a to c
    report = SetDiagram(shape, values, maps).validate()
    assert report == ["functoriality fails at (1<=2,0<=1) on 'a'"]


_ARROW = poset_category(("x", "y"), lambda a, b: a <= b)


def _arrow_with(units=None, compose=()):
    """The arrow category x -> y with its units replaced and composition
    table entries overridden."""
    return FinCategory(_ARROW.objects, _ARROW.homs,
                       {**_ARROW.compose_table, **dict(compose)},
                       _ARROW.units if units is None else units)


_Z2 = monoid_category(*cyclo.cyclic_group_table(2))
_SETS = {"x": (0, 1), "y": ("a",)}
_MAPS = {"x<=x": {0: 0, 1: 1}, "y<=y": {"a": "a"}, "x<=y": {0: "a", 1: "a"}}
_ID = {m: m for m in _ARROW.morphisms()}
# each datum has exactly one finding, and the report is exactly that finding
_INVALID = [
    (_arrow_with(units={"y": "y<=y"}), "missing unit for x"),
    (_arrow_with(units={"x": "x<=y", "y": "y<=y"}),
     "unit x<=y of x is not an endomorphism of x"),
    (_arrow_with(compose={("x<=y", "x<=y"): "x<=y"}),
     "entry (x<=y,x<=y) is not composable"),
    (_arrow_with(compose={("x<=y", "x<=x"): "x<=x"}),
     "composite x<=x of (x<=y,x<=x) has wrong endpoints"),
    (SetDiagram(discrete_category(("x",)), {}, {"id_x": {}}),
     "no value set at object x"),
    (SetDiagram(_ARROW, _SETS, {m: _MAPS[m] for m in ("x<=x", "y<=y")}),
     "no function at morphism x<=y"),
    (SetDiagram(_ARROW, _SETS, {**_MAPS, "x<=y": {0: "a"}}),
     "function at x<=y has wrong domain"),
    (SetDiagram(_ARROW, _SETS, {**_MAPS, "x<=y": {0: "a", 1: "b"}}),
     "function at x<=y has wrong codomain"),
    # an idempotent, so the composites are still preserved
    (SetDiagram(_ARROW, _SETS, {**_MAPS, "x<=x": {0: 0, 1: 0}}),
     "unit at x is not the identity function"),
    (Functor(_ARROW, _ARROW, {"y": "y"}, _ID), "object x has no image"),
    (Functor(_ARROW, _ARROW, {"x": "x", "y": "y"},
             {m: m for m in ("x<=x", "y<=y")}), "morphism x<=y has no image"),
    (Functor(_ARROW, _ARROW, {"x": "x", "y": "y"}, {**_ID, "x<=y": "ghost"}),
     "morphism x<=y has no image"),
    (Functor(_ARROW, _ARROW, {"x": "x", "y": "y"}, {**_ID, "x<=y": "x<=x"}),
     "image of x<=y has wrong endpoints"),
    (Functor(walking_idempotent(), walking_idempotent(), {"*": "*"},
             {"id": "phi", "phi": "phi"}), "unit of * not preserved"),
    # in Z/2 the trivial subgroup is closed and every g = g∘0 = 0∘g factors
    (FactorizationSystem(_Z2, frozenset({"0"}), frozenset(_Z2.morphisms())),
     "left class is missing isomorphisms"),
    (FactorizationSystem(_Z2, frozenset(_Z2.morphisms()), frozenset({"0"})),
     "right class is missing isomorphisms"),
]


@pytest.mark.parametrize("datum, finding", _INVALID, ids=[
    f"{type(datum).__name__}: {finding}" for datum, finding in _INVALID])
def test_validator_reports_exactly_its_finding(datum, finding):
    report = (validate_category(datum) if isinstance(datum, FinCategory)
              else datum.validate())
    assert report == [finding]


_NERVE = nerve(_ARROW, 2)


def _nerve_with_faces(face):
    """The nerve of x -> y at depth 2 with `face(n, i)` in place of d_i on
    level n; its degeneracies are kept."""
    return SimplicialFinSet(
        _NERVE.levels, lambda n, i, x: _NERVE.faces[face(n, i)][x],
        lambda n, i, x: _NERVE.degens[(n, i)][x])


@pytest.mark.parametrize("face, report", [
    (lambda n, i: (n, 0 if (n, i) == (2, 2) else i),
     ["d_0 d_2 != d_1 d_0 at level 2", "d_1 d_2 != d_1 d_1 at level 2",
      "d_2 s_1 != id at level 1"]),
    (lambda n, i: (n, n - i),
     ["d_0 s_0 != id at level 1", "d_2 s_1 != id at level 1"]),
], ids=["d2-replaced-by-d0", "faces-reversed"])
def test_broken_simplicial_identities_are_reported_exactly(face, report):
    assert _NERVE.validate_identities() == []
    assert _nerve_with_faces(face).validate_identities() == report


def test_functor_breaking_one_composite_is_reported():
    # phi∘phi = phi in the walking idempotent, but 1 + 1 = 0 in Z/2
    z2 = monoid_category(*cyclo.cyclic_group_table(2))
    functor = Functor(walking_idempotent(), z2, {"*": "*"},
                      {"id": "0", "phi": "1"})
    assert functor.validate() == ["composition not preserved at (phi,phi)"]


def test_class_not_closed_under_composition_is_reported():
    cat = _chain()
    units = frozenset(cat.unit(x) for x in cat.objects)
    fs = FactorizationSystem(cat, units | {"0<=1", "1<=2"},
                             frozenset(cat.morphisms()))
    assert fs.validate() == ["left class not closed under (1<=2,0<=1)"]


# -- codiscrete -------------------------------------------------------------------

def test_codiscrete_empty_set():
    x = codiscrete((), 2)
    assert x.level(0) == ()
    assert x.level(2) == ()


def test_codiscrete_level_sizes():
    x = codiscrete(("a", "b"), 1)
    assert len(x.level(1)) == 4
    y = codiscrete(("a", "b", "c"), 2)
    assert len(y.level(2)) == 27


def test_codiscrete_simplicial_identities_and_segal():
    x = codiscrete(("a", "b", "c"), 4)
    assert x.validate_identities() == []
    for n in range(2, 5):
        assert x.is_segal(n)


def test_codiscrete_segal_map_is_bijection_onto_fiber_product():
    x = codiscrete(("a", "b", "c"), 3)
    s, t = x.source_map(), x.target_map()
    strings = [(e1, e2, e3)
               for e1 in x.level(1) for e2 in x.level(1) for e3 in x.level(1)
               if t[e1] == s[e2] and t[e2] == s[e3]]
    assert len(strings) == len(x.level(3)) == 3 ** 4


# -- free constructions -------------------------------------------------------------

def test_free_act_single_edge_morphism_count():
    cat = free_act(("a", "b"), 1)
    assert len(cat.hom("a", "b")) == 1


def test_free_act_length_two_bound():
    cat = free_act(("a", "b"), 2)
    # a>b plus a>a>b and a>b>b
    assert len(cat.hom("a", "b")) == 3


def test_free_act_composition_is_concatenation():
    cat = free_act(("a", "b"), 2)
    assert cat.compose("b>a", "a>b") == "a>b>a"


def test_free_act_overflow_marked_not_silently_dropped():
    cat = free_act(("a",), 1)
    assert cat.compose("a>a", "a>a") is None


def _all_pairs_free_act(vertex_set, m_max):
    """Oracle for `fincat.free_act`: the vertex sequences of at most m_max
    steps, by length and then in product order, with every pair of them
    composed and the composites past the bound dropped."""
    vs = tuple(vertex_set)
    homs, seq_of = {}, {}
    for m in range(m_max + 1):
        for seq in itertools.product(vs, repeat=m + 1):
            name = ">".join(seq)
            homs.setdefault((seq[0], seq[-1]), []).append(name)
            seq_of[name] = seq
    compose = {}
    for f, fs in seq_of.items():
        for g, gs in seq_of.items():
            if fs[-1] == gs[0] and len(fs) + len(gs) - 2 <= m_max:
                compose[(g, f)] = ">".join(fs + gs[1:])
    return FinCategory(vs, homs, compose, {v: v for v in vs})


def _all_pairs_free_monoid(m, max_len):
    """Oracle for `cyclo.free_monoid_category`: the words of length at most
    max_len, by length and then in product order, with every pair of them
    composed and the composites past the bound dropped (the filter is
    hoisted: `fits[k]` holds the words of length at most k)."""
    letters = [chr(ord("a") + i) for i in range(m)]
    words = ["".join(w) for n in range(max_len + 1)
             for w in itertools.product(letters, repeat=n)]
    fits = {k: [v for v in words if len(v) <= k] for k in range(max_len + 1)}
    compose = {}
    for u in words:
        for v in fits[max_len - len(u)]:
            compose[(v or "1", u or "1")] = u + v or "1"
    return FinCategory(("*",), {("*", "*"): [w or "1" for w in words]},
                       compose, {"*": "1"})


def _tables(cat):
    """Everything a construction outputs, in its order."""
    return (cat.objects, list(cat.homs.items()),
            list(cat.compose_table.items()), list(cat.units.items()))


@pytest.mark.parametrize("vs", [("a",), ("a", "b"), ("b", "a"),
                                ("x", "y", "z"), ("z", "x", "y")])
def test_free_act_matches_the_all_pairs_oracle(vs):
    for m_max in range(1, 5):
        assert _tables(free_act(vs, m_max)) \
            == _tables(_all_pairs_free_act(vs, m_max))
    with pytest.raises(ValueError):
        free_act(vs, 0)


def test_free_act_rejects_repeated_vertex_names():
    """Two vertices "a" would give the object "a" twice."""
    with pytest.raises(ValueError, match="repeat"):
        free_act(("a", "a"), 1)


def test_free_act_rejects_vertex_names_with_the_separator():
    """The path a → b would be named "a>b", the unit of the vertex "a>b"."""
    with pytest.raises(ValueError, match="'>'"):
        free_act(("a", "a>b", "b"), 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_free_monoid_matches_the_all_pairs_oracle(m):
    for max_len in range(9):
        assert _tables(cyclo.free_monoid_category(m, max_len)) \
            == _tables(_all_pairs_free_monoid(m, max_len))


def test_power_is_the_repeated_composite():
    """`power` reads the binary digits of r; the r-fold composite is the
    oracle, also where the composition bound runs out."""
    cats = [cat for _, cat in small_category_pool()]
    cats += [cyclo.group_category(*cyclo.symmetric_group_table(4)),
             cyclo.free_monoid_category(2, 6), free_act(("a", "b"), 3)]
    for cat in cats:
        for m in cat.morphisms():
            if cat.src(m) != cat.tgt(m):
                continue
            fold = m
            for r in range(1, 41):
                assert cat.power(m, r) == fold, (m, r)
                if fold is not None:
                    fold = cat.compose_table.get((m, fold))


def test_free_act_unital_and_associative_in_bound():
    cat = free_act(("a", "b"), 3)
    for f in cat.morphisms():
        assert cat.compose(f, cat.unit(cat.src(f))) == f
        assert cat.compose(cat.unit(cat.tgt(f)), f) == f
    morphs = list(cat.morphisms())
    for f in morphs:
        for g in morphs:
            if cat.tgt(f) != cat.src(g):
                continue
            gf = cat.compose(g, f)
            if gf is None:
                continue
            for h in morphs:
                if cat.tgt(g) != cat.src(h):
                    continue
                hg = cat.compose(h, g)
                if hg is None or cat.compose(h, gf) is None:
                    continue
                assert cat.compose(h, gf) == cat.compose(hg, f)


# -- free cocartesian second factor ----------------------------------------------

def test_free_cocart_over_point_is_unchanged():
    b = discrete_category(("0",))
    e = discrete_category(("x", "y"))
    p = Functor(e, b, {"x": "0", "y": "0"},
                {"id_x": "id_0", "id_y": "id_0"})
    fs = FactorizationSystem(b, frozenset(b.morphisms()),
                             frozenset(b.morphisms()))
    cat, proj, _ = free_cocart_second_factor(p, fs)
    assert len(cat.objects) == 2
    assert validate_category(cat) == []


def test_free_cocart_over_interval_objects():
    b = poset_category(("0", "1"), lambda a, c: a <= c)
    e = discrete_category(("x",))
    p = Functor(e, b, {"x": "0"}, {"id_x": "0<=0"})
    fs = FactorizationSystem(b,
                             frozenset(m for m in b.morphisms()
                                       if b.inverse(m) is not None),
                             frozenset(b.morphisms()))
    cat, proj, lift = free_cocart_second_factor(p, fs)
    assert sorted(cat.objects) == ["(x,0<=0)", "(x,0<=1)"]
    assert validate_category(cat) == []
    assert proj.validate() == []


def test_free_cocart_lift_square_is_the_factorization_square():
    b = poset_category(("0", "1"), lambda a, c: a <= c)
    e = discrete_category(("x",))
    p = Functor(e, b, {"x": "0"}, {"id_x": "0<=0"})
    fs = FactorizationSystem(b,
                             frozenset(m for m in b.morphisms()
                                       if b.inverse(m) is not None),
                             frozenset(b.morphisms()))
    _, _, lift = free_cocart_second_factor(p, fs)
    src, tgt, mor, square = lift(("x", "0<=0"), "0<=1")
    assert square["square_commutes"]
    assert square["left"] == "0<=0"      # iso part
    assert square["right"] == "0<=1"     # the active continuation
    assert tgt == "(x,0<=1)"
