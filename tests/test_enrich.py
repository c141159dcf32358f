import itertools
import random

import pytest

from strathom import checks, enrich, manifold
from strathom.exactla import QQ, ZZ, RingFp
from strathom.enrich import (LinearCategory, algebra_from_table,
                             commutator_cokernel_invariants,
                             corr_pushforward, corr_pushforward_index_check,
                             corr_pushforward_witness,
                             ground_ring_algebra, group_algebra,
                             matrix_algebra, nerve,
                             pointed_pushforward, product_algebra,
                             span_of_pointed_map, tensor_all_sets,
                             truncated_polynomial_algebra,
                             validate_linear_category,
                             Product, zero_algebra)
from strathom.fincat import (poset_category, validate_category,
                             walking_idempotent)
from strathom.manifold import FinSpan, compose_spans
from strathom.cyclo import cyclic_group_table


# -- validation ---------------------------------------------------------------

def test_ground_ring_is_a_valid_one_object_category():
    assert validate_linear_category(ground_ring_algebra(QQ)) == []


def test_walking_idempotent_validates_as_set_enriched():
    assert validate_category(walking_idempotent()) == []


def test_broken_associativity_is_listed():
    basis = ("e", "x", "y")
    table = {}
    for b in basis:
        table[("e", b)] = {b: 1}
        table[(b, "e")] = {b: 1}
    table[("e", "e")] = {"e": 1}
    table[("x", "x")] = {"y": 1}
    table[("x", "y")] = {"e": 1}   # (x x) y = y y = 0 but x (x y) = x
    table[("y", "x")] = {}
    table[("y", "y")] = {}
    alg = algebra_from_table(QQ, basis, table, {"e": 1})
    report = validate_linear_category(alg)
    assert any("associativity" in r for r in report)


def test_matrix_algebra_and_group_algebra_validate():
    assert validate_linear_category(matrix_algebra(QQ, 2)) == []
    assert validate_linear_category(
        group_algebra(ZZ, *cyclic_group_table(3))) == []
    assert validate_linear_category(
        truncated_polynomial_algebra(RingFp(5), 3)) == []
    assert validate_linear_category(
        product_algebra(ground_ring_algebra(QQ), ground_ring_algebra(QQ))) == []


def test_compose_vectors_is_compose_basis_extended_bilinearly():
    """On M_2(Z), "u then v" is the matrix product u·v, and equals the sum
    over basis pairs (i, j) of u_i v_j compose_basis(i, j)."""
    alg = matrix_algebra(ZZ, 2)
    u = {"E00": 3, "E01": -2, "E11": 5}
    v = {"E00": 7, "E10": 4, "E11": -6}
    out = alg.compose_vectors("*", "*", "*", u, v)
    product = {f"E{a}{d}": sum(u.get(f"E{a}{b}", 0) * v.get(f"E{b}{d}", 0)
                               for b in range(2))
               for a in range(2) for d in range(2)}
    assert ZZ.reduce(out) == ZZ.reduce(product) == {
        "E00": 13, "E01": 12, "E10": 20, "E11": -30}
    pairwise = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, c in alg.compose_basis("*", "*", "*", i, j).items():
                pairwise[k] = pairwise.get(k, 0) + ci * cj * c
    assert out == pairwise


def test_zero_algebra_validates_with_empty_homs():
    report = validate_linear_category(zero_algebra(QQ))
    assert any("missing unit" in r for r in report)


# -- tensors --------------------------------------------------------------------

def test_tensor_all_sets_empty_is_unit():
    assert tensor_all_sets([]) == ((),)


def test_tensor_all_sets_sizes_multiply():
    out = tensor_all_sets([("a", "b"), ("x", "y", "z")])
    assert len(out) == 6


# -- span pushforward ----------------------------------------------------------------

def test_identity_span_pushforward_fixes_cardinalities():
    fam = {"s": ("a", "b", "c")}
    out = corr_pushforward(FinSpan.identity(("s",)), fam)
    assert len(out["s"]) == 3


def test_diagonal_then_square():
    span = FinSpan(("s",), ("u1", "u2"), ("t",),
                   {"u1": "s", "u2": "s"}, {"u1": "t", "u2": "t"})
    out = corr_pushforward(span, {"s": ("a", "b", "c")})
    assert len(out["t"]) == 9


def test_empty_fiber_gives_unit():
    span = FinSpan(("s",), (), ("t",), {}, {})
    out = corr_pushforward(span, {"s": ("a", "b")})
    assert tuple(out["t"]) == ((),)


def test_pushforward_slots_follow_repr_order_not_apex_order():
    span = FinSpan(("s", "r"), ("b", "a", 10, 2), ("t", "x"),
                   {"b": "s", "a": "r", 10: "s", 2: "r"},
                   {"b": "t", "a": "t", 10: "t", 2: "t"})
    out = corr_pushforward(span, {"s": ("p", "q"), "r": ("z",)})
    assert out["t"].slots == ("a", "b", 10, 2)
    assert out["t"].factors == (("z",), ("p", "q"), ("p", "q"), ("z",))
    assert tuple(out["x"]) == ((),)


def test_composite_slots_follow_repr_order_not_build_order():
    # the composite is built u by u, (2, "v") first; its repr sorts last
    a = FinSpan((0, 1), (2, 10), (0,), {2: 0, 10: 1}, {2: 0, 10: 0})
    b = FinSpan((0,), ("v",), (0,), {"v": 0}, {"v": 0})
    comp = compose_spans(a, b)
    assert comp.apex == ((2, "v"), (10, "v"))
    fam = {0: ("x",), 1: ("y", "z")}
    out = corr_pushforward(comp, fam)
    assert out[0].slots == ((10, "v"), (2, "v"))
    assert out[0].factors == (("y", "z"), ("x",))
    assert corr_pushforward(a, fam)[0].slots == (10, 2)
    corr_pushforward_index_check(a, b, fam)


def test_pushforward_layouts_read_as_their_tuples():
    """Each pushforward iterates as the tuples of an inline
    `itertools.product` over its fiber and has their number as its length,
    on a seeded sample of the corr suite's span pairs, with the suite's
    family and one whose value sets can be empty."""
    pairs = [(a, b) for a, out_of in checks.corr_span_pairs() for b in out_of]
    empty_values = 0
    for a, b in random.Random(23).sample(pairs, 300):
        for fam in ({s: tuple(range((s % 3) + 1)) for s in a.left},
                    {s: tuple("xyz"[:s]) for s in a.left}):
            inner = corr_pushforward(a, fam)
            for span, family in ((a, fam), (b, inner),
                                 (compose_spans(a, b), fam)):
                for t, pf in corr_pushforward(span, family).items():
                    fiber = sorted((u for u in span.apex
                                    if span.to_right[u] == t), key=repr)
                    expected = tuple(
                        tuple(zip(fiber, combo)) for combo in
                        itertools.product(*(family[span.to_left[u]]
                                            for u in fiber)))
                    assert tuple(pf) == expected
                    assert len(pf) == len(expected)
                    empty_values += not expected
    assert empty_values > 0


def test_pushforward_functoriality_with_witness():
    a = FinSpan((0, 1), ("u", "v", "w"), (0,),
                {"u": 0, "v": 1, "w": 1}, {"u": 0, "v": 0, "w": 0})
    b = FinSpan((0,), ("p", "q"), (0, 1),
                {"p": 0, "q": 0}, {"p": 0, "q": 1})
    fam = {0: ("x", "y"), 1: ("z",)}
    witness = corr_pushforward_witness(a, b, fam)
    for t, table in witness.items():
        assert len(table) == len(set(table.values()))


def test_index_check_agrees_with_tuple_witness():
    """The layout check and the tuple-level witness both pass, on a seeded
    sample of the corr suite's own span pairs, among them empty fibers and
    empty value sets."""
    pairs = [(a, b) for a, out_of in checks.corr_span_pairs() for b in out_of]
    sample = random.Random(17).sample(pairs, 1000)
    empty_fibers = empty_values = 0
    for a, b in sample:
        for fam in ({s: tuple(range((s % 3) + 1)) for s in a.left},
                    {s: tuple("xyz"[:s]) for s in a.left}):
            assert corr_pushforward_index_check(a, b, fam) is None
            witness = corr_pushforward_witness(a, b, fam)
            direct = corr_pushforward(compose_spans(a, b), fam)
            for t in b.right:
                assert set(witness[t]) == set(direct[t])
                empty_fibers += tuple(direct[t]) == ((),)
                empty_values += tuple(direct[t]) == ()
    assert empty_fibers > 0 and empty_values > 0


def _faulty_compose(fault):
    """compose_spans with one apex element dropped or duplicated, or with the
    left legs of the first and last apex elements swapped."""
    def compose(a, b):
        comp = compose_spans(a, b)
        apex, to_left = list(comp.apex), dict(comp.to_left)
        if fault == "drop":
            apex = apex[:-1]
        elif fault == "duplicate":
            apex.append(apex[0])
        else:
            first, last = apex[0], apex[-1]
            to_left[first], to_left[last] = to_left[last], to_left[first]
        return FinSpan(comp.left, apex, comp.right, to_left, comp.to_right)
    return compose


@pytest.mark.parametrize("fault", ["drop", "duplicate", "swap"])
def test_index_check_catches_a_faulty_composite(monkeypatch, fault):
    a = FinSpan((0, 1), ("u", "v", "w"), (0,),
                {"u": 0, "v": 1, "w": 1}, {"u": 0, "v": 0, "w": 0})
    b = FinSpan((0,), ("p", "q"), (0, 1),
                {"p": 0, "q": 0}, {"p": 0, "q": 1})
    # singleton value sets: none of the faults changes a cardinality, so
    # only the slot layout and the values can catch them
    fam = {0: ("x",), 1: ("z",)}
    corr_pushforward_index_check(a, b, fam)
    monkeypatch.setattr(manifold, "compose_spans", _faulty_compose(fault))
    with pytest.raises(AssertionError, match="functoriality"):
        corr_pushforward_index_check(a, b, fam)
    with pytest.raises(AssertionError, match="functoriality"):
        corr_pushforward_witness(a, b, fam)


def test_suite_corr_reports_a_faulty_composite(monkeypatch):
    # only the pairs of the first three spans a: 62 of them fail, so the 20
    # reported failures all come before the finding that too few pairs
    # were checked (with the first span alone, none fails)
    pairs = checks.corr_span_pairs
    monkeypatch.setattr(checks, "corr_span_pairs",
                        lambda: itertools.islice(pairs(), 3))
    monkeypatch.setattr(manifold, "compose_spans", _faulty_compose("drop"))
    report = checks.suite_corr()
    assert report["failed"] > 20
    assert all("functoriality" in f for f in report["failures"])


def _faulty_pushforward(a, b, fault):
    """corr_pushforward with one fault that a `Product` can carry.  "short"
    and "repeat" act on the composite span (neither a nor b): its first
    value set with two or more values loses its last value, or repeats it.
    "move" acts on the first leg a: the first value set with two or more
    values loses its last value, and the last value set of another slot
    gains it."""
    def with_factor(pf, k, values):
        factors = list(pf.factors)
        factors[k] = values
        return Product(pf.slots, factors)

    def slots_of(out):
        return [(t, k) for t, pf in out.items() for k in range(len(pf.slots))]

    def pushforward(span, family):
        out = corr_pushforward(span, family)
        if fault == "move" and span is a:
            t, k = next((t, k) for t, k in slots_of(out)
                        if len(out[t].factors[k]) >= 2)
            values = out[t].factors[k]
            out[t] = with_factor(out[t], k, values[:-1])
            s, j = [slot for slot in slots_of(out) if slot != (t, k)][-1]
            out[s] = with_factor(out[s], j, out[s].factors[j] + values[-1:])
        elif fault in ("short", "repeat") and span is not a and span is not b:
            t, k = next((t, k) for t, k in slots_of(out)
                        if len(out[t].factors[k]) >= 2)
            values = out[t].factors[k]
            out[t] = with_factor(out[t], k, values[:-1] if fault == "short"
                                 else values + values[-1:])
        return out
    return pushforward


@pytest.mark.parametrize("fault", ["short", "repeat", "move"])
def test_index_check_catches_a_faulty_pushforward(monkeypatch, fault):
    # every fault leaves the slot layouts alone and changes one value set
    # of the composite, or two of the first leg; "move" keeps the number of
    # values on the first leg
    a = FinSpan((0, 1), (0, 1), (0, 1), {0: 1, 1: 1}, {0: 1, 1: 1})
    b = FinSpan((0, 1), ("v0", "v1", "v2"), (0,),
                {"v0": 0, "v1": 1, "v2": 1}, {"v0": 0, "v1": 0, "v2": 0})
    fam = {0: (0,), 1: (0, 1)}
    corr_pushforward_index_check(a, b, fam)
    monkeypatch.setattr(enrich, "corr_pushforward", _faulty_pushforward(a, b, fault))
    with pytest.raises(AssertionError, match="functoriality.*value sets differ"):
        corr_pushforward_index_check(a, b, fam)
    with pytest.raises(AssertionError, match="functoriality"):
        corr_pushforward_witness(a, b, fam)


def test_pointed_restriction_agrees_with_span_route():
    rng = random.Random(99)
    for _ in range(100):
        left = tuple(range(rng.randrange(1, 4)))
        right = tuple(range(rng.randrange(1, 4)))
        pmap = {s: (rng.choice(right) if rng.random() < 0.6 else None)
                for s in left}
        fam = {s: tuple(range(rng.randrange(1, 4))) for s in left}
        direct = pointed_pushforward(pmap, left, right, fam)
        via = corr_pushforward(span_of_pointed_map(pmap, left, right), fam)
        assert direct == {t: tuple(pf) for t, pf in via.items()}


# -- nerve ------------------------------------------------------------------------------

def test_nerve_level_zero_is_object_set():
    p = poset_category(("0", "1"), lambda a, b: a <= b)
    nv = nerve(p, 2)
    assert len(nv.level(0)) == 2


def test_nerve_idem_level_one():
    nv = nerve(walking_idempotent(), 2)
    assert len(nv.level(1)) == 2


def test_nerve_poset_level_two_counts_composable_pairs():
    p = poset_category(("0", "1"), lambda a, b: a <= b)
    nv = nerve(p, 2)
    assert len(nv.level(2)) == 4


def test_nerve_satisfies_segal_up_to_four():
    for cat in (walking_idempotent(),
                poset_category(("0", "1", "2"), lambda a, b: a <= b)):
        nv = nerve(cat, 4)
        assert nv.validate_identities() == []
        for n in range(2, 5):
            assert nv.is_segal(n)


# -- serialization ---------------------------------------------------------------------

def test_linear_category_json_round_trip():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    data = alg.to_json_dict()
    again = LinearCategory.from_json_dict(data)
    assert again.to_json_dict() == data
    assert validate_linear_category(again) == []


def test_rationals_serialize_as_strings():
    alg = algebra_from_table(
        QQ, ("e",), {("e", "e"): {"e": QQ.parse("1/2")}}, {"e": 2})
    data = alg.to_json_dict()
    assert data["structure_constants"]["*,*,*"]["e,e"]["e"] == "1/2"


def test_hom_dims_accept_plain_dimensions():
    data = {"ring": "Q", "objects": ["*"], "hom_dims": {"*->*": 1},
            "structure_constants": {"*,*,*": {"b0,b0": {"b0": "1"}}},
            "units": {"*": {"b0": "1"}}}
    alg = LinearCategory.from_json_dict(data)
    assert validate_linear_category(alg) == []


# -- commutator oracle -------------------------------------------------------------------

def test_commutator_cokernel_of_commutative_algebra_is_everything():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    rank, torsion = commutator_cokernel_invariants(alg)
    assert (rank, torsion) == (2, ())


def test_commutator_cokernel_of_matrix_algebra_is_rank_one():
    rank, torsion = commutator_cokernel_invariants(matrix_algebra(QQ, 2))
    assert (rank, torsion) == (1, ())
