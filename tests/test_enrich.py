import itertools
import json
import math
import os
import signal
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from strathom import checks, enrich, fanout, manifold
from strathom.exactla import QQ, ZZ, RingFp
from strathom.enrich import (LinearCategory, algebra_from_table, delinearize,
                             linearize, monoid_algebra,
                             commutator_cokernel_invariants,
                             corr_pushforward, corr_pushforward_index_check,
                             corr_pushforward_witness,
                             ground_ring_algebra, group_algebra,
                             is_separable, matrix_algebra, nerve,
                             pointed_pushforward, separable_by_trace_form,
                             span_of_pointed_map, tensor_all_sets,
                             truncated_polynomial_algebra,
                             validate_linear_category,
                             Product)
from strathom.fincat import (FactorizationSystem, FinCategory, Functor,
                             discrete_category, free_cocart_second_factor,
                             monoid_category, poset_category,
                             validate_category, walking_idempotent)
from strathom.manifold import FinSpan, compose_spans
from strathom.cyclo import (cyclic_group_table, free_monoid_category,
                            group_category, quaternion_group_table,
                            symmetric_group_table)

from helpers import (connected_groupoid, product_algebra, rescaled,
                     separability_pool, zero_algebra)


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


@pytest.mark.parametrize("product, finding", [
    (lambda a, b: b, "right unit law fails at f"),
    (lambda a, b: a, "left unit law fails at f"),
], ids=["right-zero", "left-zero"])
def test_a_one_sided_unit_is_reported_exactly(product, finding):
    # the right-zero semigroup {e, f}, ab = b, is associative and e is a
    # left unit only; the left-zero one, ab = a, has e a right unit only
    basis = ("e", "f")
    table = {(a, b): {product(a, b): 1} for a in basis for b in basis}
    alg = algebra_from_table(QQ, basis, table, {"e": 1})
    assert validate_linear_category(alg) == [finding]


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


def _leg_matrix(span):
    """The span's matrix over ℕ: (s, t) -> the number of apex elements over
    s and t, read off the legs alone."""
    return Counter((span.to_left[u], span.to_right[u]) for u in span.apex)


def test_span_composition_is_the_product_of_leg_matrices():
    """Spans of finite sets up to apex iso compose as ℕ-matrices (Lack,
    "Composing PROPs", TAC 13, 2004): on every pair of the corr suite, the
    legs of `compose_spans(a, b)` give M_a·M_b, and the pushforward of a
    family F through the composite has Π_s |F(s)|^M[s, t] elements over
    each t.  The expected side reads no fiber layout and no slot."""
    pairs = nonempty = 0
    rows_of = {}   # id of a second span -> t -> [(w, M_b[t, w])]
    for a, out_of in checks.corr_span_pairs():
        family = {s: tuple(range((s % 3) + 1)) for s in a.left}
        m_a = _leg_matrix(a)
        for b in out_of:
            rows = rows_of.get(id(b))
            if rows is None:
                rows = rows_of[id(b)] = {}
                for (t, w), k in _leg_matrix(b).items():
                    rows.setdefault(t, []).append((w, k))
            product = Counter()
            for (s, t), k in m_a.items():
                for w, n in rows.get(t, ()):
                    product[s, w] += k * n
            comp = compose_spans(a, b)
            assert (comp.left, comp.right) == (a.left, b.right)
            assert _leg_matrix(comp) == product
            pushed = corr_pushforward(comp, family)
            for w in b.right:
                assert len(pushed[w]) == math.prod(
                    len(family[s]) ** product[s, w] for s in a.left)
            pairs += 1
            nonempty += bool(comp.apex)
    assert pairs == 122_773
    assert nonempty > 60_000


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


def _slice_corr_pairs(monkeypatch, count):
    """Only the pairs of the first `count` spans a of the corr suite."""
    pairs = checks.corr_span_pairs
    monkeypatch.setattr(checks, "corr_span_pairs",
                        lambda: itertools.islice(pairs(), count))


def _serial_corr_loop():
    """The corr suite's pair loop as one inline loop: the number of pairs
    that pass and the failure messages in pair order."""
    checked, failures = 0, []
    for a, out_of in checks.corr_span_pairs():
        family = {s: tuple(range((s % 3) + 1)) for s in a.left}
        for b in out_of:
            try:
                enrich.corr_pushforward_index_check(a, b, family)
            except AssertionError as exc:
                failures.append(str(exc))
                continue
            checked += 1
    return checked, failures


def _recorded_forks(monkeypatch):
    """The pids of the children forked from here on."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("fault", ["drop", "duplicate", "swap"])
def test_split_corr_loop_gives_the_serial_report(monkeypatch, fault):
    """Split into 1, 2 or 3 parts, the pair loop counts the same passes and
    reports the same failures in the same order as one inline loop; so
    does the suite's report.  Eleven spans a: the parts are uneven."""
    _slice_corr_pairs(monkeypatch, 11)
    faulty = _faulty_compose(fault)
    # an empty composite has no apex element to duplicate or swap
    monkeypatch.setattr(manifold, "compose_spans", lambda a, b: (
        faulty(a, b) if compose_spans(a, b).apex else compose_spans(a, b)))

    def index_check(a, b, family, inner=None):
        """The index check, its failures naming their pair, so that the
        order of the failures shows."""
        try:
            corr_pushforward_index_check(a, b, family, inner=inner)
        except AssertionError as exc:
            raise AssertionError(f"{exc} on {a.left} <- {a.leg_multiset()} "
                                 f"-> {a.right}, then {b.leg_multiset()} "
                                 f"-> {b.right}") from None
    monkeypatch.setattr(enrich, "corr_pushforward_index_check", index_check)
    pids = _recorded_forks(monkeypatch)
    serial = _serial_corr_loop()
    assert len(serial[1]) > 20 and serial[0] > 0
    assert len(set(serial[1])) == len(serial[1])
    reports = []
    for parts in (1, 2, 3):
        assert checks._corr_pairs_checked(parts) == serial
        monkeypatch.setattr(fanout, "usable_cpus", lambda: parts)
        reports.append(checks.suite_corr())
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["failures"] == serial[1][:20]
    assert len(pids) == 6
    _assert_reaped(pids)


def _no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("how", ["whole", "exit", "kill", "truncated",
                                 "status", "no-fork"])
def test_a_child_without_a_whole_result_is_checked_again(monkeypatch, how):
    """A child that exits with status 3 before it writes, is killed by a
    signal, writes truncated JSON, or writes its whole result and then
    exits with status 3, or a fork that fails: the parent checks that part
    itself and gives the serial result.  A child that returns its whole
    result leaves its part to no one else."""
    _slice_corr_pairs(monkeypatch, 4)
    monkeypatch.setattr(manifold, "compose_spans", _faulty_compose("drop"))
    serial = checks._corr_pairs_checked(1)
    parent, calls = os.getpid(), []

    def index_check(*args, **kwargs):
        if os.getpid() != parent and how == "exit":
            os._exit(3)
        if os.getpid() != parent and how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        calls.append(None)
        return corr_pushforward_index_check(*args, **kwargs)
    monkeypatch.setattr(enrich, "corr_pushforward_index_check", index_check)
    if how == "truncated":
        monkeypatch.setattr(fanout, "json", SimpleNamespace(
            dumps=lambda obj: "[1, [[0", loads=json.loads))
    if how == "status":
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(status or 3))
    if how == "no-fork":
        monkeypatch.setattr(os, "fork", _no_fork)
    pids = _recorded_forks(monkeypatch)
    assert checks._corr_pairs_checked(2) == serial
    # the parent checked its own part, and the child's unless it was whole
    in_parent = itertools.islice(checks.corr_span_pairs(), 0, None,
                                 2 if how == "whole" else 1)
    assert len(calls) == sum(len(out_of) for _, out_of in in_parent)
    assert len(pids) == (how != "no-fork")
    _assert_reaped(pids)


def test_an_exception_in_a_child_part_surfaces_from_the_parent(monkeypatch):
    """The fourth span a, the only one with three apex elements among the
    first five, falls to the second of two parts: its child exits nonzero
    and the parent, checking that part again, raises."""
    _slice_corr_pairs(monkeypatch, 5)

    def compose(a, b):
        if len(a.apex) == 3:
            raise RuntimeError("a span with three apex elements")
        return compose_spans(a, b)
    monkeypatch.setattr(manifold, "compose_spans", compose)
    pids = _recorded_forks(monkeypatch)
    assert checks._corr_part(0, 2)[1] == []
    with pytest.raises(RuntimeError, match="three apex elements"):
        checks._corr_pairs_checked(2)
    assert len(pids) == 1
    _assert_reaped(pids)


def test_no_child_outlives_a_raising_parent(monkeypatch):
    _slice_corr_pairs(monkeypatch, 6)
    parent, compose = os.getpid(), compose_spans

    def compose_or_raise(a, b):
        if os.getpid() == parent:
            raise RuntimeError("the parent's part fails")
        return compose(a, b)
    monkeypatch.setattr(manifold, "compose_spans", compose_or_raise)
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 3)
    pids = _recorded_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="parent's part fails"):
        checks.suite_corr()
    assert len(pids) == 2
    _assert_reaped(pids)


def test_usable_cpus_follow_the_affinity(monkeypatch):
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        assert fanout.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert fanout.usable_cpus() == 1


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


# -- linearization ----------------------------------------------------------------------

def _hand_written_monoid_algebra(ring, elements, mult, unit):
    """The monoid algebra written out from the multiplication table: the
    independent oracle for `linearize` on a monoid category."""
    table = {(a, b): {mult[(a, b)]: 1} for a in elements for b in elements}
    return algebra_from_table(ring, elements, table, {unit: 1})


MONOID_TABLES = [cyclic_group_table(n) for n in range(1, 6)] + [
    symmetric_group_table(3), quaternion_group_table(),
    (("id", "phi"), walking_idempotent().compose_table, "id"),
] + [checks.transformation_monoid(2, seed) for seed in range(8)]


def _presentation(cat):
    if isinstance(cat, FinCategory):
        return (cat.objects, cat.homs, cat.compose_table, cat.units)
    return (cat.ring, cat.objects, cat.hom_basis, cat.sc, cat.units)


@pytest.mark.parametrize("ring", [ZZ, QQ, RingFp(2)], ids=["Z", "Q", "F2"])
def test_linearize_of_a_monoid_is_the_hand_written_monoid_algebra(ring):
    for table in MONOID_TABLES:
        oracle = _presentation(_hand_written_monoid_algebra(ring, *table))
        assert _presentation(linearize(monoid_category(*table), ring)) \
            == oracle
        assert _presentation(monoid_algebra(ring, *table)) == oracle


def test_linearize_keeps_hom_order_and_empty_homs_and_drops_missing_composites():
    cat = FinCategory(("x", "y"), {("x", "x"): ("ix",), ("y", "y"): ("iy",),
                                   ("y", "x"): (), ("x", "y"): ("g", "f")},
                      {("ix", "ix"): "ix", ("iy", "iy"): "iy",
                       ("f", "ix"): "f", ("g", "ix"): "g",
                       ("iy", "f"): "f", ("iy", "g"): "g"},
                      {"x": "ix", "y": "iy"})
    alg = linearize(cat, ZZ)
    assert alg.objects == ("x", "y")
    assert alg.hom_basis == cat.homs
    assert alg.compose_basis("x", "x", "y", "ix", "g") == {"g": 1}
    assert alg.units == {"x": {"ix": 1}, "y": {"iy": 1}}
    assert validate_linear_category(alg) == []
    # words of length <= 2 in a, b: "ab then a" is past the bound, so 0
    free = linearize(free_monoid_category(2, 2), QQ)
    assert free.compose_basis("*", "*", "*", "a", "b") == {"ab": 1}
    assert free.compose_basis("*", "*", "*", "ab", "a") == {}
    assert validate_linear_category(free) == []


def _algebra(alg):
    """`_presentation` of a linear category with its zero structure
    constants dropped: equal exactly for equal algebras on equal bases."""
    ring, objects, homs, sc, units = _presentation(alg)
    return (ring, objects, homs,
            {key: {pair: vec for pair, vec in table.items()
                   if ring.reduce(vec)} for key, table in sc.items()},
            units)


def _basis_algebra_pool():
    """Every algebra of the pools, basis algebras and others: the
    separability pool, `checks.mixed_algebras`, random algebras over Z and
    F_2, and Z[S_3], Z[Q_8] and a connected groupoid over Z."""
    pool = [alg for _, alg in separability_pool()]
    pool += [alg for _, alg, _ in checks.mixed_algebras()]
    pool += [checks.random_associative_algebra(ring, seed)
             for seed in range(20) for ring in (ZZ, RingFp(2))]
    pool += [linearize(cat, ZZ) for cat in (
        group_category(*symmetric_group_table(3)),
        group_category(*quaternion_group_table()),
        connected_groupoid(*cyclic_group_table(2), ("x", "y")))]
    return pool


def test_linearize_inverts_delinearize_on_every_basis_algebra():
    read = 0
    for alg in _basis_algebra_pool():
        cat = delinearize(alg)
        if cat is None:
            continue
        read += 1
        assert _algebra(linearize(cat, alg.ring)) == _algebra(alg)
    assert read >= 100


def _delinearize_pool():
    return [c for _, c in checks.small_category_pool()] + [
        group_category(*symmetric_group_table(3)),
        group_category(*quaternion_group_table()),
        connected_groupoid(*symmetric_group_table(3), ("x", "y", "z")),
        free_monoid_category(2, 3), free_monoid_category(3, 2)] + [
        checks.random_segal_category(seed) for seed in range(12)]


@pytest.mark.parametrize("ring", [ZZ, QQ, RingFp(2), RingFp(5)],
                         ids=["Z", "Q", "F2", "F5"])
def test_delinearize_reads_back_every_pool_category(ring):
    for cat in _delinearize_pool():
        back = delinearize(linearize(cat, ring))
        assert back is not None
        assert back.objects == cat.objects
        assert back.homs == cat.homs
        assert back.compose_table == cat.compose_table
        assert back.units == cat.units


def _with_constant(alg, pair, vec):
    sc = {key: dict(table) for key, table in alg.sc.items()}
    sc[("*", "*", "*")][pair] = vec
    return LinearCategory(alg.ring, alg.objects, alg.hom_basis, sc,
                          alg.units)


def _name_in_two_homs(ring):
    # BZ/2 on x and on y, with the unit of y named as the unit of x
    cat = FinCategory(("x", "y"), {("x", "x"): ("e", "g"),
                                   ("y", "y"): ("e", "h")},
                      {("e", "e"): "e", ("g", "e"): "g", ("e", "g"): "g",
                       ("g", "g"): "e", ("h", "h"): "e", ("h", "e"): "h",
                       ("e", "h"): "h"},
                      {"x": "e", "y": "e"})
    return linearize(cat, ring)


@pytest.mark.parametrize("ring", [ZZ, QQ, RingFp(5)], ids=["Z", "Q", "F5"])
def test_delinearize_refuses_what_is_not_a_basis_algebra(ring):
    s3 = linearize(group_category(*symmetric_group_table(3)), ring)
    assert delinearize(s3) is not None
    basis = symmetric_group_table(3)[0]
    # the same algebra on a rescaled basis, where some constants are -1,
    # or 2 and 1/2 over a field, or where the unit is -1 times a basis
    # element
    scales = [[(-1) ** k for k in range(6)], [-1] * 6]
    if ring.is_field:
        scales.append([2 ** (k % 2) for k in range(6)])
    for scale in scales:
        assert delinearize(rescaled(s3, dict(zip(basis, scale)))) is None
    # one structure constant with coefficient 2, or with two terms
    pair = (basis[1], basis[2])
    (k,) = s3.compose_basis("*", "*", "*", *pair)
    assert delinearize(_with_constant(s3, pair, {k: 2})) is None
    assert delinearize(_with_constant(s3, pair, {k: 1, basis[0]: 1})) is None
    # a unit with coefficient 2
    doubled = LinearCategory(ring, s3.objects, s3.hom_basis, s3.sc,
                             {"*": {basis[0]: 2}})
    assert delinearize(doubled) is None
    # a name in two homs
    assert delinearize(_name_in_two_homs(ring)) is None


# -- serialization ---------------------------------------------------------------------

def test_linear_category_json_round_trip():
    alg = group_algebra(QQ, *cyclic_group_table(2))
    data = alg.to_json_dict()
    again = LinearCategory.from_json_dict(data)
    assert again.to_json_dict() == data
    assert validate_linear_category(again) == []


def _json_round_trip_cases():
    cats = [c for _, c in checks.small_category_pool()] + [
        group_category(*symmetric_group_table(3)),
        group_category(*quaternion_group_table()),
        free_monoid_category(2, 3)]
    return cats + [linearize(c, ring) for c in cats for ring in (ZZ, RingFp(5))]


def test_categories_and_their_linearizations_round_trip_through_json():
    for cat in _json_round_trip_cases():
        data = cat.to_json_dict()
        again = type(cat).from_json_dict(data)
        assert again.to_json_dict() == data
        assert _presentation(again) == _presentation(cat)


def _free_cocart_category():
    """Objects (x,0<=0) and (x,0<=1): names holding a comma."""
    b = poset_category(("0", "1"), lambda a, c: a <= c)
    e = discrete_category(("x",))
    fs = FactorizationSystem(b, frozenset({"0<=0", "1<=1"}),
                             frozenset(b.morphisms()))
    cat, _, _ = free_cocart_second_factor(
        Functor(e, b, {"x": "0"}, {"id_x": "0<=0"}), fs)
    return cat


def _walking_idempotent_named(unit, phi):
    mult = {(a, b): unit if a == b == unit else phi
            for a in (unit, phi) for b in (unit, phi)}
    return monoid_category((unit, phi), mult, unit)


@pytest.mark.parametrize("cat, message", [
    (monoid_category(("i*d",), {("i*d", "i*d"): "i*d"}, "i*d"),
     "morphism 'i*d' holds '*', which separates the names in a JSON key"),
    (discrete_category(("a->b",)),
     "object 'a->b' holds '->', which separates the names in a JSON key"),
    (linearize(_free_cocart_category(), QQ),
     "object '(x,0<=0)' holds ',', which separates the names in a JSON key"),
    (linearize(_walking_idempotent_named("1", "x,y"), QQ),
     "basis element 'x,y' holds ',', which separates the names in a JSON "
     "key"),
], ids=["set-morphism-star", "set-object-arrow", "linear-object-comma",
        "linear-basis-comma"])
def test_names_holding_a_key_separator_are_not_written(cat, message):
    # written, each would read back as another, invalid category
    assert (validate_category(cat) if isinstance(cat, FinCategory)
            else validate_linear_category(cat)) == []
    with pytest.raises(ValueError) as exc:
        cat.to_json_dict()
    assert str(exc.value) == message


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


# -- the trace-form certificate ------------------------------------------------------

def test_a_nondegenerate_trace_form_proves_separability():
    # sound on every ring: True only for a separable algebra, False only for
    # one that is not, and nothing at all over Z
    verdicts = []
    for name, alg in separability_pool():
        verdict = separable_by_trace_form(alg)
        if verdict is not None:
            assert verdict is is_separable(alg), name
        if not alg.ring.is_field:
            assert verdict is None, name
        verdicts.append(verdict)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 5


def test_over_q_the_trace_form_decides_separability():
    # Dickson's criterion: in characteristic 0 a nondegenerate trace form is
    # the same as separability, so over Q the solve is never needed
    rational = [(n, a) for n, a in separability_pool() if a.ring == QQ]
    assert len(rational) >= 20
    for name, alg in rational:
        assert separable_by_trace_form(alg) is is_separable(alg), name


@pytest.mark.parametrize("alg, verdict", [
    (matrix_algebra(RingFp(2), 2), None),   # separable, yet T = 2 tr(ab) = 0
    (matrix_algebra(RingFp(3), 2), True),
    (matrix_algebra(ZZ, 2), None),          # separable, but Z is never read
    (group_algebra(ZZ, *cyclic_group_table(3)), None),
    (group_algebra(RingFp(3), *cyclic_group_table(3)), None),
    (truncated_polynomial_algebra(QQ, 2), False),
    (zero_algebra(QQ), True),
], ids=["M_2(F_2)", "M_2(F_3)", "M_2(Z)", "Z[Z/3]", "F_3[Z/3]", "Q[x]/x^2",
        "zero"])
def test_trace_form_verdicts_on_named_algebras(alg, verdict):
    assert separable_by_trace_form(alg) is verdict


def test_trace_form_verdict_does_not_depend_on_the_basis():
    # Q[Z/3] and F_7[Z/3] with e_k standing for c_k·g^k, so that no
    # structure constant is 1: T changes by a congruence, not in rank
    c = [Fraction(1), Fraction(2, 3), Fraction(5, 4)]
    basis = ["e0", "e1", "e2"]
    table = {(f"e{i}", f"e{j}"): {f"e{(i + j) % 3}":
                                  c[i] * c[j] / c[(i + j) % 3]}
             for i in range(3) for j in range(3)}
    for ring in (QQ, RingFp(7)):
        alg = algebra_from_table(ring, basis, {
            pair: ring.reduce(vec) for pair, vec in table.items()},
            {"e0": 1})
        assert validate_linear_category(alg) == []
        assert separable_by_trace_form(alg) is True
