import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from strathom.cyclo import (burnside_necklace_count, build_cyclo_action,
                            configuration_census, conjugacy_classes,
                            cyclic_group_table, free_loop_census,
                            free_monoid_category, group_category,
                            necklace_count, psi_r, psi_well_defined,
                            quaternion_group_table, symmetric_group_table,
                            tc0, trace0, trace_classes_by_length,
                            trace_lands_in_tc0)
from strathom.facthom import thh_set_pi0
from strathom.fincat import discrete_category, walking_idempotent


IDEM = walking_idempotent()
BZ4 = group_category(*cyclic_group_table(4))


# -- repetition operators -------------------------------------------------------

def test_psi_one_is_identity():
    table = thh_set_pi0(BZ4)
    assert psi_r(table, 1) == {c: c for c in table.class_representatives()}


def test_psi_three_on_z4_is_tripling():
    table = thh_set_pi0(BZ4)
    psis = psi_r(table, 3)
    assert psis[table.class_of("1")] == table.class_of("3")
    assert psis[table.class_of("2")] == table.class_of("2")


def test_psi_fixes_idempotent_classes():
    table = thh_set_pi0(IDEM)
    for r in (1, 2, 3, 5):
        assert psi_r(table, r) == {c: c for c in table.class_representatives()}


def test_psi_is_well_defined_on_classes():
    for cat in (IDEM, BZ4, group_category(*symmetric_group_table(3))):
        table = thh_set_pi0(cat)
        for r in (2, 3, 4):
            assert psi_well_defined(table, r)


def test_psi_semigroup_law():
    for cat in (IDEM, BZ4, group_category(*quaternion_group_table())):
        table = thh_set_pi0(cat)
        psi2 = psi_r(table, 2)
        psi3 = psi_r(table, 3)
        psi6 = psi_r(table, 6)
        assert {c: psi2[psi3[c]] for c in psi6} == psi6
        assert {c: psi3[psi2[c]] for c in psi6} == psi6


def test_psi_rejects_bad_degree():
    table = thh_set_pi0(IDEM)
    with pytest.raises(ValueError):
        psi_r(table, 0)


# -- tc0 -----------------------------------------------------------------------------

def test_tc0_of_idempotent_keeps_both_classes():
    assert tc0(IDEM, (2, 3, 5)) == ("id", "phi")


def test_tc0_of_z4_with_squaring():
    assert tc0(BZ4, (2,)) == ("0",)


def test_tc0_of_discrete_category_keeps_everything():
    cat = discrete_category(("x", "y", "z"))
    assert len(tc0(cat, (2, 3))) == 3


def test_cyclo_action_metadata():
    action = build_cyclo_action(IDEM, (2, 3))
    assert action.rotation_trivial
    assert action.fixed_classes() == ("id", "phi")


# -- trace -----------------------------------------------------------------------------

def test_trace_of_idempotent_selects_identity_class():
    datum = trace0(IDEM)
    assert datum.assignment == {"*": "id"}


def test_trace_of_s3_is_unit_class():
    cat = group_category(*symmetric_group_table(3))
    datum = trace0(cat)
    table = thh_set_pi0(cat)
    assert datum.assignment["*"] == table.class_of("012")


def test_trace_of_discrete_category_is_bijective_onto_tc0():
    cat = discrete_category(("x", "y"))
    datum = trace0(cat)
    assert sorted(datum.assignment.values()) == sorted(tc0(cat, (2, 3)))


def test_trace_always_lands_in_tc0():
    for cat in (IDEM, BZ4, group_category(*quaternion_group_table())):
        assert trace_lands_in_tc0(cat, (2, 3, 5))


# -- loop census -----------------------------------------------------------------------

def test_census_z4():
    count, stabs = free_loop_census(*cyclic_group_table(4))
    assert count == 4
    assert stabs == (4, 4, 4, 4)


def test_census_s3():
    count, stabs = free_loop_census(*symmetric_group_table(3))
    assert count == 3
    assert stabs == (2, 3, 6)


def test_census_trivial_group():
    count, stabs = free_loop_census(*cyclic_group_table(1))
    assert count == 1 and stabs == (1,)


def test_census_q8():
    count, stabs = free_loop_census(*quaternion_group_table())
    assert count == 5
    assert stabs == (4, 4, 4, 8, 8)


def test_census_agrees_with_trace_classes():
    for table_data in (cyclic_group_table(4), symmetric_group_table(3),
                       quaternion_group_table()):
        count, _ = free_loop_census(*table_data)
        assert count == len(thh_set_pi0(group_category(*table_data)))


def test_conjugacy_partition_matches_trace_partition():
    els, mult, unit = symmetric_group_table(3)
    brute = sorted(c[0] for c in conjugacy_classes(els, mult, unit))
    table = thh_set_pi0(group_category(els, mult, unit))
    assert sorted(table.classes()) == brute


# -- configuration census ---------------------------------------------------------------

def test_single_label_configurations_are_connected():
    assert configuration_census(1, 8) == (1,) * 8


def test_two_label_examples():
    census = configuration_census(2, 4)
    assert census[2] == 4    # n = 3
    assert census[3] == 6    # n = 4


def test_census_formula_matches_burnside_oracle():
    for m in (1, 2, 3, 4):
        for n in range(1, 11):
            assert necklace_count(m, n) == burnside_necklace_count(m, n)


def _necklace_representatives(m, n):
    """The least rotation of each class of length-n words over m letters,
    each class once (Fredricksen-Kessler-Maiorana, in Duval's iterative
    form): the Lyndon words whose length divides n, repeated to length n."""
    w = [-1]
    while w:
        w[-1] += 1
        if n % len(w) == 0:
            yield tuple(w * (n // len(w)))
        k = len(w)
        while len(w) < n:
            w.append(w[-k])
        while w and w[-1] == m - 1:
            w.pop()


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 9))
@example(3, 6)
def test_necklace_matches_explicit_orbit_count(m, n):
    reps = list(_necklace_representatives(m, n))
    assert necklace_count(m, n) == len(reps) == len(set(reps))
    if m ** n <= 1000:
        # brute force: every word, every rotation
        orbits = {min(w[k:] + w[:k] for k in range(n))
                  for w in itertools.product(range(m), repeat=n)}
        assert orbits == set(reps)


def test_free_monoid_classes_grade_to_necklaces():
    for m in (1, 2, 3):
        table = thh_set_pi0(free_monoid_category(m, 6))
        by_len = trace_classes_by_length(table)
        assert by_len[0] == 1
        for n in range(1, 7):
            assert by_len[n] == necklace_count(m, n)


@pytest.mark.parametrize("m, bound", [(1, 6), (2, 5), (3, 4)])
def test_free_monoid_table_is_the_brute_force_pair_filter(m, bound):
    cat = free_monoid_category(m, bound)
    letters = "abc"[:m]
    words = ["".join(w) for n in range(bound + 1)
             for w in itertools.product(letters, repeat=n)]
    name = {w: w or "1" for w in words}
    assert list(cat.morphisms()) == [name[w] for w in words]
    # every pair of words, kept when the concatenation is in bound;
    # compose(g, f) is "f then g"
    expected = {(name[v], name[u]): name[u + v]
                for u in words for v in words if len(u) + len(v) <= bound}
    assert cat.compose_table == expected
    assert len(cat.compose_table) == sum((s + 1) * m ** s
                                         for s in range(bound + 1))


def test_rotation_acts_trivially_on_classes():
    from strathom.facthom import cyclic_bar_set_level
    for cat in (IDEM, BZ4):
        table = thh_set_pi0(cat)
        lvl = cyclic_bar_set_level(cat, 1)
        for (xs, gs) in lvl.elements:
            rot = lvl.cyclic[(xs, gs)]
            a = cat.compose(gs[1], gs[0])
            b = cat.compose(rot[1][1], rot[1][0])
            assert table.class_of(a) == table.class_of(b)


def test_census_s4_brute_force():
    count, stabs = free_loop_census(*symmetric_group_table(4))
    assert count == 5
    # class sizes from centralizer orders partition the group
    assert sum(24 // s for s in stabs) == 24
