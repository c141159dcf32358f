"""The unstable cyclotomic structure on trace classes, in the Set backend.

Pulling a circle labeling back along the degree-r self-cover repeats its
cyclic word r times, which on trace classes is just the r-th power of the
composite.  The strict fixed points of these repetition operators give the
pi_0 model of TC; the trace sends each object to its all-identities class.

The fixed points here are the STRICT equalizer of the psi operators on
pi_0, not pi_0 of the homotopy fixed points: the two agree exactly when the
underlying homotopy type is discrete (as in the idempotent example), while
e.g. one-object groupoids acquire extra monodromy components that a strict
pi_0 model cannot see.  Outputs carry a "strict-pi0" model tag for this
reason.
"""

from __future__ import annotations

import itertools
import math

from .fincat import FinCategory, _free_category, monoid_category
from .facthom import TraceClassTable, thh_set_pi0

DEFAULT_DEGREES = (2, 3)

MODEL_TAG = "strict-pi0"


def psi_r(table: TraceClassTable, r: int):
    """The repetition operator on trace classes: [g] -> [g^r].

    Returns a dict class-representative -> class-representative.  Raises if
    a required power leaves a bounded composition table.
    """
    if r < 1:
        raise ValueError("psi_r requires r >= 1")
    cat = table.category
    out = {}
    for rep in table.class_representatives():
        power = cat.power(rep, r)
        if power is None:
            raise ValueError(f"power {rep}^{r} exceeds the composition bound")
        out[rep] = table.class_of(power)
    return out


def psi_well_defined(table: TraceClassTable, r: int) -> bool:
    """Saturation check: members of one class all power into one class."""
    cat = table.category
    for block in table.classes():
        images = set()
        for m in block:
            p = cat.power(m, r)
            if p is None:
                return False
            images.add(table.class_of(p))
        if len(images) != 1:
            return False
    return True


def fixed_classes(table: TraceClassTable, degrees=DEFAULT_DEGREES):
    """Strict pi_0 TC: the classes fixed by every requested repetition
    operator.  Identity classes are always fixed."""
    psis = [psi_r(table, r) for r in degrees]
    return tuple(rep for rep in table.class_representatives()
                 if all(psi[rep] == rep for psi in psis))


def trace_of(table: TraceClassTable):
    """The unstable trace at pi_0: object -> its identity class, sorted by
    object."""
    cat = table.category
    return dict(sorted((x, table.class_of(cat.unit(x))) for x in cat.objects))


def tc0(cat: FinCategory, degrees=DEFAULT_DEGREES):
    return fixed_classes(thh_set_pi0(cat), degrees)


def trace0(cat: FinCategory):
    return trace_of(thh_set_pi0(cat))


def trace_lands_in_tc0(cat: FinCategory, degrees=DEFAULT_DEGREES) -> bool:
    table = thh_set_pi0(cat)
    fixed = set(fixed_classes(table, degrees))
    return all(c in fixed for c in trace_of(table).values())


# -- groups and their loop spaces -------------------------------------------------

def cyclic_group_table(n: int):
    """Z/n: elements "0".."n-1" under addition."""
    elements = tuple(str(i) for i in range(n))
    mult = {(str(a), str(b)): str((a + b) % n)
            for a in range(n) for b in range(n)}
    return elements, mult, "0"


def symmetric_group_table(n: int):
    """S_n as permutation tuples in one-line notation, composed left-then-right."""
    elements = tuple("".join(map(str, p))
                     for p in itertools.permutations(range(n)))
    def compose(p, q):
        # p then q, acting on positions: (p then q)(i) = q(p(i))
        return "".join(str(int(q[int(p[i])])) for i in range(n))
    mult = {(p, q): compose(p, q) for p in elements for q in elements}
    return elements, mult, "".join(map(str, range(n)))


def quaternion_group_table():
    """Q_8 = {±1, ±i, ±j, ±k}."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1",
            ("k", "k"): "-1", ("i", "j"): "k", ("j", "i"): "-k",
            ("j", "k"): "i", ("k", "j"): "-i", ("k", "i"): "j",
            ("i", "k"): "-j"}
    def strip(a):
        return (a[1:], -1) if a.startswith("-") else (a, 1)
    def mul(a, b):
        ua, sa = strip(a)
        ub, sb = strip(b)
        if ua == "1":
            core, s = ub, 1
        elif ub == "1":
            core, s = ua, 1
        else:
            prod = base[(ua, ub)]
            core, s = strip(prod)
        sign = sa * sb * s
        return core if sign == 1 else f"-{core}"
    mult = {(a, b): mul(a, b) for a in units for b in units}
    return tuple(units), mult, "1"


def group_category(elements, mult, unit) -> FinCategory:
    return monoid_category(elements, mult, unit)


def conjugacy_classes(elements, mult, unit):
    """Brute-force conjugacy classes and centralizer orders: the oracle for
    the trace classes (`thh_set_pi0`) of a one-object groupoid."""
    inverse = {}
    for a in elements:
        for b in elements:
            if mult[(a, b)] == unit and mult[(b, a)] == unit:
                inverse[a] = b
    classes = []
    seen = set()
    for g in sorted(elements):
        if g in seen:
            continue
        orbit = {mult[(mult[(h, g)], inverse[h])] for h in elements}
        seen |= orbit
        centralizer = [h for h in elements
                       if mult[(h, g)] == mult[(g, h)]]
        classes.append((tuple(sorted(orbit)), len(centralizer)))
    return classes


def free_loop_census(elements, mult, unit):
    """pi_0 data of the free loop space of a one-object groupoid: number of
    conjugacy classes and the per-class stabilizer (centralizer) orders."""
    classes = conjugacy_classes(elements, mult, unit)
    return len(classes), tuple(sorted(c[1] for c in classes))


# -- free monoids and configuration classes ----------------------------------------

def free_monoid_category(m: int, max_len: int) -> FinCategory:
    """Words of length <= max_len over the m letters a, b, c, ..., composed
    by concatenation: the bounded free category on one object with a loop
    per letter, the empty word "1".  The table holds sum over s <= max_len
    of (s + 1)·m^s entries (out-of-bound composites are absent)."""
    letters = [(chr(ord("a") + i), "*") for i in range(m)]
    return _free_category(("*",), {"*": letters}, max_len,
                          lambda x, word: word or "1")


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def necklace_count(m: int, n: int) -> int:
    """(1/n) sum over d | n of phi(d) m^{n/d}: rotation classes of length-n
    words over m letters."""
    if n == 0:
        return 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += euler_phi(d) * m ** (n // d)
    return total // n


def burnside_necklace_count(m: int, n: int) -> int:
    """Oracle for `necklace_count` and for the trace classes of a bounded
    free monoid: average the fixed-point counts of the rotations by direct
    orbit counting (Burnside)."""
    if n == 0:
        return 1
    return sum(m ** math.gcd(n, k) for k in range(n)) // n


def configuration_census(m: int, n_max: int):
    """pi_0 counts of circle configurations of labeled points: at each
    length n the rotation classes of length-n words over m letters."""
    if m < 1:
        raise ValueError("need at least one label")
    return tuple(necklace_count(m, n) for n in range(1, n_max + 1))


def trace_classes_by_length(table: TraceClassTable):
    """For a bounded free-monoid category: class counts graded by word
    length (the relations preserve length, so the grading is well defined)."""
    by_len = {}
    for block in table.classes():
        lengths = {0 if m == "1" else len(m) for m in block}
        if len(lengths) != 1:
            raise AssertionError("trace relations mixed word lengths")
        n = lengths.pop()
        by_len[n] = by_len.get(n, 0) + 1
    return by_len
