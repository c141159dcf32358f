"""Enrichment backends: finite sets (cartesian) and exact linear modules.

A Set-enriched category with discrete objects is just a `FinCategory`; the
linear backend gets its own presentation class with structure constants over
an exact ring.  Diagonal-flavoured functoriality lives here too: the span
pushforward (pull back, then take the indexed product over fibers) and its
restriction along pointed maps.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from . import manifold
from .exactla import (QQ, Ring, SparseMat, cokernel_invariants,
                      ring_from_name)
from .fincat import (FinCategory, SimplicialFinSet, check_json,
                     check_key_names, monoid_category, repeated_names)
from .manifold import FinSpan


# -- the cartesian Set backend -------------------------------------------------

def tensor_all_sets(values):
    """Product of finite sets in canonical order; the empty product is the
    unit (a single empty tuple)."""
    return tuple(itertools.product(*values))


class Product:
    """The product of finite value sets, one per slot, as a lazy mixed-radix
    layout.

    Its elements are the tuples of pairs (slots[k], factors[k][digit_k]),
    one digit per slot with radix len(factors[k]), in the order of
    `itertools.product(*factors)`: the last slot runs fastest.  Nothing is
    built until it is iterated, and the length is the product of the factor
    sizes.  An empty slot list gives the one-point product `((),)`.
    """

    __slots__ = ("slots", "factors")

    def __init__(self, slots, factors):
        self.slots = tuple(slots)
        self.factors = tuple(factors)

    def __len__(self):
        return math.prod(map(len, self.factors))

    def __iter__(self):
        return map(tuple, map(zip, itertools.repeat(self.slots),
                              itertools.product(*self.factors)))

    def __repr__(self):
        return f"Product({self.slots!r}, {self.factors!r})"


EMPTY_PRODUCT = Product((), ())


def corr_pushforward(span: FinSpan, family):
    """Push a family of finite sets through a span.

    family maps each element of span.left to a finite set; the result maps
    t to the product over the fiber of the right leg:

        (V_s)_{s in S}  |->  ( prod_{u in psi^{-1}(t)} V_{phi(u)} )_{t in T}

    Each value is a `Product` laid out over the fiber, sorted by `repr` so
    outputs are deterministic, with factor V_{phi(u)} at slot u.  Its
    elements are tuples of (apex element, value) pairs, built only when they
    are read.  The fibers and their images come from the span's
    `right_fibers`, computed once per span; only the family is looked up
    here.  Every empty fiber gives the one shared `EMPTY_PRODUCT`.
    """
    layout = span.right_fibers
    out = {}
    for t in span.right:
        fiber = layout.get(t)
        if fiber is None:
            out[t] = EMPTY_PRODUCT
        else:
            out[t] = Product(fiber[0], map(family.__getitem__, fiber[1]))
    return out


def corr_pushforward_witness(a: FinSpan, b: FinSpan, family, inner=None):
    """The canonical bijection between pushing through a composite span and
    composing the pushforwards.

    Returns, per element of b.right, a dict from composite-span elements to
    two-step elements.  Raises unless the regrouped composite elements and
    the two-step elements agree as multisets, so an element listed twice on
    one side only is caught.
    `inner` may carry a precomputed pushforward of the family through `a`.

    This is the tuple-level differential oracle for
    `corr_pushforward_index_check`: it regroups every element by hand, so it
    is slow, and the tests compare the two on a seeded subset of pairs.
    """
    comp = manifold.compose_spans(a, b)
    step1 = corr_pushforward(a, family) if inner is None else inner
    step2 = corr_pushforward(b, step1)
    direct = corr_pushforward(comp, family)
    witness = {}
    for t in b.right:
        table, images = {}, Counter()
        for elem in direct[t]:
            groups = {}
            for ((u, v), val) in elem:
                groups.setdefault(v, []).append((u, val))
            regrouped = tuple(
                (v, tuple(sorted(groups.get(v, []), key=lambda p: repr(p[0]))))
                for v in sorted((v for v in b.apex if b.to_right[v] == t),
                                key=repr))
            table[elem] = regrouped
            images[regrouped] += 1
        if images != Counter(step2[t]):
            raise AssertionError(f"pushforward functoriality fails at {t!r}")
        witness[t] = table
    return witness


def _not_functorial(t, reason):
    return AssertionError(f"pushforward functoriality fails at {t!r}: {reason}")


def corr_pushforward_index_check(a: FinSpan, b: FinSpan, family, inner=None):
    """Pushforward functoriality, checked for every element from the slot
    layouts alone.

    Pushes the family through the composite span and through a then b,
    and compares the two `Product`s without building an element.  A
    composite element has one digit per slot (u, v) of its fiber; the
    matching two-step element has one digit per v, itself a mixed-radix
    number over the u above that v.  So composite elements map digit by
    digit to two-step ones, read off the two layouts alone.

    The map keeps digits, and a `Product`'s value at slot k of an element
    is `factors[k][digit_k]`.  So the values of every matched pair agree
    exactly when the two sides hold equal value sets at each slot: one
    comparison per slot covers every element.  Once the slot sets and the
    value sets agree, the map is a bijection onto the two-step elements:
    it relabels mixed-radix digits between slots of equal radices.  So
    neither the element counts nor the map itself need a further test.

    Raises AssertionError unless the slot sets agree and the value sets
    agree at every slot.  `inner` may carry a precomputed pushforward of
    the family through `a`.
    """
    comp = manifold.compose_spans(a, b)
    step1 = corr_pushforward(a, family) if inner is None else inner
    step2 = corr_pushforward(b, step1)
    direct = corr_pushforward(comp, family)
    for t in b.right:
        composite = direct[t]
        if composite is EMPTY_PRODUCT and step2[t] is EMPTY_PRODUCT:
            continue
        # each two-step slot (u, v) -> its value set
        two_step = {(u, v): values
                    for v, group in zip(step2[t].slots, step2[t].factors)
                    for u, values in zip(group.slots, group.factors)}
        # the common case in one comparison: equal lengths rule out a
        # repeated composite slot, which the dict would otherwise merge
        if (len(composite.slots) == len(two_step)
                and dict(zip(composite.slots, composite.factors)) == two_step):
            continue
        if (len(composite.slots) != len(two_step)
                or two_step.keys() != set(composite.slots)):
            raise _not_functorial(t, "composite and two-step slots differ")
        for key, values in zip(composite.slots, composite.factors):
            if values != two_step[key]:
                raise _not_functorial(t, f"value sets differ at slot {key!r}")


def span_of_pointed_map(partial_map, left, right) -> FinSpan:
    """The span of a pointed map: S <- (defined locus) -> T, where the
    partial map sends undefined elements to the basepoint (None)."""
    apex = [s for s in left if partial_map.get(s) is not None]
    return FinSpan(left, apex, right,
                   {s: s for s in apex},
                   {s: partial_map[s] for s in apex})


def pointed_pushforward(partial_map, left, right, family):
    """Monodromy of the plain symmetric monoidal deloop along a pointed map:
    pull back along the defined locus, then multiply over fibers.  Written
    independently of `corr_pushforward`: the oracle for it on the spans of
    pointed maps."""
    out = {}
    for t in right:
        fiber = sorted((s for s in left if partial_map.get(s) == t), key=repr)
        out[t] = tuple(tuple(zip(fiber, combo))
                       for combo in itertools.product(*(family[s] for s in fiber)))
    return out


# -- the exact linear backend ---------------------------------------------------

class Module:
    """A based free module over an exact ring."""

    def __init__(self, ring: Ring, basis):
        self.ring = ring
        self.basis = tuple(basis)
        self.index = {b: i for i, b in enumerate(self.basis)}

    @property
    def dim(self):
        return len(self.basis)

    def __repr__(self):
        return f"Module({self.ring.name}, dim={self.dim})"


class LinearCategory:
    """A category enriched in based free modules, by structure constants.

    hom_basis[(x, y)] lists the basis of hom(x, y); sc[(x, y, z)][(i, j)] is
    the expansion of "i then j" (i in hom(x,y), j in hom(y,z)) over the basis
    of hom(x, z); units[x] expands the image of 1 in hom(x, x).
    """

    def __init__(self, ring: Ring, objects, hom_basis, sc, units):
        self.ring = ring
        self.objects = tuple(objects)
        self.hom_basis = {k: tuple(v) for k, v in hom_basis.items()}
        self.sc = {k: {pair: dict(vec) for pair, vec in table.items()}
                   for k, table in sc.items()}
        self.units = {x: dict(vec) for x, vec in units.items()}

    def hom(self, x, y):
        return self.hom_basis.get((x, y), ())

    def dim(self, x, y):
        return len(self.hom(x, y))

    def compose_basis(self, x, y, z, i, j):
        """Expansion of (i then j) in hom(x, z), as a dict basis -> coeff."""
        return self.sc.get((x, y, z), {}).get((i, j), {})

    def compose_vectors(self, x, y, z, u, v):
        """`compose_basis` extended bilinearly: (u then v) in hom(x, z) for
        vectors u in hom(x, y) and v in hom(y, z), not normalized."""
        table, out = self.sc.get((x, y, z), {}), {}
        for i, ci in u.items():
            for j, cj in v.items():
                for k, c in table.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + ci * cj * c
        return out

    def unit_vector(self, x):
        return self.units.get(x, {})

    def to_json_dict(self):
        check_key_names("object", self.objects, ("->", ","))
        check_key_names("basis element", itertools.chain.from_iterable(
            self.hom_basis.values()), (",",))

        def show_vec(vec):
            return {str(k): self.ring.show(v) for k, v in sorted(vec.items(),
                                                                 key=repr)}
        return {
            "ring": self.ring.name,
            "objects": list(self.objects),
            "hom_dims": {f"{x}->{y}": list(basis)
                         for (x, y), basis in sorted(self.hom_basis.items())},
            "structure_constants": {
                f"{x},{y},{z}": {f"{i},{j}": show_vec(vec)
                                 for (i, j), vec in sorted(table.items())}
                for (x, y, z), table in sorted(self.sc.items())},
            "units": {x: show_vec(vec) for x, vec in sorted(self.units.items())},
        }

    @classmethod
    def from_json_dict(cls, data):
        ring = ring_from_name(check_json(data["ring"], str, "ring"))
        dims = check_json(data.get("hom_dims", {}), {str: (int, list)},
                          "hom_dims")
        vectors = {str: {str: (int, str)}}
        constants = check_json(data.get("structure_constants", {}),
                               {str: vectors}, "structure_constants")
        # the right unit law needs an entry (b, k) in sc[(x, y, y)] for each
        # b in hom(x, y), so a larger count can never validate
        entries = sum(map(len, constants.values()))
        hom_basis = {}
        for key, basis in dims.items():
            x, _, y = key.partition("->")
            if not _:
                raise ValueError(f"bad hom key {key!r}")
            if isinstance(basis, int):
                if not 0 <= basis <= entries:
                    raise ValueError(
                        f"hom_dims[{key!r}] must be a count from 0 to "
                        f"{entries}, the number of structure-constant "
                        f"entries, found {basis}")
                basis = [f"b{i}" for i in range(basis)]
            hom_basis[(x, y)] = tuple(check_json(basis, [str],
                                                 f"hom_dims[{key!r}]"))
        sc = {}
        for key, table in constants.items():
            parts = tuple(key.split(","))
            if len(parts) != 3:
                raise ValueError(f"bad structure-constant key {key!r}")
            entry = {}
            for pair_key, vec in table.items():
                i, _, j = pair_key.partition(",")
                if not _:
                    raise ValueError(f"bad basis pair {pair_key!r}")
                entry[(i, j)] = {k: ring.parse(v) for k, v in vec.items()}
            sc[parts] = entry
        units = {x: {k: ring.parse(v) for k, v in vec.items()}
                 for x, vec in check_json(data.get("units", {}), vectors,
                                          "units").items()}
        return cls(ring, check_json(data["objects"], [str], "objects"),
                   hom_basis, sc, units)


def validate_linear_category(cat: LinearCategory):
    """Distinct names, hom, structure-constant and unit keys on known
    objects, structure constants and units that name only basis elements of
    their homs, and the associativity and unit laws as identities of
    structure constants."""
    ring = cat.ring
    objs = cat.objects
    report = [f"duplicate object {x}" for x in repeated_names(objs)]
    for (x, y), basis in cat.hom_basis.items():
        if x not in objs or y not in objs:
            report.append(f"hom ({x},{y}) references unknown object")
        report += [f"duplicate basis element {b} in hom({x}, {y})"
                   for b in repeated_names(basis)]
    report += [f"structure constants at {x},{y},{z} reference unknown object"
               for x, y, z in cat.sc if any(w not in objs for w in (x, y, z))]
    report += [f"unit at {x} references unknown object" for x in cat.units
               if x not in objs]
    homs = {key: set(basis) for key, basis in cat.hom_basis.items()}
    for (x, y, z), table in cat.sc.items():
        for (i, j), vec in table.items():
            if i not in homs.get((x, y), ()) or j not in homs.get((y, z), ()):
                report.append(f"structure constant {i},{j} at {x},{y},{z} "
                              f"is not a pair in hom({x}, {y}) x hom({y}, {z})")
            report += [f"structure constant {i},{j} at {x},{y},{z} names {k}, "
                       f"not in hom({x}, {z})"
                       for k in vec if k not in homs.get((x, z), ())]
    for x, vec in cat.units.items():
        report += [f"unit at {x} names {k}, not in hom({x}, {x})"
                   for k in vec if k not in homs.get((x, x), ())]
    if report:
        return report
    for w in objs:
        for x in objs:
            for y in objs:
                for z in objs:
                    for i in cat.hom(w, x):
                        for j in cat.hom(x, y):
                            for k in cat.hom(y, z):
                                left = ring.reduce(cat.compose_vectors(
                                    w, y, z,
                                    cat.compose_basis(w, x, y, i, j), {k: 1}))
                                right = ring.reduce(cat.compose_vectors(
                                    w, x, z, {i: 1},
                                    cat.compose_basis(x, y, z, j, k)))
                                if left != right:
                                    report.append(
                                        f"associativity fails at ({i},{j},{k})")
    for x in objs:
        u = cat.unit_vector(x)
        if not u:
            report.append(f"missing unit at {x}")
            continue
        for y in objs:
            for i in cat.hom(x, y):
                if ring.reduce(cat.compose_vectors(x, x, y, u, {i: 1})) != {i: 1}:
                    report.append(f"left unit law fails at {i}")
            for i in cat.hom(y, x):
                if ring.reduce(cat.compose_vectors(y, x, x, {i: 1}, u)) != {i: 1}:
                    report.append(f"right unit law fails at {i}")
    return report


# -- algebra builders ------------------------------------------------------------

def linearize(cat: FinCategory, ring) -> LinearCategory:
    """The category algebra k[C]: the morphism names as basis, "i then j"
    the one composite `compose_table[(j, i)]`, and 0 where the table has
    none (a length-bounded free monoid gives the truncated free algebra)."""
    sc = {}
    for (j, i), h in cat.compose_table.items():
        sc.setdefault((cat.src(i), cat.tgt(i), cat.tgt(j)), {})[(i, j)] = {h: 1}
    return LinearCategory(ring, cat.objects, cat.homs, sc,
                          {x: {u: 1} for x, u in cat.units.items()})


def delinearize(cat: LinearCategory):
    """The Set category C with `linearize(C, cat.ring)` equal to `cat`, or
    None when `cat` is not a basis algebra.  A basis algebra names each
    basis element in one hom only, and each of its units and nonzero
    structure constants is one basis element of the hom it belongs to, with
    coefficient 1.  A zero structure constant is a missing composite of C.
    This is `linearize`'s inverse on its image."""
    ring = cat.ring
    where = {b: key for key, basis in cat.hom_basis.items() for b in basis}
    if len(where) != sum(map(len, cat.hom_basis.values())):
        return None

    def element(vec, x, y):
        """The basis element that `vec` is in hom(x, y), else None."""
        if len(vec) != 1:
            return None
        ((k, c),) = vec.items()
        return k if c == 1 and where.get(k) == (x, y) else None

    compose = {}
    for (x, y, z), table in cat.sc.items():
        for (i, j), vec in table.items():
            vec = ring.reduce(vec)
            if not vec:
                continue
            k = element(vec, x, z)
            if k is None or where.get(i) != (x, y) or where.get(j) != (y, z):
                return None
            compose[(j, i)] = k
    units = {x: element(ring.reduce(vec), x, x)
             for x, vec in cat.units.items()}
    if None in units.values():
        return None
    return FinCategory(cat.objects, cat.hom_basis, compose, units)


def algebra_from_table(ring, basis, table, unit_vec) -> LinearCategory:
    """One-object linear category from multiplication structure constants;
    table[(i, j)] expands i·j (i first)."""
    return LinearCategory(ring, ("*",), {("*", "*"): basis},
                          {("*", "*", "*"): table}, {"*": unit_vec})


def ground_ring_algebra(ring) -> LinearCategory:
    return monoid_algebra(ring, ("1",), {("1", "1"): "1"}, "1")


def matrix_algebra(ring, n: int) -> LinearCategory:
    """n x n matrices with the elementary-matrix basis E_{ab}."""
    basis = [f"E{a}{b}" for a in range(n) for b in range(n)]
    table = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    prod = {f"E{a}{d}": 1} if b == c else {}
                    table[(f"E{a}{b}", f"E{c}{d}")] = prod
    unit = {f"E{a}{a}": 1 for a in range(n)}
    return algebra_from_table(ring, basis, table, unit)


def monoid_algebra(ring, elements, mult, unit) -> LinearCategory:
    """The monoid algebra: basis the elements, product from the table."""
    return linearize(monoid_category(elements, mult, unit), ring)


def group_algebra(ring, elements, mult, unit) -> LinearCategory:
    return monoid_algebra(ring, elements, mult, unit)


def truncated_polynomial_algebra(ring, n: int) -> LinearCategory:
    """k[x]/(x^n), basis 1, x, ..., x^{n-1}."""
    basis = [f"x{k}" for k in range(n)]
    table = {}
    for a in range(n):
        for b in range(n):
            table[(f"x{a}", f"x{b}")] = {f"x{a+b}": 1} if a + b < n else {}
    return algebra_from_table(ring, basis, table, {"x0": 1})


def commutator_cokernel_invariants(alg: LinearCategory):
    """Oracle for degree-0 Hochschild homology: invariants of A/[A, A],
    the cokernel of a ⊗ b  ->  ab - ba."""
    obj = alg.objects[0]
    basis = alg.hom(obj, obj)
    idx = {b: i for i, b in enumerate(basis)}
    cols = []
    for a in basis:
        for b in basis:
            col = {}
            for k, c in alg.compose_basis(obj, obj, obj, a, b).items():
                col[idx[k]] = col.get(idx[k], 0) + c
            for k, c in alg.compose_basis(obj, obj, obj, b, a).items():
                col[idx[k]] = col.get(idx[k], 0) - c
            cols.append(alg.ring.reduce(col))
    mat = SparseMat.from_columns(len(basis), cols)
    return cokernel_invariants(mat, alg.ring)


def separable_by_trace_form(cat: LinearCategory):
    """Whether A = (sum of all hom(x, y)) is separable, as far as its trace
    form decides: True, False, or None where it cannot.

    The trace form is T(a, b) = Tr(x ↦ x·ab), products of non-composable
    basis elements being 0.  With t_k = Tr(R_k), R_k the right
    multiplication by the basis element a_k, T(a, b) = sum_k (ab)_k·t_k: d
    traces, then one product per composable basis pair, then one d x d
    rank.  For r in rad A every rb is nilpotent, so T(r, b) = 0: a
    nondegenerate T means rad A = 0, so A is semisimple, and over a perfect
    field (Q, F_p) separable.  Over Q a semisimple A has a nondegenerate T
    (Dickson's criterion in characteristic 0), so a degenerate T means A is
    not separable.  Over F_p a degenerate T proves nothing (M_p(F_p) is
    separable and its T is 0), and over Z T is not read at all: Z[G] has a
    nondegenerate T but is not separable over Z.  `is_separable` decides
    every case, and is this function's oracle.
    """
    ring = cat.ring
    if not ring.is_field:
        return None
    basis = [(x, y, b) for (x, y), bs in cat.hom_basis.items() for b in bs]
    idx = {a: i for i, a in enumerate(basis)}
    traces = {}  # (y, k) -> t_k; only an endomorphism a_k has t_k != 0
    for (x, y), bs in cat.hom_basis.items():
        for k in cat.hom(y, y):
            traces[(y, k)] = traces.get((y, k), 0) + sum(
                cat.compose_basis(x, y, y, i, k).get(i, 0) for i in bs)
    cols = []
    for y, x, j in basis:  # T(a_i, a_j) != 0 needs a_i a_j in hom(x, x)
        cols.append(ring.reduce({idx[(x, y, i)]: sum(
            c * traces[(x, k)] for k, c
            in cat.compose_basis(x, y, x, i, j).items())
            for i in cat.hom(x, y)}))
    if SparseMat.from_columns(len(basis), cols).rank(ring) == len(basis):
        return True
    return False if ring == QQ else None


def is_separable(cat: LinearCategory) -> bool:
    """Whether A = (sum of all hom(x, y)) has a separability idempotent.

    The idempotent is e = sum c_ij a_i ⊗ a_j over basis pairs with
    mu(e) = 1 and a·e = e·a for every basis element a, where a·(u ⊗ w) =
    au ⊗ w and (u ⊗ w)·a = u ⊗ wa; products of non-composable basis
    elements are 0.  These conditions are a linear system M c = v, solved
    exactly: v lies in the image when coker M and coker [M | v] have the
    same invariants, since the natural map between them is onto and an onto
    map between isomorphic finitely generated modules over a field or Z is
    an isomorphism (over a field, equal cokernels mean equal ranks).  A
    separable A is projective over A ⊗ A^op, so HH_n(A) = 0 for n > 0
    (Weibel, *An Introduction to Homological Algebra*, §9.2).

    The system has d + d^3 rows: 0.55 s on Q[S_4], out of reach on Q[S_5].
    So callers ask `separable_by_trace_form` first, and solve only where the
    trace form cannot decide: over Z, and over F_p when T is degenerate.
    Over the fields this solve is the trace form's oracle.
    """
    ring = cat.ring
    basis = [(x, y, b) for (x, y), bs in cat.hom_basis.items() for b in bs]
    idx = {a: i for i, a in enumerate(basis)}
    d = len(basis)
    prod = [[{} for _ in range(d)] for _ in range(d)]
    for i, (x, y, bi) in enumerate(basis):
        for j, (y2, z, bj) in enumerate(basis):
            if y == y2:
                prod[i][j] = {idx[(x, z, k)]: c for k, c
                              in cat.compose_basis(x, y, z, bi, bj).items()}
    # mu(e) = 1 sits in rows 0..d-1, and a_s·e = e·a_s at coordinate (k, l)
    # of A ⊗ A in row d + (s·d + k)·d + l
    cols = []
    for i in range(d):
        for j in range(d):
            terms = list(prod[i][j].items())
            for s in range(d):
                terms += [(d + (s * d + k) * d + j, c)
                          for k, c in prod[s][i].items()]
                terms += [(d + (s * d + i) * d + k, -c)
                          for k, c in prod[j][s].items()]
            col = {}
            for r, c in terms:
                col[r] = col.get(r, 0) + c
            cols.append(ring.reduce(col))
    one = {}
    for x, vec in cat.units.items():
        for b, c in vec.items():
            one[idx[(x, x, b)]] = c
    nrows = d + d ** 3
    mat = SparseMat.from_columns(nrows, cols)
    extended = SparseMat.from_columns(nrows, cols + [one])
    return cokernel_invariants(mat, ring) == cokernel_invariants(extended, ring)


# -- the nerve ---------------------------------------------------------------------

def nerve(cat: FinCategory, depth: int) -> SimplicialFinSet:
    """The nerve of a finite category, truncated at the given depth.

    Level n is the set of composable n-strings (f_1, ..., f_n); level 0 is
    the object set.  Faces compose (d_0 drops at the source end, so the
    1-level structure maps are s = d_1, t = d_0); degeneracies insert units.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    levels = [tuple((x,) for x in cat.objects)]
    strings = [()]
    for n in range(1, depth + 1):
        strings = sorted(s + (m,) for s in strings for m in cat.morphisms()
                         if n == 1 or cat.src(m) == cat.tgt(s[-1]))
        levels.append(strings)

    def face(n, i, s):
        if n == 1:
            return (cat.tgt(s[0]),) if i == 0 else (cat.src(s[0]),)
        if i == 0:
            return s[1:]
        if i == n:
            return s[:-1]
        return s[:i - 1] + (cat.compose(s[i], s[i - 1]),) + s[i + 1:]

    def degeneracy(n, i, s):
        if n == 0:
            return (cat.unit(s[0]),)
        anchor = cat.src(s[0]) if i == 0 else cat.tgt(s[i - 1])
        return s[:i] + (cat.unit(anchor),) + s[i:]

    return SimplicialFinSet(levels, face, degeneracy)
