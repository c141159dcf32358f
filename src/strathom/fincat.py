"""Finite categories, set-valued diagrams, and their exact (co)limits.

Morphism names are globally unique strings; ``compose[(g, f)]`` holds the
composite g∘f (f applied first).  Composition tables may be partial: a
missing composite is a validation finding, not an exception, which lets the
same machinery carry length-bounded free constructions.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass

_JSON_NAMES = {str: "a string", int: "an integer", list: "a list",
               dict: "an object with string keys"}


def check_json(value, shape, field):
    """`value`, after checking its JSON shape: a type or tuple of types
    (never matched by a JSON boolean), `[s]` for a list of values of shape
    s, or `{str: s}` for an object with string keys and values of shape s.
    Raises ValueError naming the field that does not fit."""
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    kinds = kind if type(kind) is tuple else (kind,)
    if (not isinstance(value, kinds) or type(value) is bool
            or kind is dict and not all(isinstance(k, str) for k in value)):
        raise ValueError(f"{field} must be "
                         f"{' or '.join(_JSON_NAMES[k] for k in kinds)}, "
                         f"found {type(value).__name__}")
    if kind in (list, dict):
        inner = next(iter(shape.values())) if kind is dict else shape[0]
        nested = isinstance(inner, (list, dict))
        for key, item in value.items() if kind is dict else enumerate(value):
            if nested or not isinstance(item, inner) or type(item) is bool:
                check_json(item, inner, f"{field}[{key!r}]")
    return value


def check_key_names(kind, names, separators):
    """Raise ValueError at the first of `names` that holds one of the
    `separators` of the JSON keys it is written into: it would read back
    as another category."""
    for name in names:
        for sep in separators:
            if sep in name:
                raise ValueError(f"{kind} {name!r} holds {sep!r}, which "
                                 "separates the names in a JSON key")


def repeated_names(names):
    """The names listed more than once, each once, in order of appearance."""
    return [x for x, count in Counter(names).items() if count > 1]


class UnionFind:
    """Disjoint sets over arbitrary hashable keys (path compression + size)."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}
        self.size = {x: 1 for x in self.parent}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return rx
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        return rx

    def classes(self):
        """Blocks as sorted tuples, each led by its least member; blocks
        sorted by leader.  Deterministic given the key order."""
        blocks = {}
        for x in self.parent:
            blocks.setdefault(self.find(x), []).append(x)
        out = []
        for members in blocks.values():
            members.sort()
            out.append(tuple(members))
        out.sort(key=lambda block: block[0])
        return out


class FinCategory:
    """A finite category presented by hom sets and a composition table."""

    def __init__(self, objects, homs, compose, units):
        self.objects = tuple(objects)
        self.homs = {key: tuple(ms) for key, ms in homs.items()}
        self.compose_table = dict(compose)
        self.units = dict(units)
        self._src = {}
        self._tgt = {}
        for (s, t), ms in self.homs.items():
            for m in ms:
                self._src[m] = s
                self._tgt[m] = t

    # -- basic queries ----------------------------------------------------

    def morphisms(self):
        for ms in self.homs.values():
            yield from ms

    def hom(self, x, y):
        return self.homs.get((x, y), ())

    def src(self, m):
        return self._src[m]

    def tgt(self, m):
        return self._tgt[m]

    def unit(self, x):
        return self.units[x]

    def compose(self, g, f):
        """g∘f, or None when the table has no entry (length bounds etc.)."""
        if self._tgt[f] != self._src[g]:
            raise ValueError(f"cannot compose {g!r} after {f!r}")
        return self.compose_table.get((g, f))

    def is_identity(self, m):
        return self.units.get(self._src[m]) == m and self._src[m] == self._tgt[m]

    def inverse(self, m):
        """The inverse of m; None if m is no isomorphism or lacks units."""
        ux, uy = self.units.get(self._src[m]), self.units.get(self._tgt[m])
        for w in self.hom(self._tgt[m], self._src[m]):
            if (None not in (ux, uy) and self.compose_table.get((w, m)) == ux
                    and self.compose_table.get((m, w)) == uy):
                return w
        return None

    def power(self, m, r):
        """r-fold composite of an endomorphism, in O(log r) lookups; None if
        the table runs out."""
        if self._src[m] != self._tgt[m]:
            raise ValueError(f"{m!r} is not an endomorphism")
        if r < 1:
            raise ValueError("power requires r >= 1")
        # m^(2k) = m^k∘m^k and m^(2k+1) = m∘m^(2k), over r's binary digits
        out = m
        for digit in bin(r)[3:]:
            out = self.compose_table.get((out, out))
            if out is not None and digit == "1":
                out = self.compose_table.get((m, out))
            if out is None:
                return None
        return out

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        check_key_names("object", self.objects, ("->",))
        check_key_names("morphism", self.morphisms(), ("*",))
        return {
            "objects": list(self.objects),
            "homs": {f"{s}->{t}": list(ms) for (s, t), ms in sorted(self.homs.items())},
            "compose": {f"{g}*{f}": h for (g, f), h in sorted(self.compose_table.items())},
            "units": dict(sorted(self.units.items())),
        }

    @classmethod
    def from_json_dict(cls, data):
        homs = {}
        for key, ms in check_json(data.get("homs", {}), {str: [str]},
                                  "homs").items():
            s, _, t = key.partition("->")
            if not _:
                raise ValueError(f"bad hom key {key!r}")
            homs[(s, t)] = tuple(ms)
        compose = {}
        for key, h in check_json(data.get("compose", {}), {str: str},
                                 "compose").items():
            g, _, f = key.partition("*")
            if not _:
                raise ValueError(f"bad compose key {key!r}")
            compose[(g, f)] = h
        return cls(check_json(data["objects"], [str], "objects"), homs, compose,
                   check_json(data.get("units", {}), {str: str}, "units"))

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{sum(len(v) for v in self.homs.values())} morphisms)")


def validate_category(cat: FinCategory):
    """All violated axioms, as strings.  Empty report == valid category.

    Past the name, endpoint and unit checks, one table serves the rest:
    `row[f]`, the right translation by f, lists h∘f for h out of tgt f in
    `morphisms()` order, each by its place among the morphisms out of src
    f.  Building it is the totality check; each unit law is one entry.
    Associativity says that row[g∘f] is row[g] read through row[f], i.e.
    (h∘g)∘f = h∘(g∘f) for every h.  By Light's test (Clifford-Preston, *The
    Algebraic Theory of Semigroups* I, §1.2) it is compared only for f in
    the greedy generating set G of `generating_set`: every morphism is
    reached from the units by composing with generators on the right,
    f = f'∘g' with g' in G and f' reached earlier.  By induction on the
    order in which f was reached: a unit f is covered by the unit laws,
    which are checked first; and if f = f'∘g' then

        (h∘g)∘f = ((h∘g)∘f')∘g' = (h∘(g∘f'))∘g' = h∘((g∘f')∘g') = h∘(g∘f),

    using the checked law at g' three times and the induction hypothesis at
    f' once.  So on a table that passes the unit laws the report is empty
    exactly when the table is associative; every triple it names fails.
    """
    report = [f"duplicate object {x}" for x in repeated_names(cat.objects)]
    repeated = [f"duplicate morphism {m}" for m in repeated_names(cat.morphisms())]
    if repeated:
        # `_src`/`_tgt` keep one hom per name, so the table checks below
        # would only report consequences of the repetition
        return report + repeated
    report += [f"hom ({s},{t}) references unknown object" for s, t in cat.homs
               if s not in cat.objects or t not in cat.objects]
    report += [f"unit for {x} references unknown object" for x in cat.units
               if x not in cat.objects]
    for x in cat.objects:
        u = cat.units.get(x)
        if u is None:
            report.append(f"missing unit for {x}")
        elif u not in cat._src or cat._src[u] != x or cat._tgt[u] != x:
            report.append(f"unit {u} of {x} is not an endomorphism of {x}")
    for (g, f), h in cat.compose_table.items():
        if f not in cat._src or g not in cat._src or h not in cat._src:
            report.append(f"composite entry ({g},{f})->{h} has dangling identifier")
            continue
        if cat._tgt[f] != cat._src[g]:
            report.append(f"entry ({g},{f}) is not composable")
        elif cat._src[h] != cat._src[f] or cat._tgt[h] != cat._tgt[g]:
            report.append(f"composite {h} of ({g},{f}) has wrong endpoints")
    table, src, tgt = cat.compose_table, cat._src, cat._tgt
    out_of, place = {}, {}
    for m in cat.morphisms():
        line = out_of.setdefault(src[m], [])
        place[m] = len(line)
        line.append(m)
    # the rows, over the composable pairs only; an absent entry is None
    row = {}
    for f in cat.morphisms():
        after = out_of.get(tgt[f], ())
        row[f] = [place.get(table.get((h, f))) for h in after]
        if None in row[f]:
            report += [f"missing composite ({h},{f})" for h in after
                       if (h, f) not in table]
    if report:
        return report
    # unit laws and associativity only make sense on a total table
    for f in cat.morphisms():
        if row[f][place[cat.units[tgt[f]]]] != place[f]:
            report.append(f"left unit law fails at {f}")
        if row[cat.units[src[f]]][place[f]] != place[f]:
            report.append(f"right unit law fails at {f}")
    for f in generating_set(cat):
        row_f, from_f = row[f], out_of[src[f]]
        for g, gf in zip(out_of[tgt[f]], row_f):
            # (h∘g)∘f and h∘(g∘f), for h out of tgt g
            lhs, rhs = list(map(row_f.__getitem__, row[g])), row[from_f[gf]]
            if lhs != rhs:
                report += [f"associativity fails at ({h},{g},{f})" for h, a, b
                           in zip(out_of[tgt[g]], lhs, rhs) if a != b]
    return report


def generating_set(cat: FinCategory):
    """A generating set G of `cat`'s composition, chosen greedily: the
    reached set starts at the units and is closed under f' -> f'∘g, g in G;
    then the first morphism in `morphisms()` order not yet reached is the
    next generator.  So every morphism is a unit, or f'∘g' with g' in G and
    f' reached before it (a generator g' is unit∘g').  Returns G in the
    order taken.

    The closure is incremental: a new generator meets the morphisms reached
    before it, and a newly reached morphism meets the generators so far, so
    each pair is composed once.  A composite missing from the table (a
    length-bounded free monoid) reaches nothing.
    """
    table, src, tgt = cat.compose_table, cat._src, cat._tgt
    out_of = {}
    for m in cat.morphisms():
        out_of.setdefault(src[m], []).append(m)
    reached = {cat.units[x] for x in cat.objects if x in cat.units}
    gens, gens_into = [], {}
    for m in cat.morphisms():
        if m in reached:
            continue
        gens.append(m)
        gens_into.setdefault(tgt[m], []).append(m)
        queue = [table.get((f, m)) for f in out_of.get(tgt[m], ())
                 if f in reached]
        queue.append(m)
        while queue:
            f = queue.pop()
            if f is None or f in reached:
                continue
            reached.add(f)
            queue += [table.get((f, g)) for g in gens_into.get(src[f], ())]
    return gens


# -- small builders --------------------------------------------------------

def discrete_category(objects):
    objects = tuple(objects)
    homs = {(x, x): (f"id_{x}",) for x in objects}
    units = {x: f"id_{x}" for x in objects}
    compose = {(f"id_{x}", f"id_{x}"): f"id_{x}" for x in objects}
    return FinCategory(objects, homs, compose, units)


def monoid_category(elements, mult, unit):
    """One-object category on a finite monoid; mult[(a, b)] = a·b.

    Composition is diagrammatic: compose(g, f) = g∘f := mult[(f, g)] reads
    "f then g".  For commutative monoids the distinction is invisible.
    """
    compose = {(g, f): h for (f, g), h in mult.items()}
    return FinCategory(("*",), {("*", "*"): tuple(elements)}, compose,
                       {"*": unit})


def walking_idempotent():
    """One object, End = {id, phi}, phi∘phi = phi."""
    mult = {("id", "id"): "id", ("id", "phi"): "phi",
            ("phi", "id"): "phi", ("phi", "phi"): "phi"}
    return monoid_category(("id", "phi"), mult, "id")


def poset_category(objects, leq):
    """Finite poset as a category: one morphism x->y whenever leq(x, y)."""
    objects = tuple(objects)
    homs = {}
    for x in objects:
        for y in objects:
            if leq(x, y):
                homs[(x, y)] = (f"{x}<={y}",)
    compose = {}
    for x in objects:
        for y in objects:
            for z in objects:
                if leq(x, y) and leq(y, z):
                    compose[(f"{y}<={z}", f"{x}<={y}")] = f"{x}<={z}"
    units = {x: f"{x}<={x}" for x in objects}
    return FinCategory(objects, homs, compose, units)


def parallel_pair_category():
    """Two objects, two parallel arrows a ⇉ b (plus identities)."""
    homs = {("a", "a"): ("id_a",), ("b", "b"): ("id_b",), ("a", "b"): ("d0", "d1")}
    compose = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
               ("d0", "id_a"): "d0", ("d1", "id_a"): "d1",
               ("id_b", "d0"): "d0", ("id_b", "d1"): "d1"}
    return FinCategory(("a", "b"), homs, compose, {"a": "id_a", "b": "id_b"})


# -- set-valued diagrams and their (co)limits -------------------------------

class SetDiagram:
    """A functor shape -> FinSet: finite sets and functions between them."""

    def __init__(self, shape: FinCategory, on_objects, on_morphisms):
        self.shape = shape
        self.on_objects = {x: tuple(v) for x, v in on_objects.items()}
        self.on_morphisms = {m: dict(f) for m, f in on_morphisms.items()}

    def value(self, x):
        return self.on_objects[x]

    def map(self, m):
        return self.on_morphisms[m]

    def validate(self):
        report = []
        for x in self.shape.objects:
            if x not in self.on_objects:
                report.append(f"no value set at object {x}")
        for m in self.shape.morphisms():
            fm = self.on_morphisms.get(m)
            if fm is None:
                report.append(f"no function at morphism {m}")
                continue
            s, t = self.shape.src(m), self.shape.tgt(m)
            if set(fm) != set(self.on_objects.get(s, ())):
                report.append(f"function at {m} has wrong domain")
            if not set(fm.values()) <= set(self.on_objects.get(t, ())):
                report.append(f"function at {m} has wrong codomain")
        if report:
            return report
        for x in self.shape.objects:
            u = self.shape.unit(x)
            if any(self.on_morphisms[u][a] != a for a in self.on_objects[x]):
                report.append(f"unit at {x} is not the identity function")
        for (g, f), gf in self.shape.compose_table.items():
            for a in self.on_objects[self.shape.src(f)]:
                if self.on_morphisms[gf][a] != self.on_morphisms[g][self.on_morphisms[f][a]]:
                    report.append(f"functoriality fails at ({g},{f}) on {a!r}")
                    break
        return report


def colimit_of_sets(diagram: SetDiagram):
    """Colimit as a quotient of the disjoint union, by union-find saturation.

    Returns (classes, cocone) where classes is a tuple of canonical
    representatives -- each a (object, element) pair, the least tag of its
    block -- and cocone[x][a] is the class of element a of the set at x.
    """
    uf = UnionFind((x, a) for x in diagram.shape.objects
                   for a in diagram.value(x))
    for m in diagram.shape.morphisms():
        s, t = diagram.shape.src(m), diagram.shape.tgt(m)
        fm = diagram.map(m)
        for a in diagram.value(s):
            uf.union((s, a), (t, fm[a]))
    blocks = uf.classes()
    rep = {}
    for block in blocks:
        for tag in block:
            rep[tag] = block[0]
    classes = tuple(block[0] for block in blocks)
    cocone = {x: {a: rep[(x, a)] for a in diagram.value(x)}
              for x in diagram.shape.objects}
    return classes, cocone


def limit_of_sets(diagram: SetDiagram):
    """Limit as the set of compatible families.

    Returns (elements, cone): elements are tuples aligned with the sorted
    object list; cone[x] maps each element to its component at x.
    """
    objs = sorted(diagram.shape.objects)
    families = []
    for combo in itertools.product(*(diagram.value(x) for x in objs)):
        assignment = dict(zip(objs, combo))
        ok = True
        for m in diagram.shape.morphisms():
            s, t = diagram.shape.src(m), diagram.shape.tgt(m)
            if diagram.map(m)[assignment[s]] != assignment[t]:
                ok = False
                break
        if ok:
            families.append(combo)
    elements = tuple(sorted(families, key=_sort_key))
    cone = {x: {fam: fam[i] for fam in elements} for i, x in enumerate(objs)}
    return elements, cone


def _sort_key(value):
    """Total order on heterogeneous nested data, for canonical outputs."""
    if isinstance(value, tuple):
        return (1, tuple(_sort_key(v) for v in value))
    return (0, (type(value).__name__, repr(value)))


def brute_force_colimit_size(diagram: SetDiagram) -> int:
    """Oracle for `colimit_of_sets`: saturate the generated relation by
    fixpoint iteration over explicit pair sets (no union-find)."""
    tags = [(x, a) for x in diagram.shape.objects for a in diagram.value(x)]
    related = {t: {t} for t in tags}
    pairs = []
    for m in diagram.shape.morphisms():
        s, t = diagram.shape.src(m), diagram.shape.tgt(m)
        for a in diagram.value(s):
            pairs.append(((s, a), (t, diagram.map(m)[a])))
    changed = True
    while changed:
        changed = False
        for u, v in pairs:
            merged = related[u] | related[v]
            for w in merged:
                if related[w] != merged:
                    related[w] = merged
                    changed = True
    return len({frozenset(v) for v in related.values()})


# -- factorization systems --------------------------------------------------

class NoFactorization(Exception):
    pass


@dataclass(frozen=True)
class FactorizationSystem:
    """A pair of morphism classes [left; right] on a finite category."""

    category: FinCategory
    left: frozenset
    right: frozenset

    def validate(self):
        report = []
        cat = self.category
        isos = {m for m in cat.morphisms() if cat.inverse(m) is not None}
        if not isos <= self.left:
            report.append("left class is missing isomorphisms")
        if not isos <= self.right:
            report.append("right class is missing isomorphisms")
        for (g, f), gf in cat.compose_table.items():
            for cls_name, cls in (("left", self.left), ("right", self.right)):
                if f in cls and g in cls and gf not in cls:
                    report.append(f"{cls_name} class not closed under ({g},{f})")
        for f in cat.morphisms():
            if not factorizations(self, f):
                report.append(f"no [left;right] factorization of {f}")
        return report


def factorizations(fs: FactorizationSystem, f):
    """All pairs (l, r) with r∘l = f, l in the left class, r in the right."""
    cat = fs.category
    out = []
    for mid in cat.objects:
        for l in cat.hom(cat.src(f), mid):
            if l not in fs.left:
                continue
            for r in cat.hom(mid, cat.tgt(f)):
                if r in fs.right and cat.compose(r, l) == f:
                    out.append((l, r))
    return out


def factorize_morphism(fs: FactorizationSystem, f):
    """The canonical (first in enumeration order) [left; right] factorization."""
    found = factorizations(fs, f)
    if not found:
        raise NoFactorization(f"{f!r} has no [left;right] factorization")
    return found[0]


# -- truncated simplicial finite sets ---------------------------------------

class SimplicialFinSet:
    """A truncated simplicial finite set: levels 0..depth, with the face
    and degeneracy maps tabulated from their formulas, `face(n, i, x)` = d_i x
    for x in level n >= 1 and `degeneracy(n, i, x)` = s_i x for x in level
    n < depth."""

    def __init__(self, levels, face, degeneracy):
        self.levels = [tuple(lv) for lv in levels]
        self.faces = {(n, i): {x: face(n, i, x) for x in self.levels[n]}
                      for n in range(1, self.depth + 1) for i in range(n + 1)}
        self.degens = {(n, i): {x: degeneracy(n, i, x) for x in self.levels[n]}
                       for n in range(self.depth) for i in range(n + 1)}

    @property
    def depth(self):
        return len(self.levels) - 1

    def level(self, n):
        return self.levels[n]

    def source_map(self):
        """s = d_1 : X_1 -> X_0."""
        return self.faces[(1, 1)]

    def target_map(self):
        """t = d_0 : X_1 -> X_0."""
        return self.faces[(1, 0)]

    def validate_identities(self):
        """Simplicial identities on all provided levels."""
        report = []
        for n in range(2, self.depth + 1):
            for j in range(n + 1):
                for i in range(j):
                    lhs = {x: self.faces[(n - 1, i)][self.faces[(n, j)][x]]
                           for x in self.levels[n]}
                    rhs = {x: self.faces[(n - 1, j - 1)][self.faces[(n, i)][x]]
                           for x in self.levels[n]}
                    if lhs != rhs:
                        report.append(f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}")
        for n in range(0, self.depth):
            for i in range(n + 1):
                if any(self.faces[(n + 1, i)][self.degens[(n, i)][x]] != x
                       for x in self.levels[n]):
                    report.append(f"d_{i} s_{i} != id at level {n}")
                if any(self.faces[(n + 1, i + 1)][self.degens[(n, i)][x]] != x
                       for x in self.levels[n]):
                    report.append(f"d_{i+1} s_{i} != id at level {n}")
        return report

    def is_segal(self, n) -> bool:
        """Does level n map bijectively onto the n-fold fiber product of
        level 1 over level 0 along its spine?"""
        if n <= 1:
            return True
        s, t = self.source_map(), self.target_map()
        spines = {}
        for x in self.levels[n]:
            spines[x] = self._spine(n, x)
        strings = set()
        for combo in itertools.product(self.levels[1], repeat=n):
            if all(t[combo[k]] == s[combo[k + 1]] for k in range(n - 1)):
                strings.add(combo)
        image = set(spines.values())
        return len(image) == len(spines) and image == strings

    def _spine(self, n, x):
        edges = []
        for k in range(1, n + 1):
            y = x
            for m in range(n, k, -1):
                y = self.faces[(m, m)][y]   # delete top vertex
            for m in range(k, 1, -1):
                y = self.faces[(m, 0)][y]   # delete bottom vertex
            edges.append(y)
        return tuple(edges)


def codiscrete(vertex_set, depth: int) -> SimplicialFinSet:
    """The codiscrete simplicial set on a finite set: level n is V^(n+1),
    faces delete a coordinate, degeneracies repeat one."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    vs = tuple(vertex_set)
    return SimplicialFinSet(
        (itertools.product(vs, repeat=n + 1) for n in range(depth + 1)),
        lambda n, i, x: x[:i] + x[i + 1:],
        lambda n, i, x: x[:i + 1] + (x[i],) + x[i + 1:])


# -- free constructions ------------------------------------------------------

def _free_category(objects, steps, bound, name) -> FinCategory:
    """The free category on a finite graph cut off at path length `bound`
    (Mac Lane, *CWM* §II.7).  `steps[x]` lists the (label, target) edges
    out of x; paths run by length, start object, then label order, and the
    one from x spelling `word` is `name(x, word)`.  Only in-bound pairs are
    composed: u of length lu with the v of length at most bound - lu."""
    # levels[n][x]: the words and ends of the length-n paths from x
    levels = [{x: ([""], [x]) for x in objects}]
    for _ in range(bound):
        levels.append({x: ([word + label for word, y in zip(words, ends)
                            for label, _ in steps[y]],
                           [z for y in ends for _, z in steps[y]])
                       for x, (words, ends) in levels[-1].items()})
    names = {x: {} for x in objects}       # word -> name
    shorter = {x: [[]] for x in objects}   # shorter[x][n]: words of length < n
    homs = defaultdict(list)
    for level in levels:
        for x, (words, ends) in level.items():
            level_names = [name(x, word) for word in words]
            names[x].update(zip(words, level_names))
            shorter[x].append(shorter[x][-1] + words)
            for y in dict.fromkeys(ends):   # in order of first appearance
                homs[x, y] += [n for n, z in zip(level_names, ends) if z == y]
    compose = {}
    for lu, level in enumerate(levels[:bound + 1]):
        tails = {y: shorter[y][bound - lu + 1] for y in objects}
        for x, (words, ends) in level.items():
            nx = names[x]
            for u, y in zip(words, ends):
                nu, ny = nx[u], names[y]
                for v in tails[y]:   # "u then v" is the composite v∘u
                    compose[(ny[v], nu)] = nx[u + v]
    return FinCategory(objects, homs, compose,
                       {x: names[x][""] for x in objects})


def free_act(vertex_set, m_max: int) -> FinCategory:
    """The free length-bounded category on a set: a morphism v0 -> v1 is a
    sequence (w_0=v0, ..., w_m=v1), 0 <= m <= m_max, named "w_0>...>w_m"
    and composed by concatenation; composites past the bound are absent."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    vs = tuple(vertex_set)
    if len(set(vs)) != len(vs):
        raise ValueError(f"vertex names repeat in {vs!r}")
    if any(">" in v for v in vs):
        raise ValueError(f"a vertex name contains '>' in {vs!r}")
    return _free_category(vs, {v: [(">" + w, w) for w in vs] for v in vs},
                          m_max, lambda v, word: v + word)


class Functor:
    """A functor between finite categories, as explicit object/morphism maps."""

    def __init__(self, source: FinCategory, target: FinCategory,
                 on_objects, on_morphisms):
        self.source = source
        self.target = target
        self.on_objects = dict(on_objects)
        self.on_morphisms = dict(on_morphisms)

    def validate(self):
        src, tgt = self.source, self.target
        report = [f"object {x} has no image" for x in src.objects
                  if self.on_objects.get(x) not in tgt.objects]
        if report:   # the endpoint checks below read the object images
            return report
        for m in src.morphisms():
            fm = self.on_morphisms.get(m)
            if fm not in tgt._src:
                report.append(f"morphism {m} has no image")
            elif (tgt.src(fm) != self.on_objects[src.src(m)]
                    or tgt.tgt(fm) != self.on_objects[src.tgt(m)]):
                report.append(f"image of {m} has wrong endpoints")
        if report:
            return report
        for x in src.objects:
            if self.on_morphisms[src.unit(x)] != tgt.unit(self.on_objects[x]):
                report.append(f"unit of {x} not preserved")
        for (g, f), gf in src.compose_table.items():
            if self.on_morphisms[gf] != tgt.compose(
                    self.on_morphisms[g], self.on_morphisms[f]):
                report.append(f"composition not preserved at ({g},{f})")
        return report


def free_cocart_second_factor(functor: Functor, fs: FactorizationSystem,
                              lifts=None):
    """Freely adjoin cocartesian lifts for right-class morphisms of the base.

    Given p : E -> B and a factorization system [left; right] on B, build the
    pullback E x_B Ar^right(B): objects are pairs (e, β) with β : p(e) -> b a
    right-class arrow; morphisms (e, β) -> (e', β') are pairs (φ : e -> e',
    v : b -> b') with β'∘p(φ) = v∘β.  The projection to B is ev_t.

    Returns (category, projection Functor, lift) where lift(obj, ψ) computes
    the distinguished cocartesian lift of ψ at obj: factor ψ∘β = β''∘u with u
    left-class, then lift u into E (via ``lifts[(e, u)]``; identities lift for
    free).
    """
    E, B = functor.source, functor.target
    if fs.category is not B:
        raise ValueError("factorization system must live on the functor's target")
    lifts = dict(lifts or {})

    objects = []
    for e in E.objects:
        pe = functor.on_objects[e]
        for b in B.objects:
            for beta in B.hom(pe, b):
                if beta in fs.right:
                    objects.append((e, beta))
    obj_name = {ob: f"({ob[0]},{ob[1]})" for ob in objects}

    homs = {}
    mor_data = {}
    for (e, beta) in objects:
        for (e2, beta2) in objects:
            ms = []
            for phi in E.hom(e, e2):
                pphi = functor.on_morphisms[phi]
                b, b2 = B.tgt(beta), B.tgt(beta2)
                for v in B.hom(b, b2):
                    if B.compose(beta2, pphi) == B.compose(v, beta):
                        name = f"({phi},{v})"
                        ms.append(name)
                        mor_data[name] = ((e, beta), (e2, beta2), phi, v)
            if ms:
                homs[(obj_name[(e, beta)], obj_name[(e2, beta2)])] = tuple(ms)

    compose = {}
    for n1, (s1, t1, phi1, v1) in mor_data.items():
        for n2, (s2, t2, phi2, v2) in mor_data.items():
            if t1 != s2:
                continue
            phi = E.compose(phi2, phi1)
            v = B.compose(v2, v1)
            if phi is not None and v is not None:
                compose[(n2, n1)] = f"({phi},{v})"
    units = {}
    for ob in objects:
        e, beta = ob
        units[obj_name[ob]] = f"({E.unit(e)},{B.unit(B.tgt(beta))})"
    cat = FinCategory(tuple(obj_name[ob] for ob in objects), homs, compose, units)

    proj = Functor(cat, B,
                   {obj_name[(e, beta)]: B.tgt(beta) for (e, beta) in objects},
                   {name: data[3] for name, data in mor_data.items()})

    def lift(ob, psi):
        e, beta = ob
        if B.src(psi) != B.tgt(beta):
            raise ValueError("lift domain mismatch")
        composite = B.compose(psi, beta)
        u, beta2 = factorize_morphism(fs, composite)
        if (e, u) in lifts:
            phi = lifts[(e, u)]
        elif u == B.unit(B.src(u)):
            phi = E.unit(e)
        else:
            raise NoFactorization(
                f"no lift datum for left-class morphism {u!r} at {e!r}")
        e2 = E.tgt(phi)
        if functor.on_objects[e2] != B.src(beta2):
            raise NoFactorization(f"lift of {u!r} at {e!r} lands off-fiber")
        return (obj_name[ob], obj_name[(e2, beta2)], f"({phi},{psi})",
                {"left": u, "right": beta2, "square_commutes":
                 B.compose(beta2, u) == B.compose(psi, beta)})

    return cat, proj, lift
