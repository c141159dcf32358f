"""Factorization homology engines.

Disk-stratified evaluation is the finite limit indexed by entering paths
(one level-1 coordinate per edge, one level-0 coordinate per vertex, matched
by source and target).  Over the circle the computation is the cyclic bar
construction: trace classes at pi_0 in the Set backend, Hochschild and
cyclic homology of the chain complex in the exact linear backend.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .exactla import SparseMat, ZZ, chain_homology
from .fincat import FinCategory, SimplicialFinSet, UnionFind
from .enrich import (LinearCategory, Module, is_separable, linearize,
                     separable_by_trace_form, tensor_all_sets)
from .manifold import GraphManifold


# -- the entering-paths limit --------------------------------------------------

def cart_facthom_disk(r: GraphManifold, y: SimplicialFinSet):
    """Cartesian factorization homology of a category object over a
    disk-stratified 1-manifold.

    The value is the limit over entering paths: an element assigns a
    1-simplex to each edge and a 0-simplex to each vertex, compatibly with
    the incidence maps s = d_1 and t = d_0.  Elements come back as
    (vertex labels, edge labels) aligned with the sorted cell lists.

    It reads only the levels of a simplicial set, never a hom set: the
    oracle for `enr_facthom_disk`'s Set backend on a nerve.
    """
    if not r.is_disk_stratified:
        raise ValueError("cart_facthom_disk requires a disk-stratified manifold")
    s, t = y.source_map(), y.target_map()
    verts = sorted(r.vertices)
    edges = sorted(r.edges, key=lambda e: e.id)
    out = []
    for vcombo in itertools.product(y.level(0), repeat=len(verts)):
        assign = dict(zip(verts, vcombo))
        pools = []
        for e in edges:
            pool = [m for m in y.level(1)
                    if s[m] == assign[e.src] and t[m] == assign[e.dst]]
            if not pool:
                pools = None
                break
            pools.append(pool)
        if pools is None:
            continue
        for ecombo in itertools.product(*pools):
            out.append((vcombo, ecombo))
    return tuple(sorted(out))


def enr_facthom_disk(r: GraphManifold, cat, groupoid_isos=()):
    """Enriched factorization homology over a disk-stratified manifold:
    the value at the terminal disk-refinement, i.e. the coproduct over vertex
    labelings of the tensor over edges of hom(label(src), label(dst)).

    Set backend (a FinCategory): returns the finite set of (labeling,
    edge-decoration) pairs, and is the oracle for `cart_facthom_disk` on the
    nerve.  Linear backend: returns the based Module.

    With `groupoid_isos` -- designated invertible morphisms making the
    object set a genuine groupoid -- labelings related by transporting
    along an isomorphism are identified: a quotient in the Set backend,
    coinvariants (fields only) in the linear one.
    """
    if not r.is_disk_stratified:
        raise ValueError("enr_facthom_disk requires a disk-stratified manifold")
    if not isinstance(cat, (FinCategory, LinearCategory)):
        raise TypeError(f"unsupported enrichment {cat!r}")
    verts = sorted(r.vertices)
    edges = sorted(r.edges, key=lambda e: e.id)
    out = []
    for lam in itertools.product(cat.objects, repeat=len(verts)):
        assign = dict(zip(verts, lam))
        out += ((lam, decor) for decor in tensor_all_sets(
            [cat.hom(assign[e.src], assign[e.dst]) for e in edges]))
    out.sort()
    if not groupoid_isos:
        return tuple(out) if isinstance(cat, FinCategory) else Module(cat.ring, out)
    if isinstance(cat, FinCategory):
        try:
            isos = [(cat.src(a), cat.tgt(a), a) for a in groupoid_isos]
        except KeyError as exc:
            raise ValueError(f"designated groupoid morphism {exc.args[0]!r} "
                             "is not a morphism") from None
        uf = UnionFind(out)
        for element, (moved,) in _transports(linearize(cat, ZZ), verts, edges,
                                             out, isos):
            uf.union(element, moved)
        return tuple(block[0] for block in uf.classes())
    ring = cat.ring
    if not ring.is_field:
        raise NotImplementedError(
            "linear groupoid coinvariants are supported over fields only")
    # the coinvariants are the cokernel of the columns T_alpha - 1
    index = {element: i for i, element in enumerate(out)}
    cols = []
    for element, image in _transports(cat, verts, edges, out, groupoid_isos):
        col = {index[element]: -1}
        for label, c in image.items():
            col[index[label]] = col.get(index[label], 0) + c
        cols.append(ring.reduce(col))
    dim = len(out) - SparseMat.from_columns(len(out), cols).rank(ring)
    return Module(ring, tuple(f"coinv{i}" for i in range(dim)))


def _transports(cat, verts, edges, elements, isos):
    """Each element with its transport along each designated isomorphism
    that starts at one of its vertex labels, as (element, image vector).

    The labelling changes at that vertex; an edge leaving it is precomposed
    with the inverse and an edge entering it postcomposed with the
    isomorphism.  The isomorphisms are triples (x, y, b), b a basis element
    of hom(x, y), inverted by a search of hom(y, x)'s basis.  A Set category
    comes as `linearize(cat, ZZ)`, where every image has one term.
    """
    for x, y, b in isos:
        for obj in (x, y):
            if obj not in cat.objects:
                raise ValueError(f"designated groupoid morphism {b!r} names "
                                 f"an unknown object {obj!r}")
        if b not in cat.hom(x, y):
            raise ValueError(f"designated groupoid morphism {b!r} is not in "
                             f"hom({x!r}, {y!r})")
    compose = cat.compose_vectors
    resolved = [(x, y, b, next((
        w for w in cat.hom(y, x)
        if cat.compose_basis(x, y, x, b, w) == cat.unit_vector(x)
        and cat.compose_basis(y, x, y, w, b) == cat.unit_vector(y)), None))
        for x, y, b in isos]
    for _, _, b, binv in resolved:
        if binv is None:
            raise ValueError(
                f"designated groupoid morphism {b!r} is not invertible")
    vindex = {v: i for i, v in enumerate(verts)}
    for element in elements:
        lam, decor = element
        for vi, v in enumerate(verts):
            for x, y, b, binv in resolved:
                if lam[vi] != x:
                    continue
                lam2 = lam[:vi] + (y,) + lam[vi + 1:]
                parts = []
                for e, g in zip(edges, decor):
                    vec = {g: 1}
                    if e.src == v:  # hom(x, t) -> hom(y, t)
                        vec = compose(y, x, lam[vindex[e.dst]], {binv: 1}, vec)
                    if e.dst == v:  # hom(s, x) -> hom(s, y)
                        vec = compose(lam2[vindex[e.src]], x, y, vec, {b: 1})
                    parts.append(vec)
                image = {}
                for combo in itertools.product(*(p.items() for p in parts)):
                    label = (lam2, tuple(g for g, _ in combo))
                    image[label] = image.get(label, 0) + math.prod(
                        c for _, c in combo)
                yield element, image


def _disk_count(r: GraphManifold, cat) -> int:
    """The size of `enr_facthom_disk(r, cat)` (no groupoid quotient) in
    either backend, without building it: the sum over vertex labellings of
    the product over edges of |hom(label(src), label(dst))|."""
    vindex = {v: i for i, v in enumerate(sorted(r.vertices))}
    ends = [(vindex[e.src], vindex[e.dst]) for e in r.edges]
    return sum(math.prod(len(cat.hom(lam[s], lam[t])) for s, t in ends)
               for lam in itertools.product(cat.objects, repeat=len(vindex)))


class SetProduct:
    """pi_0 of Set factorization homology over a manifold, kept as its
    factors: the value over each disk component of `disks`, held by its
    count, then the tuple `power` repeated `times` times.  Iterating builds
    the disk values (`enr_facthom_disk`) and yields the tuples in the order
    of `itertools.product(*values, *[power] * times)`; `cardinality` is
    computed from the factor sizes, so counting enumerates nothing (no
    `len`: it cannot exceed `sys.maxsize`)."""

    __slots__ = ("category", "disks", "counts", "power", "times")

    def __init__(self, category, disks, power, times):
        self.category, self.disks = category, tuple(disks)
        self.counts = [_disk_count(r, category) for r in self.disks]
        self.power = power
        self.times = times

    @property
    def cardinality(self):
        return math.prod(self.counts) * len(self.power) ** self.times

    def log10_cardinality(self) -> float:
        """log10 of `cardinality` from the factor sizes in floating point,
        with no big-int product; -inf for the empty product."""
        if 0 in self.counts or (self.times and not self.power):
            return -math.inf
        log = math.fsum(map(math.log10, self.counts))
        if self.times:
            log += self.times * math.log10(len(self.power))
        return log

    def __iter__(self):
        return itertools.product(
            *(enr_facthom_disk(r, self.category) for r in self.disks),
            *itertools.repeat(self.power, self.times))


def facthom_set_pi0(m: GraphManifold, cat: FinCategory) -> SetProduct:
    """pi_0 of Set-enriched factorization homology over a general stratified
    1-manifold: the product over connected components, disk components
    through the terminal-refinement formula, each held by its count, and
    circles through trace classes, held once with the circle count as its
    multiplicity.  Its elements come in the order of `tensor_all_sets` on
    the component values (disk components, then one factor per circle);
    they are built only when iterated."""
    return SetProduct(
        cat, [m.subgraph(verts, edge_ids) for verts, edge_ids
              in m.graph_components()],
        thh_set_pi0(cat).class_representatives() if m.circles else (),
        m.circles)


# -- trace classes (pi_0 of THH in the Set backend) ------------------------------

class TraceClassTable:
    """Endomorphisms modulo the trace relations g∘f ~ f∘g.

    Classes are canonicalized by least representative; the rotation action
    is trivial on classes by construction (the level-1 cyclic operator swaps
    the two composition orders, which the relations identify).

    Only the relations with f in the generating set G of
    `fincat.generating_set` are imposed, so the cost is O(|G| · |hom|), not
    O(|compose_table|).  They generate the same equivalence.  Every
    morphism f is a unit or f'∘g' with g' in G and f' reached before it; for
    a unit, g∘f = g = f∘g.  Otherwise, for any g in hom(tgt f, src f),

        g∘f = (g∘f')∘g' ~ g'∘(g∘f') = (g'∘g)∘f' ~ f'∘(g'∘g) = f∘g,

    by the relation at the generator g' and then by induction at f'.  This
    needs the unit laws and associativity wherever the composites are
    defined: it holds on every table `validate_category` accepts, and on a
    length-bounded free monoid, where a composite is defined exactly when
    the total length is within the bound, so every composite above is
    defined whenever g∘f is.  A relation whose composites are missing from
    the table is not imposed.
    """

    def __init__(self, cat: FinCategory):
        self.category = cat
        self._uf = UnionFind(m for m in cat.morphisms()
                             if cat.src(m) == cat.tgt(m))
        table = cat.compose_table
        for f in cat.generators:
            for g in cat.hom(cat.tgt(f), cat.src(f)):
                gf, fg = table.get((g, f)), table.get((f, g))
                if gf is not None and fg is not None:
                    self._uf.union(gf, fg)
        self._classes = self._uf.classes()
        self._rep = {}
        for block in self._classes:
            for m in block:
                self._rep[m] = block[0]

    def class_of(self, endo):
        return self._rep[endo]

    def class_representatives(self):
        return tuple(block[0] for block in self._classes)

    def classes(self):
        return self._classes

    def __len__(self):
        return len(self._classes)

    def word_class(self, word):
        """Class of a cyclic word: the class of its full composite; words are
        tuples of composable morphisms closing up at the start."""
        out = word[0]
        for m in word[1:]:
            out = self.category.compose(m, out)
            if out is None:
                raise ValueError("word leaves the composition bound")
        return self.class_of(out)

    def to_json_dict(self):
        return {"classes": [{"rep": block[0], "members": list(block)}
                            for block in self._classes]}


def thh_set_pi0(cat: FinCategory) -> TraceClassTable:
    return TraceClassTable(cat)


# -- the cyclic bar construction --------------------------------------------------

def _bar_elements(cat, n: int, bar_hom=None):
    """Level n of the cyclic bar construction, sorted, in either backend:
    objects (x_0..x_n) with g_i a (basis) morphism in hom(x_i, x_{i+1 cyc}),
    g_1..g_n from the per-slot basis `bar_hom(x, y)` (default `cat.hom`)."""
    homs = (cat.hom,) + (bar_hom or cat.hom,) * n
    return sorted(
        (xs, gs) for xs in itertools.product(cat.objects, repeat=n + 1)
        for gs in itertools.product(*(hom(xs[i], xs[(i + 1) % (n + 1)])
                                      for i, hom in enumerate(homs))))


def _rotate(xs, gs):
    return (xs[-1],) + xs[:-1], (gs[-1],) + gs[:-1]


def _set_face(cat, xs, gs, n, i):
    """d_i composes g_i and g_{i+1}; the last face is d_n = d_0 ∘ rotation."""
    if i == n:
        (xs, gs), i = _rotate(xs, gs), 0
    return (xs[:i + 1] + xs[i + 2:],
            gs[:i] + (cat.compose(gs[i + 1], gs[i]),) + gs[i + 2:])


def _set_degeneracy(cat, xs, gs, n, i):
    """s_i inserts the unit of x_{i+1 cyc} after g_i."""
    x = xs[(i + 1) % (n + 1)]
    return (xs[:i + 2] + (x,) + xs[i + 2:],
            gs[:i + 1] + (cat.unit(x),) + gs[i + 1:])


class SetCyclicBar(SimplicialFinSet):
    """The cyclic bar construction in the Set backend, levels 0..depth:
    level n is `_bar_elements(cat, n)`, pairs of objects (x_0..x_n) and
    morphisms g_i in hom(x_i, x_{i+1 cyc}); d_i is `_set_face`, s_i is
    `_set_degeneracy`, and `cyclic[n]` is the rotation of level n."""

    def __init__(self, cat: FinCategory, depth: int):
        super().__init__((_bar_elements(cat, n) for n in range(depth + 1)),
                         lambda n, i, x: _set_face(cat, *x, n, i),
                         lambda n, i, x: _set_degeneracy(cat, *x, n, i))
        self.cyclic = [{x: _rotate(*x) for x in lv} for lv in self.levels]


# The linear structure maps, as functions of the bases of the levels they
# read and write (`bases[n]`, and `index[n]` mapping it to positions).

def _face_columns(cat, bases, index, n, i):
    """d_i : C_n -> C_{n-1} as a list of columns, by `_set_face`'s formula."""
    target = index[n - 1]
    cols = []
    for xs, gs in bases[n]:
        j = i
        if i == n:
            (xs, gs), j = _rotate(xs, gs), 0
        vec = cat.compose_basis(xs[j], xs[j + 1], xs[(j + 2) % (n + 1)],
                                gs[j], gs[j + 1])
        new_xs = xs[:j + 1] + xs[j + 2:]
        col = {}
        for k, c in vec.items():
            col[target[(new_xs, gs[:j] + (k,) + gs[j + 2:])]] = c
        cols.append(col)
    return cols


def _degeneracy_matrix(cat, bases, index, n, i) -> SparseMat:
    """s_i : C_n -> C_{n+1}, inserting the unit after the i-th factor."""
    cols = []
    for xs, gs in bases[n]:
        x = xs[(i + 1) % (n + 1)]
        nx = xs[:i + 2] + (x,) + xs[i + 2:]
        cols.append({index[n + 1][(nx, gs[:i + 1] + (k,) + gs[i + 1:])]: c
                     for k, c in cat.unit_vector(x).items()})
    return SparseMat.from_columns(len(bases[n + 1]), cols)


def _cyclic_matrix(bases, index, n) -> SparseMat:
    """The signed cyclic operator t_n = (-1)^n * rotation."""
    sign = 1 if n % 2 == 0 else -1
    return SparseMat.from_columns(len(bases[n]), [
        {index[n][_rotate(xs, gs)]: sign} for xs, gs in bases[n]])


def _with_unit_coordinates(cat: LinearCategory) -> LinearCategory:
    """`cat`, or over Z a copy in which each unit u has a coordinate ±1, by
    extended-Euclid steps: renaming a + q·b as a, for the least |u_a| != 0,
    turns u_b into u_b - q·u_a.  1 is primitive when hom(x, x) != 0."""
    for x in cat.objects if not cat.ring.is_field else ():
        while (u := cat.ring.reduce(cat.unit_vector(x))) and 1 not in map(
                abs, u.values()):
            a = min(u, key=lambda k: abs(u[k]))
            b = next((k for k in u if k != a), None)
            if b is None:
                raise ValueError(f"the unit of {x} is not primitive")
            cat = _transvection(cat, x, a, b, u[b] // u[a])
    return cat


def _transvection(cat, x, a, b, q) -> LinearCategory:
    """`cat` with the basis element a of hom(x, x) standing for a + q·b."""
    def expand(y, z, i):  # a new basis element in the old basis
        return {a: 1, b: q} if (y, z, i) == (x, x, a) else {i: 1}

    def recoordinate(y, z, vec):
        if (y, z) == (x, x) and vec.get(a):
            vec = {**vec, b: vec.get(b, 0) - q * vec[a]}
        return cat.ring.reduce(vec)
    sc = {(w, y, z): {(i, j): recoordinate(w, z, cat.compose_vectors(
                          w, y, z, expand(w, y, i), expand(y, z, j)))
                      for i in cat.hom(w, y) for j in cat.hom(y, z)}
          for (w, y, z) in cat.sc}
    units = {y: recoordinate(y, y, u) for y, u in cat.units.items()}
    return LinearCategory(cat.ring, cat.objects, cat.hom_basis, sc, units)


class ChainComplexBundle:
    """The normalized mixed complex C_n = A ⊗ Ā^(⊗n), Ā = A / k·1, of a
    linear category (Loday, *Cyclic Homology*, §1.1 and §2.1): the HH, HC
    and HC^- of the unnormalized `LinearCyclicLevel`s in dimension d(d-1)^n.
    In an endomorphism slot i >= 1, Ā is based by hom(x, x)'s basis less
    the pivot b*, the first element whose unit coefficient is invertible,
    and a vector v landing there is projected to v - (v_(b*)/u_(b*))·u, b*
    dropped.  The boundary is b = sum (-1)^i d_i, built one column per
    basis element in one pass over its faces; each face's product comes
    from a per-complex memo, already projected for a slot j >= 1.  Connes'
    operator is B = sum_(k=0..n) (-1)^(nk) s tau^k (s puts the unit in
    front, tau rotates), columns are normalized by `Ring.reduce` (over Q an
    integral coefficient is an int), and B is lazy."""

    def __init__(self, cat: LinearCategory, n_max: int):
        self.category = cat = _with_unit_coordinates(cat)
        self.ring = ring = cat.ring
        self.n_max = n_max
        self._pivots = {}  # x -> (b*, u / u_(b*) off b*)
        for x in cat.objects:
            u = ring.reduce(cat.unit_vector(x))
            pivot = next((b for b in cat.hom(x, x) if b in u and (
                ring.is_field or u[b] in (1, -1))), None)
            if pivot is None and cat.hom(x, x):
                raise ValueError(f"the unit of {x} has no invertible coordinate")
            if pivot is not None:
                scale = ring.normalize(Fraction(1, u.pop(pivot)))
                self._pivots[x] = pivot, {k: c * scale for k, c in u.items()}
        self.bases = [_bar_elements(cat, n, lambda x, y: [
            b for b in cat.hom(x, y) if x != y or b != self._pivots[x][0]])
            for n in range(n_max + 1)]
        self.index = [{b: i for i, b in enumerate(basis)} for basis in self.bases]
        self.dims = [len(b) for b in self.bases]
        self._products = {}  # (x, y, z, g, h, j >= 1) -> `_composite`
        self.boundaries = [None]  # b_0 is undefined
        for n in range(1, n_max + 1):
            self.boundaries.append(self._boundary(n))

    @functools.cached_property
    def connes_b(self):
        return [self._connes_b(n) for n in range(self.n_max)]

    def _project(self, x, y, vec):
        pivot, unit = self._pivots.get(x if x == y else None, (None, {}))
        c = vec.get(pivot)
        if c is None:
            return vec
        out = {k: v for k, v in vec.items() if k != pivot}
        for k, w in unit.items():
            out[k] = out.get(k, 0) - c * w
        return out

    def _composite(self, x, y, z, g, h, in_bar_slot):
        """The items of g then h in hom(x, z), projected when the product
        lands in a slot j >= 1."""
        vec = self.category.compose_basis(x, y, z, g, h)
        return tuple((self._project(x, z, vec) if in_bar_slot else vec).items())

    def _boundary(self, n) -> SparseMat:
        """b = sum (-1)^i d_i, one column per basis element, each written in
        one pass over its faces; d_n = d_0 ∘ rotation."""
        target, products = self.index[n - 1], self._products
        cols = []
        for basis_xs, basis_gs in self.bases[n]:
            col = {}
            for i in range(n + 1):
                xs, gs, j = ((basis_xs, basis_gs, i) if i < n
                             else (*_rotate(basis_xs, basis_gs), 0))
                key = (xs[j], xs[j + 1], xs[(j + 2) % (n + 1)],
                       gs[j], gs[j + 1], j > 0)
                items = products.get(key)
                if items is None:
                    items = products[key] = self._composite(*key)
                new_xs, head, tail = xs[:j + 1] + xs[j + 2:], gs[:j], gs[j + 2:]
                sign = -1 if i % 2 else 1
                for k, c in items:
                    row = target[(new_xs, head + (k,) + tail)]
                    col[row] = col.get(row, 0) + sign * c
            cols.append(self.ring.reduce(col))
        return SparseMat.from_columns(self.dims[n - 1], cols)

    def _connes_b(self, n) -> SparseMat:
        # g_0 lands in slot k + 1 of s tau^k, so it alone is projected
        cat, target = self.category, self.index[n + 1]
        flip = -1 if n % 2 else 1  # (-1)^n
        cols = []
        for xs, gs in self.bases[n]:
            col = {}
            for g, c in self._project(xs[0], xs[1 % (n + 1)],
                                      {gs[0]: 1}).items():
                ys, hs = xs, (g,) + gs[1:]
                for _ in range(n + 1):  # c = (-1)^(nk) times g's coefficient
                    for k, e in cat.unit_vector(ys[0]).items():
                        row = target[((ys[0],) + ys, (k,) + hs)]
                        col[row] = col.get(row, 0) + c * e
                    ys, hs = _rotate(ys, hs)
                    c *= flip
            cols.append(self.ring.reduce(col))
        return SparseMat.from_columns(self.dims[n + 1], cols)

    def _is_zero(self, mat: SparseMat) -> bool:
        return all(self.ring.is_zero(v) for row in mat.rows
                   for v in row.values())

    def validate(self):
        """The defining identities: b b = 0, b B + B b = 0, B B = 0."""
        report = []
        for n in range(2, self.n_max + 1):
            if not self._is_zero(self.boundaries[n - 1].mul(self.boundaries[n])):
                report.append(f"b b != 0 out of degree {n}")
        for n in range(1, self.n_max):
            mixed = self.boundaries[n + 1].mul(self.connes_b[n]).add(
                self.connes_b[n - 1].mul(self.boundaries[n]))
            if not self._is_zero(mixed):
                report.append(f"b B + B b != 0 at degree {n}")
        for n in range(0, self.n_max - 1):
            if not self._is_zero(self.connes_b[n + 1].mul(self.connes_b[n])):
                report.append(f"B B != 0 at degree {n}")
        return report


def complex_dims(cat: LinearCategory):
    """dim C_0, dim C_1, ... of `ChainComplexBundle(cat, n)`, from the hom
    sizes alone: dim C_n = tr(H·H̄^n), with H[x][y] = |hom(x, y)| and H̄
    equal to H less the pivot, 1, on each nonzero diagonal entry.  The
    generator ends once H̄^n = 0, for then every later C_n is 0; otherwise
    it does not end."""
    objs = range(len(cat.objects))
    full = [[cat.dim(x, y) for y in cat.objects] for x in cat.objects]
    bar = [[h - (x == y and h > 0) for y, h in enumerate(row)]
           for x, row in enumerate(full)]
    power = [[int(x == y) for y in objs] for x in objs]  # H̄^n
    while any(map(any, power)):
        yield sum(full[x][y] * power[y][x] for x in objs for y in objs)
        power = [[sum(row[z] * bar[z][y] for z in objs) for y in objs]
                 for row in power]


class LinearCyclicLevel:
    """Level n of the unnormalized linear cyclic bar construction: the based
    module with its face, degeneracy and signed cyclic operator matrices,
    built from the bases of levels n - 1, n and n + 1 alone.  It is the
    unnormalized oracle for the normalized `ChainComplexBundle`."""

    def __init__(self, cat: LinearCategory, n: int):
        bases = {d: _bar_elements(cat, d) for d in range(max(n - 1, 0), n + 2)}
        index = {d: {b: i for i, b in enumerate(basis)}
                 for d, basis in bases.items()}
        self.n = n
        self.module = Module(cat.ring, tuple(bases[n]))
        self.faces = [SparseMat.from_columns(
            len(bases[n - 1]), _face_columns(cat, bases, index, n, i))
            for i in range(n + 1)] if n >= 1 else []
        self.degens = [_degeneracy_matrix(cat, bases, index, n, i)
                       for i in range(n + 1)]
        self.cyclic = _cyclic_matrix(bases, index, n)


def hochschild_homology(cat: LinearCategory, n_max: int):
    """Homology of (C_*, b) in degrees 0..n_max; each entry is a dict with
    the degree, the free rank, and the torsion coefficients (empty over a
    field)."""
    complex_ = ChainComplexBundle(cat, n_max + 1)
    return _groups(complex_.dims, complex_.boundaries, cat.ring)


def _groups(dims, boundaries, ring):
    return [{"degree": n, "rank": rank, "torsion": list(torsion)}
            for n, (rank, torsion)
            in enumerate(chain_homology(dims, boundaries, ring))]


def _total_complex(complex_: ChainComplexBundle, n_max: int, columns):
    """The (b, B) total complex Tot_n = sum of C_(n-2i) over the i in
    `columns` with 0 <= n - 2i <= complex_.n_max, in the order of `columns`.
    The differential maps C_d by b into column i and by B into column i - 1.
    Returns the dims and the maps Tot_n -> Tot_(n-1) for n = 0..n_max + 1."""
    offsets, dims = {}, {}
    for n in range(-1, n_max + 2):
        offsets[n], dims[n] = {}, 0
        for i in columns:
            if 0 <= n - 2 * i <= complex_.n_max:
                offsets[n][i] = dims[n]
                dims[n] += complex_.dims[n - 2 * i]

    def put(m, row_off, col_off, block):
        # each source block owns its columns, and its b and B land in
        # different target blocks: no entry is written twice
        for r, row in enumerate(block.rows):
            target = m.rows[row_off + r]
            for j, v in row.items():
                target[col_off + j] = v

    mats = []
    for n in range(n_max + 2):
        m = SparseMat(dims[n - 1], dims[n])
        below = offsets[n - 1]
        for i, col_off in offsets[n].items():
            d = n - 2 * i
            if i in below:
                put(m, below[i], col_off, complex_.boundaries[d])
            if i - 1 in below:
                put(m, below[i - 1], col_off, complex_.connes_b[d])
        mats.append(m)
    return [dims[n] for n in range(n_max + 2)], mats


def cyclic_homology(cat: LinearCategory, n_max: int):
    """First-quadrant cyclic homology in degrees 0..n_max: the homology of
    the (b, B) total complex, computed exactly per degree."""
    complex_ = ChainComplexBundle(cat, n_max + 1)
    dims, mats = _total_complex(complex_, n_max, range(n_max // 2 + 2))
    return _groups(dims, mats, cat.ring)


def negative_cyclic_homology(cat: LinearCategory, n_max: int, i_max: int = 3):
    """Column-truncated negative cyclic homology.

    The honest theory needs all columns C_{n + 2i}, i >= 0; this truncates
    at i <= i_max and reports the truncation.  The dropped columns
    contribute only Hochschild homology in positive degrees, so the
    truncation is exact when HH_n = 0 for all n > 0.  That is claimed only
    with a certificate that A is separable: a nondegenerate trace form
    (`enrich.separable_by_trace_form`), or, where the trace form cannot
    decide, a separability idempotent (`enrich.is_separable`).  Without
    one, "exact" is false and "hh_vanishes_above" and "certificate" are
    null.
    """
    if i_max < 0:
        raise ValueError(f"i_max must be >= 0, got {i_max}")
    complex_ = ChainComplexBundle(cat, n_max + 2 * i_max + 1)
    dims, mats = _total_complex(complex_, n_max, range(0, -i_max - 1, -1))
    separable = separable_by_trace_form(cat)
    if separable is None:
        separable = is_separable(cat)
    return {"groups": _groups(dims, mats, cat.ring),
            "truncated_at_column": i_max,
            "hh_vanishes_above": 0 if separable else None,
            "certificate": "separable" if separable else None,
            "exact": separable}
