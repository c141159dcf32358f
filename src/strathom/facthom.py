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
import operator

from .exactla import SparseMat, chain_homology
from .fincat import FinCategory, SimplicialFinSet, UnionFind
from .enrich import LinearCategory, is_separable, tensor_all_sets
from .manifold import GraphManifold


# -- the entering-paths limit --------------------------------------------------

def cart_facthom_disk(r: GraphManifold, y: SimplicialFinSet,
                      check_segal: int = 0):
    """Cartesian factorization homology of a category object over a
    disk-stratified 1-manifold.

    The value is the limit over entering paths: an element assigns a
    1-simplex to each edge and a 0-simplex to each vertex, compatibly with
    the incidence maps s = d_1 and t = d_0.  Elements come back as
    (vertex labels, edge labels) aligned with the sorted cell lists.
    """
    if not r.is_disk_stratified:
        raise ValueError("cart_facthom_disk requires a disk-stratified manifold")
    if check_segal:
        for n in range(2, check_segal + 1):
            if n <= y.depth and not y.is_segal(n):
                raise ValueError(f"input fails the Segal condition at level {n}")
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
    edge-decoration) pairs.  Linear backend: returns the based Module.

    With `groupoid_isos` -- designated invertible morphisms making the
    object set a genuine groupoid -- labelings related by transporting
    along an isomorphism are identified: a quotient in the Set backend,
    coinvariants (fields only) in the linear one.
    """
    if not r.is_disk_stratified:
        raise ValueError("enr_facthom_disk requires a disk-stratified manifold")
    verts = sorted(r.vertices)
    edges = sorted(r.edges, key=lambda e: e.id)
    if isinstance(cat, FinCategory):
        out = []
        for lam in itertools.product(cat.objects, repeat=len(verts)):
            assign = dict(zip(verts, lam))
            homsets = [cat.hom(assign[e.src], assign[e.dst]) for e in edges]
            for decor in tensor_all_sets(homsets):
                out.append((lam, decor))
        if not groupoid_isos:
            return tuple(sorted(out))
        return _groupoid_quotient_set(cat, verts, edges, out, groupoid_isos)
    if isinstance(cat, LinearCategory):
        from .enrich import Module
        basis = []
        for lam in itertools.product(cat.objects, repeat=len(verts)):
            assign = dict(zip(verts, lam))
            homs = [cat.hom(assign[e.src], assign[e.dst]) for e in edges]
            for decor in itertools.product(*homs):
                basis.append((lam, decor))
        module = Module(cat.ring, tuple(sorted(basis)))
        if not groupoid_isos:
            return module
        if not cat.ring.is_field:
            raise NotImplementedError(
                "linear groupoid coinvariants are supported over fields only")
        return _groupoid_coinvariants(cat, verts, edges, module, groupoid_isos)
    raise TypeError(f"unsupported enrichment {cat!r}")


def _transport_element(cat, verts, edges, element, vi, alpha, alpha_inv):
    lam, decor = element
    v = verts[vi]
    lam2 = lam[:vi] + (cat.tgt(alpha),) + lam[vi + 1:]
    decor2 = list(decor)
    for ei, e in enumerate(edges):
        f = decor2[ei]
        if e.src == v:
            f = cat.compose(f, alpha_inv)
        if e.dst == v:
            f = cat.compose(alpha, f)
        decor2[ei] = f
    return (lam2, tuple(decor2))


def _groupoid_quotient_set(cat, verts, edges, elements, isos):
    inverses = {alpha: cat.inverse(alpha) for alpha in isos}
    for alpha, alpha_inv in inverses.items():
        if alpha_inv is None:
            raise ValueError(
                f"designated groupoid morphism {alpha!r} is not invertible")
    uf = UnionFind(elements)
    for element in elements:
        lam, _ = element
        for vi in range(len(verts)):
            for alpha, alpha_inv in inverses.items():
                if cat.src(alpha) != lam[vi]:
                    continue
                uf.union(element, _transport_element(
                    cat, verts, edges, element, vi, alpha, alpha_inv))
    return tuple(block[0] for block in uf.classes())


def _groupoid_coinvariants(cat, verts, edges, module, isos):
    """Coinvariants of the free module under basis transport: the cokernel
    of the stacked maps T_alpha - 1.

    Linear groupoid isomorphisms are given as triples (x, y, b) with b an
    invertible basis element of hom(x, y); the inverse is recovered from the
    structure constants.
    """
    from .enrich import Module
    ring = cat.ring

    resolved = []
    for (x, y, b) in isos:
        inv = None
        for w in cat.hom(y, x):
            fwd = cat.compose_basis(x, y, x, b, w)
            bwd = cat.compose_basis(y, x, y, w, b)
            if (fwd == cat.unit_vector(x) and bwd == cat.unit_vector(y)):
                inv = w
                break
        if inv is None:
            raise ValueError(f"designated iso {b!r} of hom({x},{y}) "
                             "is not invertible")
        resolved.append((x, y, b, inv))

    vindex = {v: i for i, v in enumerate(verts)}

    def transport(element, vi, x, y, b, binv):
        lam, decor = element
        v = verts[vi]
        lam2 = lam[:vi] + (y,) + lam[vi + 1:]
        parts = []
        for ei, e in enumerate(edges):
            t0 = lam[vindex[e.dst]]
            s1 = lam2[vindex[e.src]]
            coeffs = {decor[ei]: 1}
            if e.src == v:
                # precompose with the inverse: hom(x, t0) -> hom(y, t0)
                new = {}
                for g, c in coeffs.items():
                    for k, c2 in cat.compose_basis(y, x, t0, binv, g).items():
                        new[k] = new.get(k, 0) + c * c2
                coeffs = new
            if e.dst == v:
                # postcompose: hom(s1, x) -> hom(s1, y)
                new = {}
                for g, c in coeffs.items():
                    for k, c2 in cat.compose_basis(s1, x, y, g, b).items():
                        new[k] = new.get(k, 0) + c * c2
                coeffs = new
            parts.append(coeffs)
        out = {}
        for combo in itertools.product(*(p.items() for p in parts)):
            label = (lam2, tuple(g for g, _ in combo))
            out[label] = out.get(label, 0) + math.prod(c for _, c in combo)
        return out

    cols = []
    index = module.index
    for element in module.basis:
        lam, _ = element
        for vi in range(len(verts)):
            for (x, y, b, binv) in resolved:
                if lam[vi] != x:
                    continue
                col = {index[element]: -1}
                for label, c in transport(element, vi, x, y, b, binv).items():
                    col[index[label]] = col.get(index[label], 0) + c
                col = ring.reduce(col)
                if col:
                    cols.append(col)
    mat = SparseMat.from_columns(module.dim, cols)
    dim = module.dim - mat.rank(ring)
    return Module(ring, tuple(f"coinv{i}" for i in range(dim)))


def facthom_set_pi0(m: GraphManifold, cat: FinCategory):
    """pi_0 of Set-enriched factorization homology over a general stratified
    1-manifold: the product over connected components, disk components
    through the terminal-refinement formula and circles through trace
    classes."""
    component_values = []
    for verts, edge_ids in m.graph_components():
        sub = m.subgraph(verts, edge_ids)
        component_values.append(enr_facthom_disk(sub, cat))
    table = None
    if m.circles:
        table = thh_set_pi0(cat)
        component_values.extend([tuple(table.class_representatives())] * m.circles)
    return tensor_all_sets(component_values)


# -- trace classes (pi_0 of THH in the Set backend) ------------------------------

class TraceClassTable:
    """Endomorphisms modulo the trace relations g∘f ~ f∘g.

    Classes are canonicalized by least representative; the rotation action
    is trivial on classes by construction (the level-1 cyclic operator swaps
    the two composition orders, which the relations identify).
    """

    def __init__(self, cat: FinCategory):
        self.category = cat
        self.elements = tuple(sorted(m for m in cat.morphisms()
                                     if cat.src(m) == cat.tgt(m)))
        self._uf = UnionFind(self.elements)
        for (g, f), h in cat.compose_table.items():
            if cat.src(f) == cat.tgt(g):
                fg = cat.compose_table.get((f, g))
                if fg is not None:
                    # h = g∘f is an endomorphism of src(f); fg one of src(g)
                    self._uf.union(h, fg)
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

    def members(self, rep):
        for block in self._classes:
            if block[0] == rep:
                return block
        raise KeyError(rep)

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

def _bar_elements(cat, n: int):
    """Level n of the cyclic bar construction, sorted, in either backend:
    objects (x_0..x_n) with g_i a (basis) morphism in hom(x_i, x_{i+1 cyc})."""
    return sorted(
        (xs, gs) for xs in itertools.product(cat.objects, repeat=n + 1)
        for gs in itertools.product(*(cat.hom(xs[i], xs[(i + 1) % (n + 1)])
                                      for i in range(n + 1))))


def _rotate(xs, gs):
    return (xs[-1],) + xs[:-1], (gs[-1],) + gs[:-1]


def _set_face(cat, xs, gs, n, i):
    """d_i composes g_i and g_{i+1}; the last face is d_n = d_0 ∘ rotation."""
    if i == n:
        (xs, gs), i = _rotate(xs, gs), 0
    return (xs[:i + 1] + xs[i + 2:],
            gs[:i] + (cat.compose(gs[i + 1], gs[i]),) + gs[i + 2:])


class SetCyclicLevel:
    """Level n of the cyclic bar construction in the Set backend: tuples of
    objects (x_0..x_n) with g_i in hom(x_i, x_{i+1 cyc}), plus the structure
    maps as explicit dicts."""

    def __init__(self, cat: FinCategory, n: int):
        self.n = n
        self.elements = tuple(_bar_elements(cat, n))
        self.faces = [{(xs, gs): _set_face(cat, xs, gs, n, i)
                       for (xs, gs) in self.elements}
                      for i in range(n + 1)] if n >= 1 else []
        self.degens = []
        for i in range(n + 1):
            dm = {}
            for (xs, gs) in self.elements:
                idx = (i + 1) % (n + 1)
                nx = xs[:i + 2] + (xs[idx],) + xs[i + 2:]
                ng = gs[:i + 1] + (cat.unit(xs[idx]),) + gs[i + 1:]
                dm[(xs, gs)] = (nx, ng)
            self.degens.append(dm)
        self.cyclic = {(xs, gs): _rotate(xs, gs) for (xs, gs) in self.elements}


def cyclic_bar_set_level(cat: FinCategory, n: int) -> SetCyclicLevel:
    return SetCyclicLevel(cat, n)


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


class ChainComplexBundle:
    """The cyclic bar chain complex of a linear category with its mixed
    structure: the boundaries b, the signed cyclic operators t = (-1)^n tau
    (tau the rotation), and Connes' operator B : C_n -> C_(n+1) from its
    closed formula

        B = sum_(k=0..n) (-1)^(nk) (1 + (-1)^n tau) s tau^k,

    with s putting the unit in front (Loday, *Cyclic Homology*, §2.1).  That
    is (1 - t) s N with the norm N = sum_k t^k multiplied out, one column
    per basis element.  Boundary columns are summed with `+ -` and
    normalized once, by `Ring.reduce`; B's entries are the exact sums,
    zeros dropped.  Bases and boundaries are built at once; the mixed
    structure on first use, since Hochschild homology never reads it.
    """

    def __init__(self, cat: LinearCategory, n_max: int):
        self.category = cat
        self.ring = cat.ring
        self.n_max = n_max
        self.bases = [_bar_elements(cat, n) for n in range(n_max + 1)]
        self.index = [{b: i for i, b in enumerate(basis)} for basis in self.bases]
        self.dims = [len(b) for b in self.bases]
        self.boundaries = [None]  # b_0 is undefined
        for n in range(1, n_max + 1):
            self.boundaries.append(self._boundary(n))

    @functools.cached_property
    def cyclic(self):
        return [_cyclic_matrix(self.bases, self.index, n)
                for n in range(self.n_max + 1)]

    @functools.cached_property
    def connes_b(self):
        return [self._connes_b(n) for n in range(self.n_max)]

    def _boundary(self, n) -> SparseMat:
        total = [dict() for _ in range(self.dims[n])]
        for i in range(n + 1):
            faces = _face_columns(self.category, self.bases, self.index, n, i)
            op = operator.sub if i % 2 else operator.add
            for acc, col in zip(total, faces):
                for row, v in col.items():
                    acc[row] = op(acc.get(row, 0), v)
        return SparseMat.from_columns(self.dims[n - 1],
                                      map(self.ring.reduce, total))

    def _connes_b(self, n) -> SparseMat:
        cat, target = self.category, self.index[n + 1]
        flip = -1 if n % 2 else 1  # (-1)^n
        cols = []
        for xs, gs in self.bases[n]:
            col, sign = {}, 1  # sign = (-1)^(nk) at tau^k
            for _ in range(n + 1):
                for k, c in cat.unit_vector(xs[0]).items():
                    front = ((xs[0],) + xs, (k,) + gs)
                    for row, v in ((target[front], sign * c),
                                   (target[_rotate(*front)], flip * sign * c)):
                        col[row] = col.get(row, 0) + v
                xs, gs = _rotate(xs, gs)
                sign *= flip
            cols.append(col)
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


def connes_B(cat: LinearCategory, n: int) -> SparseMat:
    """The degree-raising operator on the cyclic bar complex at degree n."""
    return ChainComplexBundle(cat, n + 1).connes_b[n]


class LinearCyclicLevel:
    """Level n of the linear cyclic bar construction: the based module with
    its face, degeneracy and signed cyclic operator matrices, built from the
    bases of levels n - 1, n and n + 1 alone."""

    def __init__(self, cat: LinearCategory, n: int):
        from .enrich import Module
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


def cyclic_bar_level(cat, n: int):
    """Level n of the cyclic bar construction, dispatched on the backend."""
    if isinstance(cat, FinCategory):
        return SetCyclicLevel(cat, n)
    if isinstance(cat, LinearCategory):
        return LinearCyclicLevel(cat, n)
    raise TypeError(f"unsupported enrichment {cat!r}")


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
    with a certificate: a separability idempotent (`enrich.is_separable`).
    Without one, "exact" is false and "hh_vanishes_above" and
    "certificate" are null.
    """
    if i_max < 0:
        raise ValueError(f"i_max must be >= 0, got {i_max}")
    complex_ = ChainComplexBundle(cat, n_max + 2 * i_max + 1)
    dims, mats = _total_complex(complex_, n_max, range(0, -i_max - 1, -1))
    separable = is_separable(cat)
    return {"groups": _groups(dims, mats, cat.ring),
            "truncated_at_column": i_max,
            "hh_vanishes_above": 0 if separable else None,
            "certificate": "separable" if separable else None,
            "exact": separable}
