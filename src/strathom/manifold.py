"""Compact stratified 1-manifolds as combinatorial data.

A manifold here is a finite directed multigraph plus a count of smooth
circles.  Morphisms are stored in their closed / creation / refinement
normal form:

    source --closed--> A --creation--> B --refinement--> target

where the closed and creation parts are given contravariantly by bundle maps
(A -> source injective, B -> A surjective) and the refinement part presents B
as a subdivision of the target.  Edge orientations play the role of the
framing data: all maps must preserve them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType

from .fincat import UnionFind, check_json


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


class GraphManifold:
    def __init__(self, vertices, edges, circles: int = 0):
        self.vertices = tuple(vertices)
        self.edges = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
        self.circles = int(circles)
        self._edge_by_id = {e.id: e for e in self.edges}

    def edge(self, eid) -> Edge:
        return self._edge_by_id[eid]

    def edge_ids(self):
        return tuple(e.id for e in self.edges)

    @property
    def is_disk_stratified(self) -> bool:
        return self.circles == 0

    def isolated_vertices(self):
        touched = set()
        for e in self.edges:
            touched.add(e.src)
            touched.add(e.dst)
        return tuple(v for v in self.vertices if v not in touched)

    def graph_components(self):
        """Connected components of the graph part: list of (vertices, edges),
        each sorted.  Circles are not included."""
        uf = UnionFind(self.vertices)
        for e in self.edges:
            uf.union(e.src, e.dst)
        edges = {}
        for e in self.edges:
            edges.setdefault(uf.find(e.src), []).append(e.id)
        return [(vs, tuple(sorted(edges.get(uf.find(vs[0]), ()))))
                for vs in uf.classes()]

    def subgraph(self, vertex_ids, edge_ids) -> "GraphManifold":
        vertex_ids, edge_ids = set(vertex_ids), set(edge_ids)
        vs = [v for v in self.vertices if v in vertex_ids]
        es = [e for e in self.edges if e.id in edge_ids]
        return GraphManifold(vs, es, 0)

    def __eq__(self, other):
        return (isinstance(other, GraphManifold)
                and (self.vertices, self.edges, self.circles)
                == (other.vertices, other.edges, other.circles))

    def __hash__(self):
        return hash((self.vertices, self.edges, self.circles))

    def __repr__(self):
        return (f"GraphManifold({len(self.vertices)}v, {len(self.edges)}e, "
                f"{self.circles}o)")

    def to_json_dict(self):
        return {"vertices": list(self.vertices),
                "edges": [{"id": e.id, "src": e.src, "dst": e.dst}
                          for e in self.edges],
                "circles": self.circles}

    @classmethod
    def from_json_dict(cls, data):
        edges = check_json(data.get("edges", []), [{str: str}], "edges")
        return cls(check_json(data["vertices"], [str], "vertices"),
                   [(e["id"], e["src"], e["dst"]) for e in edges],
                   check_json(data.get("circles", 0), int, "circles"))


def d0() -> GraphManifold:
    return GraphManifold(("v",), ())


def d1() -> GraphManifold:
    return GraphManifold(("v0", "v1"), (("e", "v0", "v1"),))


def pointed_circle() -> GraphManifold:
    """S^1_*: one vertex, one loop."""
    return GraphManifold(("v",), (("e", "v", "v"),))


def smooth_circle() -> GraphManifold:
    return GraphManifold((), (), circles=1)


def cycle_graph(n: int) -> GraphManifold:
    """The circle stratified by n >= 1 points."""
    vs = [f"v{i}" for i in range(n)]
    es = [(f"e{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    return GraphManifold(vs, es)


def disjoint_union(*parts: GraphManifold) -> GraphManifold:
    vs, es = [], []
    circles = 0
    for k, m in enumerate(parts):
        vs.extend(f"{k}.{v}" for v in m.vertices)
        es.extend((f"{k}.{e.id}", f"{k}.{e.src}", f"{k}.{e.dst}") for e in m.edges)
        circles += m.circles
    return GraphManifold(vs, es, circles)


def validate_manifold(m: GraphManifold):
    report = []
    if len(set(m.vertices)) != len(m.vertices):
        report.append("duplicate vertex id")
    seen = set()
    for e in m.edges:
        if e.id in seen:
            report.append(f"duplicate edge id {e.id}")
        seen.add(e.id)
        if e.src not in m.vertices:
            report.append(f"edge {e.id} has dangling src {e.src}")
        if e.dst not in m.vertices:
            report.append(f"edge {e.id} has dangling dst {e.dst}")
    if m.circles < 0:
        report.append("negative circle count")
    return report


# -- bundle maps (contravariant data of closed-creation morphisms) -----------

class BundleMap:
    """A proper constructible bundle map phi : total -> base, combinatorially.

    Vertices map to vertices.  Each edge maps orientation-preservingly onto
    a base edge, named by its id, or collapses (None) onto the vertex its
    endpoints share; each circle covers a circle with positive degree or
    collapses to a vertex.  A morphism base -> total in the ambient category
    is the reversed-cylinder of such a map.
    """

    def __init__(self, total: GraphManifold, base: GraphManifold,
                 vertex_map, edge_map, circle_map=None):
        self.total = total
        self.base = base
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)      # eid -> base eid | None if collapsed
        self.circle_map = dict(circle_map or {})  # idx -> ("circle", j, deg) | ("vertex", v)

    @classmethod
    def identity(cls, m: GraphManifold) -> "BundleMap":
        return cls(m, m, {v: v for v in m.vertices},
                   {e.id: e.id for e in m.edges},
                   {i: ("circle", i, 1) for i in range(m.circles)})

    def validate(self):
        report = []
        for v in self.total.vertices:
            if self.vertex_map.get(v) not in self.base.vertices:
                report.append(f"vertex {v} has no valid image")
        for e in self.total.edges:
            if e.id not in self.edge_map:
                report.append(f"edge {e.id} has no image")
                continue
            fid = self.edge_map[e.id]
            if fid is None:
                if self.vertex_map.get(e.src) != self.vertex_map.get(e.dst):
                    report.append(f"collapsed edge {e.id} has endpoints elsewhere")
                continue
            f = self.base._edge_by_id.get(fid)
            if f is None:
                report.append(f"edge {e.id} maps to unknown edge {fid}")
            elif (self.vertex_map.get(e.src) != f.src
                  or self.vertex_map.get(e.dst) != f.dst):
                report.append(f"edge {e.id} breaks incidence/orientation")
        for i in range(self.total.circles):
            tgt = self.circle_map.get(i)
            if tgt is None:
                report.append(f"circle {i} has no image")
                continue
            if tgt[0] == "circle":
                if not (0 <= tgt[1] < self.base.circles) or tgt[2] < 1:
                    report.append(f"circle {i} has invalid cover datum {tgt}")
            elif tgt[0] == "vertex":
                if tgt[1] not in self.base.vertices:
                    report.append(f"circle {i} collapses to unknown vertex")
            else:
                report.append(f"circle {i} has malformed image {tgt}")
        return report

    def is_injective(self) -> bool:
        vm = list(self.vertex_map.values())
        if len(set(vm)) != len(vm):
            return False
        eimgs = list(self.edge_map.values())
        if None in eimgs or len(set(eimgs)) != len(eimgs):
            return False
        cimgs = []
        for tgt in self.circle_map.values():
            if tgt[0] != "circle" or tgt[2] != 1:
                return False
            cimgs.append(tgt[1])
        return len(set(cimgs)) == len(cimgs)

    def is_surjective(self) -> bool:
        verts = set(self.vertex_map.values())
        verts.update(t[1] for t in self.circle_map.values() if t[0] == "vertex")
        if verts != set(self.base.vertices):
            # collapsed edges land on vertices already hit by their endpoints
            return False
        if set(self.edge_map.values()) - {None} != set(self.base.edge_ids()):
            return False
        circles = {t[1] for t in self.circle_map.values() if t[0] == "circle"}
        return circles == set(range(self.base.circles))

    def is_bijective(self) -> bool:
        return (self.is_injective() and self.is_surjective()
                and len(self.total.vertices) == len(self.base.vertices)
                and len(self.total.edges) == len(self.base.edges)
                and self.total.circles == self.base.circles)

    def compose(self, other: "BundleMap") -> "BundleMap":
        """self ∘ other where other : P -> N and self : N -> M."""
        if other.base != self.total:
            raise ValueError("bundle maps not composable")
        vm = {v: self.vertex_map[other.vertex_map[v]] for v in other.total.vertices}
        em = {}
        for e in other.total.edges:
            fid = other.edge_map[e.id]
            em[e.id] = None if fid is None else self.edge_map[fid]
        cm = {}
        for i in range(other.total.circles):
            tgt = other.circle_map[i]
            if tgt[0] == "vertex":
                cm[i] = ("vertex", self.vertex_map[tgt[1]])
            else:
                up = self.circle_map[tgt[1]]
                if up[0] == "vertex":
                    cm[i] = up
                else:
                    cm[i] = ("circle", up[1], up[2] * tgt[2])
        return BundleMap(other.total, self.base, vm, em, cm)

    def image_factorization(self):
        """Factor phi : N -> M as N ->> Im ↪ M.

        Returns (corestriction, inclusion): both bundle maps, the first
        surjective onto the image submanifold, the second injective.
        """
        verts = sorted(set(self.vertex_map.values())
                       | {t[1] for t in self.circle_map.values() if t[0] == "vertex"})
        edge_ids = sorted(set(self.edge_map.values()) - {None})
        covered_circles = sorted({t[1] for t in self.circle_map.values()
                                  if t[0] == "circle"})
        circle_index = {j: k for k, j in enumerate(covered_circles)}
        im = GraphManifold(verts,
                           [self.base.edge(eid) for eid in edge_ids],
                           len(covered_circles))
        incl = BundleMap(im, self.base, {v: v for v in verts},
                         {eid: eid for eid in edge_ids},
                         {k: ("circle", j, 1) for j, k in circle_index.items()})
        cm = {}
        for i in range(self.total.circles):
            tgt = self.circle_map[i]
            if tgt[0] == "circle":
                cm[i] = ("circle", circle_index[tgt[1]], tgt[2])
            else:
                cm[i] = tgt
        corestriction = BundleMap(self.total, im, dict(self.vertex_map),
                                  dict(self.edge_map), cm)
        return corestriction, incl


# -- refinements (covariant: fine -> coarse homeomorphisms) ------------------

class RefinementDatum:
    """Presents `fine` as a subdivision of `coarse`.

    `vertex_image` embeds the coarse vertices among the fine ones; each
    coarse edge carries the ordered chain of fine edges subdividing it; each
    coarse circle is either an unrefined fine circle or a cyclically ordered
    chain of fine edges.
    """

    def __init__(self, fine: GraphManifold, coarse: GraphManifold,
                 vertex_image, edge_fibers, circle_fibers=None):
        self.fine = fine
        self.coarse = coarse
        self.vertex_image = dict(vertex_image)   # coarse v -> fine v
        self.edge_fibers = {k: tuple(v) for k, v in edge_fibers.items()}
        self.circle_fibers = {k: v for k, v in (circle_fibers or {}).items()}

    @classmethod
    def identity(cls, m: GraphManifold) -> "RefinementDatum":
        return cls(m, m, {v: v for v in m.vertices},
                   {e.id: (e.id,) for e in m.edges},
                   {i: ("circle", i) for i in range(m.circles)})

    def validate(self):
        report = []

        def fine_edges(chain):
            try:
                return [self.fine.edge(eid) for eid in chain]
            except KeyError:
                return None
        imgs = list(self.vertex_image.values())
        if len(set(imgs)) != len(imgs):
            report.append("vertex_image not injective")
        if set(self.vertex_image) != set(self.coarse.vertices):
            report.append("vertex_image domain mismatch")
        if not set(imgs) <= set(self.fine.vertices):
            report.append("vertex_image lands outside fine vertices")
        used_edges = []
        interior = set()
        for f in self.coarse.edges:
            chain = self.edge_fibers.get(f.id)
            if not chain:
                report.append(f"coarse edge {f.id} has empty fiber")
                continue
            used_edges.extend(chain)
            fes = fine_edges(chain)
            if fes is None:
                report.append(f"fiber of {f.id} has unknown edges")
                continue
            if fes[0].src != self.vertex_image.get(f.src):
                report.append(f"fiber of {f.id} does not start at src image")
            if fes[-1].dst != self.vertex_image.get(f.dst):
                report.append(f"fiber of {f.id} does not end at dst image")
            for a, b in zip(fes, fes[1:]):
                if a.dst != b.src:
                    report.append(f"fiber of {f.id} is not a chain at {a.id}|{b.id}")
                interior.add(a.dst)
        used_circles = []
        for j in range(self.coarse.circles):
            fib = self.circle_fibers.get(j)
            if fib is None:
                report.append(f"coarse circle {j} has no fiber")
                continue
            if fib[0] == "circle":
                if not (0 <= fib[1] < self.fine.circles):
                    report.append(f"coarse circle {j} has invalid fine circle")
                used_circles.append(fib[1])
            elif fib[0] == "cycle":
                chain = fib[1]
                if not chain:
                    report.append(f"coarse circle {j} has empty cycle fiber")
                    continue
                used_edges.extend(chain)
                fes = fine_edges(chain)
                if fes is None:
                    report.append(f"cycle fiber of circle {j} has unknown edges")
                    continue
                for a, b in zip(fes, fes[1:] + fes[:1]):
                    if a.dst != b.src:
                        report.append(f"cycle fiber of circle {j} breaks at {a.id}")
                    interior.add(a.dst)
            else:
                report.append(f"coarse circle {j} has malformed fiber {fib}")
        if sorted(used_edges) != sorted(e.id for e in self.fine.edges):
            report.append("edge fibers do not partition the fine edges")
        if sorted(used_circles) != sorted(range(self.fine.circles)):
            report.append("circle fibers do not account for the fine circles")
        if interior & set(imgs):
            report.append("a coarse vertex image sits in a fiber interior")
        leftovers = set(self.fine.vertices) - set(imgs) - interior
        if leftovers:
            report.append(f"fine vertices {sorted(leftovers)} unaccounted for")
        return report

    def is_trivial(self) -> bool:
        return (len(self.fine.vertices) == len(self.coarse.vertices)
                and all(len(c) == 1 for c in self.edge_fibers.values())
                and all(f[0] == "circle" for f in self.circle_fibers.values()))

    def compose(self, finer: "RefinementDatum") -> "RefinementDatum":
        """Subdivide a subdivision: self : B -> M, finer : X -> B gives X -> M."""
        vi = {v: finer.vertex_image[self.vertex_image[v]]
              for v in self.coarse.vertices}

        def refine(chain):
            return tuple(x for eid in chain for x in finer.edge_fibers[eid])
        ef = {fid: refine(chain) for fid, chain in self.edge_fibers.items()}
        cf = {j: finer.circle_fibers[fib[1]] if fib[0] == "circle"
              else ("cycle", refine(fib[1]))
              for j, fib in self.circle_fibers.items()}
        return RefinementDatum(finer.fine, self.coarse, vi, ef, cf)


# -- morphisms in normal form ------------------------------------------------

class StratMorphism:
    """source --cls--> A --cre--> B --ref--> target, stored by its parts."""

    def __init__(self, closed_part: BundleMap, creation_part: BundleMap,
                 refinement_part: RefinementDatum):
        self.closed_part = closed_part          # A -> source, injective
        self.creation_part = creation_part      # B -> A, surjective
        self.refinement_part = refinement_part  # B fine, target coarse
        self.source = closed_part.base
        self.target = refinement_part.coarse

    @classmethod
    def identity(cls, m: GraphManifold) -> "StratMorphism":
        return cls(BundleMap.identity(m), BundleMap.identity(m),
                   RefinementDatum.identity(m))

    @classmethod
    def from_closed(cls, bm: BundleMap) -> "StratMorphism":
        return cls(bm, BundleMap.identity(bm.total),
                   RefinementDatum.identity(bm.total))

    @classmethod
    def from_creation(cls, bm: BundleMap) -> "StratMorphism":
        return cls(BundleMap.identity(bm.base), bm,
                   RefinementDatum.identity(bm.total))

    @classmethod
    def from_closed_creation(cls, bm: BundleMap) -> "StratMorphism":
        corestriction, incl = bm.image_factorization()
        return cls(incl, corestriction, RefinementDatum.identity(bm.total))

    @classmethod
    def from_refinement(cls, ref: RefinementDatum) -> "StratMorphism":
        return cls(BundleMap.identity(ref.fine), BundleMap.identity(ref.fine), ref)

    def validate(self):
        report = []
        report += [f"closed: {r}" for r in self.closed_part.validate()]
        report += [f"creation: {r}" for r in self.creation_part.validate()]
        report += [f"refinement: {r}" for r in self.refinement_part.validate()]
        if not self.closed_part.is_injective():
            report.append("closed part is not injective")
        if not self.creation_part.is_surjective():
            report.append("creation part is not surjective")
        if self.closed_part.total != self.creation_part.base:
            report.append("closed part's total is not the creation part's base")
        if self.creation_part.total != self.refinement_part.fine:
            report.append(
                "creation part's total is not the refinement's fine manifold")
        return report


def classify_morphism(m: StratMorphism) -> str:
    cls_triv = m.closed_part.is_bijective()
    cre_triv = m.creation_part.is_bijective()
    ref_triv = m.refinement_part.is_trivial()
    if cls_triv and cre_triv and ref_triv:
        return "isomorphism"
    if cre_triv and ref_triv:
        return "closed"
    if cls_triv and ref_triv:
        return "creation"
    if ref_triv:
        return "closed-creation"
    if cls_triv and cre_triv:
        return "refinement"
    if cls_triv:
        return "active"
    return "general"


def factor_closed_active(m: StratMorphism):
    """The unique [closed; active] factorization, read off the normal form."""
    mid = m.closed_part.total
    closed = StratMorphism.from_closed(m.closed_part)
    active = StratMorphism(BundleMap.identity(mid), m.creation_part,
                           m.refinement_part)
    return closed, active


def _pull_back_refinement(ref: RefinementDatum, phi: BundleMap):
    """Interchange: refinement r : A' -> A followed by the closed-creation
    morphism of a bundle map phi : B -> A becomes phi' : X -> A' followed by
    refinement X -> B, where X is the pullback of the subdivision along phi.

    Each cell of B is pulled back on its own, so phi may be any bundle map:
    phi' is injective when phi is, and surjective when phi is.  The cells
    it creates are named e@k, e#k, c{i}@k, c{i}#k, primed until no cell of
    B or earlier new cell has the name.
    """
    Aprime, B = ref.fine, phi.total
    used = set(B.vertices) | set(B.edge_ids())

    def fresh(name):
        while name in used:
            name += "'"
        used.add(name)
        return name

    x_verts = list(B.vertices)
    x_edges = []
    vm = {w: ref.vertex_image[phi.vertex_map[w]] for w in B.vertices}
    em = {}
    ef = {}
    for e in B.edges:
        f = phi.edge_map[e.id]
        if f is None:
            x_edges.append(e)
            em[e.id] = None
            ef[e.id] = (e.id,)
        else:
            chain = ref.edge_fibers[f]
            prev = e.src
            pieces = []
            for k, fid in enumerate(chain):
                fine_edge = Aprime.edge(fid)
                if k == len(chain) - 1:
                    nxt = e.dst
                else:
                    nxt = fresh(f"{e.id}@{k}")
                    x_verts.append(nxt)
                    vm[nxt] = fine_edge.dst
                name = fresh(f"{e.id}#{k}") if len(chain) > 1 else e.id
                x_edges.append(Edge(name, prev, nxt))
                em[name] = fid
                pieces.append(name)
                prev = nxt
            ef[e.id] = tuple(pieces)
    cm = {}
    cf = {}
    x_circles = 0
    for i in range(B.circles):
        tgt = phi.circle_map[i]
        if tgt[0] == "vertex":
            cm[x_circles] = ("vertex", ref.vertex_image[tgt[1]])
            cf[i] = ("circle", x_circles)
            x_circles += 1
            continue
        j, deg = tgt[1], tgt[2]
        fib = ref.circle_fibers[j]
        if fib[0] == "circle":
            cm[x_circles] = ("circle", fib[1], deg)
            cf[i] = ("circle", x_circles)
            x_circles += 1
        else:
            chain = fib[1]
            ring = []
            n = len(chain) * deg
            names = [fresh(f"c{i}#{k}") for k in range(n)]
            verts = [fresh(f"c{i}@{k}") for k in range(n)]
            x_verts.extend(verts)
            for k in range(n):
                fid = chain[k % len(chain)]
                x_edges.append(Edge(names[k], verts[k], verts[(k + 1) % n]))
                em[names[k]] = fid
                vm[verts[k]] = Aprime.edge(fid).src
                ring.append(names[k])
            cf[i] = ("cycle", tuple(ring))
    X = GraphManifold(x_verts, x_edges, x_circles)
    phi2 = BundleMap(X, Aprime, vm, em, cm)
    ref2 = RefinementDatum(X, B, {w: w for w in B.vertices}, ef, cf)
    return phi2, ref2


def compose_morphisms(m1: StratMorphism, m2: StratMorphism) -> StratMorphism:
    """The composite m2 ∘ m1, renormalized to closed / creation / refinement."""
    if m1.target != m2.source:
        raise ValueError("morphism endpoints do not match")
    # step 1: move m2's closed part left past m1's refinement
    incl2, ref_mid = _pull_back_refinement(m1.refinement_part, m2.closed_part)
    # step 2: closed-creation composite of m1.creation then incl2, refactored
    cc = m1.creation_part.compose(incl2)
    corestriction, incl_mid = cc.image_factorization()
    # step 3: merge with m1's closed part
    closed_total = m1.closed_part.compose(incl_mid)
    # step 4: move m2's creation past the middle refinement
    cre2, ref2 = _pull_back_refinement(ref_mid, m2.creation_part)
    creation_total = corestriction.compose(cre2)
    refinement_total = m2.refinement_part.compose(ref2)
    return StratMorphism(closed_total, creation_total, refinement_total)


# -- spans of finite sets -----------------------------------------------------

class FinSpan:
    """S <- U -> T, a morphism in the category of finite-set correspondences.

    The legs are read-only, so the fiber layouts below, computed once on
    first use, never go stale."""

    def __init__(self, left, apex, right, to_left, to_right):
        self.left = tuple(left)
        self.apex = tuple(apex)
        self.right = tuple(right)
        self.to_left = MappingProxyType(dict(to_left))
        self.to_right = MappingProxyType(dict(to_right))
        self._right_fibers = self._left_fibers = None

    @classmethod
    def _over_owned_legs(cls, left, apex, right, to_left, to_right,
                         right_fibers):
        """A span on tuples and leg dicts that its builder made for it and
        holds nowhere else: the legs are read-only views of those dicts,
        not copies, and `right_fibers` is the layout the builder filled."""
        span = cls.__new__(cls)
        span.left, span.apex, span.right = left, apex, right
        span.to_left = MappingProxyType(to_left)
        span.to_right = MappingProxyType(to_right)
        span._right_fibers, span._left_fibers = right_fibers, None
        return span

    @classmethod
    def identity(cls, s) -> "FinSpan":
        s = tuple(s)
        return cls(s, s, s, {x: x for x in s}, {x: x for x in s})

    @property
    def right_fibers(self):
        """t -> (fiber, images) for each t with a non-empty fiber: the apex
        elements over t sorted by `repr`, and their images in S."""
        if self._right_fibers is None:
            groups = {}
            for u in self.apex:
                groups.setdefault(self.to_right[u], []).append(u)
            self._right_fibers = _fiber_layout(groups, self.to_left)
        return self._right_fibers

    @property
    def left_fibers(self):
        """s -> (u, image of u in T) for the apex elements u over s, in apex
        order."""
        if self._left_fibers is None:
            groups = {}
            for u in self.apex:
                groups.setdefault(self.to_left[u], []).append(
                    (u, self.to_right[u]))
            self._left_fibers = groups
        return self._left_fibers

    def leg_multiset(self):
        return sorted((repr(self.to_left[u]), repr(self.to_right[u]))
                      for u in self.apex)

    def __repr__(self):
        return f"FinSpan({len(self.left)}<-{len(self.apex)}->{len(self.right)})"


def _fiber_layout(groups, to_left):
    """t -> (fiber, images) from t -> the apex elements over t in apex
    order: the fiber sorted by `repr` (stably), and its images in S."""
    layout = {}
    for t, fiber in groups.items():
        if len(fiber) > 1:
            fiber.sort(key=repr)
        layout[t] = (tuple(fiber), tuple(map(to_left.__getitem__, fiber)))
    return layout


def compose_spans(a: FinSpan, b: FinSpan) -> FinSpan:
    """Composite span a then b, apex the pullback over the shared middle set:
    each u of a's apex pairs with b's left fiber over its image, so the apex
    is ordered by u in a.apex order, then by v in b.apex order.  The walk
    groups the apex by its image in T as it goes, so the composite gets its
    `right_fibers` without a second pass, and the legs it builds become
    the composite's own."""
    if (a.right != b.left
            and sorted(map(repr, a.right)) != sorted(map(repr, b.left))):
        raise ValueError("span endpoints do not match")
    over, a_left, a_right = b.left_fibers, a.to_left, a.to_right
    apex, to_left, to_right, groups = [], {}, {}, {}
    for u in a.apex:
        s = a_left[u]
        for v, t in over.get(a_right[u], ()):
            uv = (u, v)
            apex.append(uv)
            to_left[uv] = s
            to_right[uv] = t
            groups.setdefault(t, []).append(uv)
    return FinSpan._over_owned_legs(a.left, tuple(apex), b.right, to_left,
                                    to_right, _fiber_layout(groups, to_left))


def spans_isomorphic(a: FinSpan, b: FinSpan) -> bool:
    """Span isomorphism rel endpoints: a bijection of apexes over both legs
    exists iff the multisets of leg pairs agree."""
    return (sorted(map(repr, a.left)) == sorted(map(repr, b.left))
            and sorted(map(repr, a.right)) == sorted(map(repr, b.right))
            and a.leg_multiset() == b.leg_multiset())


# -- strata functor -----------------------------------------------------------

def _leg(base_cells, total_cells, image) -> FinSpan:
    """base cells <- the total cells with an image -> total cells, for a
    contravariant cell map `image` that sends a cell to None when it has no
    image among `base_cells`."""
    apex = [c for c in total_cells if image[c] is not None]
    return FinSpan(base_cells, apex, total_cells,
                   {c: image[c] for c in apex}, {c: c for c in apex})


def strata_span(m: StratMorphism) -> FinSpan:
    """1-strata of a morphism between disk-stratified manifolds, as a span."""
    if m.source.circles or m.target.circles:
        raise ValueError("strata_span requires disk-stratified source and target")
    A, B = m.closed_part.total.edge_ids(), m.creation_part.total.edge_ids()
    fine = m.refinement_part.fine.edge_ids()
    s_ref = FinSpan(fine, fine, m.target.edge_ids(), {e: e for e in fine},
                    {e: f for f, chain in m.refinement_part.edge_fibers.items()
                     for e in chain})
    return compose_spans(
        compose_spans(_leg(m.source.edge_ids(), A, m.closed_part.edge_map),
                      _leg(A, B, m.creation_part.edge_map)), s_ref)


def vertex_span(m: StratMorphism) -> FinSpan:
    """0-strata analogue of `strata_span`, used to certify equality."""
    A, B = m.closed_part.total.vertices, m.creation_part.total.vertices
    return compose_spans(
        compose_spans(_leg(m.source.vertices, A, m.closed_part.vertex_map),
                      _leg(A, B, m.creation_part.vertex_map)),
        _leg(B, m.target.vertices, m.refinement_part.vertex_image))


def morphisms_agree(m1: StratMorphism, m2: StratMorphism) -> bool:
    """Equality certificate: same endpoints, same class, and the same spans
    on 0- and 1-strata.  (Actives have no canonical normal form, so this is
    the strongest check short of exhaustive isotopy enumeration.)"""
    if m1.source != m2.source:
        return False
    if m1.target != m2.target:
        return False
    if classify_morphism(m1) != classify_morphism(m2):
        return False
    if m1.source.circles or m1.target.circles:
        return spans_isomorphic(vertex_span(m1), vertex_span(m2))
    return (spans_isomorphic(strata_span(m1), strata_span(m2))
            and spans_isomorphic(vertex_span(m1), vertex_span(m2)))


# -- blowup -------------------------------------------------------------------

def blowup(m: GraphManifold):
    """Split every edge into its own closed interval; isolated vertices and
    circles ride along.  Returns (Bl(m), the creation morphism m -> Bl(m))."""
    vs = []
    es = []
    vm = {}
    em = {}
    for e in m.edges:
        s, t = f"{e.id}:s", f"{e.id}:t"
        vs.extend([s, t])
        es.append(Edge(e.id, s, t))
        vm[s] = e.src
        vm[t] = e.dst
        em[e.id] = e.id
    for v in m.isolated_vertices():
        vs.append(v)
        vm[v] = v
    bl = GraphManifold(vs, es, m.circles)
    bm = BundleMap(bl, m, vm, em,
                   {i: ("circle", i, 1) for i in range(m.circles)})
    return bl, StratMorphism.from_creation(bm)


# -- bounded enumeration (for property suites) --------------------------------

def all_bundle_maps(total: GraphManifold, base: GraphManifold):
    """All valid bundle maps total -> base between circle-free manifolds."""
    if total.circles or base.circles:
        raise ValueError("enumeration is for disk-stratified manifolds")
    out = []
    for vimages in itertools.product(base.vertices, repeat=len(total.vertices)):
        vm = dict(zip(total.vertices, vimages))
        per_edge = []
        for e in total.edges:
            opts = [f.id for f in base.edges
                    if f.src == vm[e.src] and f.dst == vm[e.dst]]
            if vm[e.src] == vm[e.dst]:
                opts.append(None)
            if not opts:
                per_edge = None
                break
            per_edge.append(opts)
        if per_edge is None:
            continue
        for combo in itertools.product(*per_edge):
            em = {e.id: tgt for e, tgt in zip(total.edges, combo)}
            out.append(BundleMap(total, base, vm, em))
    return out


def all_refinements(fine: GraphManifold, coarse: GraphManifold):
    """All ways of presenting `fine` as a subdivision of `coarse` (both
    circle-free)."""
    if fine.circles or coarse.circles:
        raise ValueError("enumeration is for disk-stratified manifolds")
    out = []
    coarse_edges = [e.id for e in coarse.edges]
    if len(fine.edges) < len(coarse.edges):
        return out
    for assignment in itertools.product(coarse_edges or [None],
                                        repeat=len(fine.edges)):
        if coarse_edges and None in assignment:
            continue
        if not coarse_edges and fine.edges:
            break
        fibers = {fid: [] for fid in coarse_edges}
        for e, fid in zip(fine.edges, assignment):
            fibers[fid].append(e)
        per_edge = []
        for f in coarse.edges:
            cands = _chain_candidates(fibers[f.id], is_loop=(f.src == f.dst))
            if not cands:
                per_edge = None
                break
            per_edge.append((f, cands))
        if per_edge is None:
            continue
        for combo in itertools.product(*(c for _, c in per_edge)):
            # chains that disagree on a coarse vertex's image fail validate()
            chains, vi = {}, {}
            for (f, _), chain in zip(per_edge, combo):
                chains[f.id] = tuple(e.id for e in chain)
                vi[f.src], vi[f.dst] = chain[0].src, chain[-1].dst
            # isolated coarse vertices may land on any leftover fine vertex
            missing = [v for v in coarse.vertices if v not in vi]
            interiors = {fine.edge(eid).dst
                         for chain in chains.values() for eid in chain[:-1]}
            free = [v for v in fine.vertices
                    if v not in vi.values() and v not in interiors]
            for images in itertools.permutations(free, len(missing)):
                full_vi = dict(vi)
                full_vi.update(zip(missing, images))
                ref = RefinementDatum(fine, coarse, full_vi, chains)
                if not ref.validate():
                    out.append(ref)
    return out


def _chain_candidates(edges, is_loop: bool):
    """Orderings of an edge set into one directed chain.

    An ordinary coarse edge needs a simple path (unique if it exists); a
    coarse loop needs a closed cycle, which can be cut at any of its
    vertices, so every rotation is a candidate.
    """
    srcs = {e.src: e for e in edges}
    if not edges or len(srcs) != len(edges):
        return []

    def walk(start):
        chain = [start]
        while len(chain) < len(edges):
            nxt = srcs.get(chain[-1].dst)
            if nxt is None or nxt in chain:
                return None
            chain.append(nxt)
        return tuple(chain)
    if is_loop:
        return [c for c in map(walk, edges) if c and c[-1].dst == c[0].src]
    dsts = {e.dst for e in edges}
    starts = [e for e in edges if e.src not in dsts]
    chain = walk(starts[0]) if len(starts) == 1 else None
    return [chain] if chain else []
