"""Named invariant suites.

Each suite exercises one family of structural identities at desk scale and
returns a report dict; the CLI `check` verb and the test suite both run
these.  All randomness is seeded, so reports are deterministic.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from . import (cyclo, enrich, exactla, facthom, fanout, fincat, indexing,
               manifold)
from .exactla import QQ, ZZ, RingFp
from .fincat import FinCategory, SetDiagram, monoid_category
from .manifold import (BundleMap, Edge, FinSpan, GraphManifold,
                       RefinementDatum, StratMorphism, all_bundle_maps,
                       all_refinements, classify_morphism, compose_morphisms,
                       compose_spans, morphisms_agree, spans_isomorphic,
                       strata_span)


class Report:
    def __init__(self, suite):
        self.suite = suite
        self.passed = 0
        self.failures = []

    def check(self, ok, message):
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)

    def as_dict(self):
        return {"suite": self.suite, "passed": self.passed,
                "failed": len(self.failures),
                "failures": self.failures[:20]}


# -- deterministic generators ------------------------------------------------------

def transformation_monoid(npoints: int, seed: int):
    """A random transformation monoid on [npoints]: some functions closed
    under composition, always containing the identity.  Associativity is
    automatic."""
    rng = random.Random(seed)
    fns = {tuple(range(npoints))}
    for _ in range(2):
        fns.add(tuple(rng.randrange(npoints) for _ in range(npoints)))
    changed = True
    while changed:
        changed = False
        for f in list(fns):
            for g in list(fns):
                h = tuple(g[f[i]] for i in range(npoints))
                if h not in fns:
                    fns.add(h)
                    changed = True
    elements = tuple("f" + "".join(map(str, f)) for f in sorted(fns))
    by_name = {e: f for e, f in zip(elements, sorted(fns))}
    mult = {}
    for a in elements:
        for b in elements:
            h = tuple(by_name[b][by_name[a][i]] for i in range(npoints))
            mult[(a, b)] = "f" + "".join(map(str, h))
    return elements, mult, "f" + "".join(map(str, range(npoints)))


def random_associative_algebra(ring, seed: int):
    """A random associative algebra of dimension <= 4 with a unit, drawn
    from families where associativity is structural."""
    rng = random.Random(seed)
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randrange(2, 5)
        return enrich.truncated_polynomial_algebra(ring, n)
    if kind == 1:
        n = rng.randrange(2, 5)
        els, mult, unit = cyclo.cyclic_group_table(n)
        return enrich.group_algebra(ring, els, mult, unit)
    if kind == 2:
        # upper-triangular 2x2 matrices, dim 3
        basis = ("E11", "E12", "E22")
        table = {}
        prods = {("E11", "E11"): "E11", ("E11", "E12"): "E12",
                 ("E12", "E22"): "E12", ("E22", "E22"): "E22"}
        for a in basis:
            for b in basis:
                table[(a, b)] = {prods[(a, b)]: 1} if (a, b) in prods else {}
        return enrich.algebra_from_table(ring, basis, table,
                                         {"E11": 1, "E22": 1})
    els, mult, unit = transformation_monoid(2, seed)
    if len(els) > 4:
        return enrich.monoid_algebra(ring, ("e",), {("e", "e"): "e"}, "e")
    return enrich.monoid_algebra(ring, els, mult, unit)


def small_category_pool():
    """Set-enriched categories with <= 3 objects and homs <= 3."""
    pool = [
        ("idem", fincat.walking_idempotent()),
        ("poset01", fincat.poset_category(("0", "1"), lambda a, b: a <= b)),
        ("discrete2", fincat.discrete_category(("x", "y"))),
        ("parallel", fincat.parallel_pair_category()),
        ("bz2", monoid_category(*cyclo.cyclic_group_table(2))),
        ("bz3", monoid_category(*cyclo.cyclic_group_table(3))),
        ("chain3", fincat.poset_category(("0", "1", "2"), lambda a, b: a <= b)),
    ]
    return pool


def random_segal_category(seed: int) -> FinCategory:
    rng = random.Random(seed)
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randrange(2, 4)
        objs = tuple(str(i) for i in range(n))
        return fincat.poset_category(objs, lambda a, b: a <= b)
    if kind == 1:
        els, mult, unit = transformation_monoid(2, seed)
        if len(els) > 3:
            els, mult, unit = cyclo.cyclic_group_table(rng.randrange(2, 4))
        return monoid_category(els, mult, unit)
    els, mult, unit = cyclo.cyclic_group_table(rng.randrange(1, 4))
    return monoid_category(els, mult, unit)


def small_manifold_pool(max_edges=4):
    """Disk-stratified test manifolds with <= max_edges edges."""
    pool = [
        ("D0", manifold.d0()),
        ("D1", manifold.d1()),
        ("S1*", manifold.pointed_circle()),
        ("<2>", indexing.standard_interval(2)),
        ("<3>", indexing.standard_interval(3)),
        ("<4>", indexing.standard_interval(4)),
        ("2cycle", manifold.cycle_graph(2)),
        ("D0+D1", manifold.disjoint_union(manifold.d0(), manifold.d1())),
        ("wedge", GraphManifold(("c", "l", "r"),
                                (("a", "l", "c"), ("b", "c", "r")))),
        ("multi", GraphManifold(("u", "w"),
                                (("p", "u", "w"), ("q", "u", "w")))),
    ]
    return [(n, m) for n, m in pool if len(m.edges) <= max_edges]


def enumerate_multigraphs(max_edges: int, max_vertices: int):
    """All directed multigraphs (as disk-stratified manifolds) with the given
    bounds, one representative per isomorphism class."""
    seen = set()
    out = []
    for v in range(0, max_vertices + 1):
        pairs = [(i, j) for i in range(v) for j in range(v)]
        for e in range(0, max_edges + 1):
            if e > 0 and v == 0:
                continue
            for multi in itertools.combinations_with_replacement(pairs, e):
                canon = None
                for perm in itertools.permutations(range(v)):
                    key = tuple(sorted((perm[i], perm[j]) for i, j in multi))
                    if canon is None or key < canon:
                        canon = key
                sig = (v, canon)
                if sig in seen:
                    continue
                seen.add(sig)
                verts = tuple(f"v{i}" for i in range(v))
                edges = [(f"e{k}", f"v{i}", f"v{j}")
                         for k, (i, j) in enumerate(multi)]
                out.append(GraphManifold(verts, edges))
    return out


def subdivisions(coarse: GraphManifold, max_extra: int):
    """All subdivisions of a circle-free manifold with at most max_extra
    added vertices, as RefinementDatum objects with a freshly built fine
    manifold."""
    edges = list(coarse.edges)
    out = []
    for split in itertools.product(range(max_extra + 1), repeat=len(edges)):
        if sum(split) > max_extra:
            continue
        verts = list(coarse.vertices)
        fes = []
        vi = {v: v for v in coarse.vertices}
        ef = {}
        for e, k in zip(edges, split):
            prev = e.src
            chain = []
            for i in range(k + 1):
                nxt = e.dst if i == k else f"{e.id}+{i}"
                if i < k:
                    verts.append(nxt)
                name = e.id if k == 0 else f"{e.id}/{i}"
                fes.append(Edge(name, prev, nxt))
                chain.append(name)
                prev = nxt
            ef[e.id] = tuple(chain)
        fine = GraphManifold(verts, fes)
        out.append(RefinementDatum(fine, coarse, vi, ef))
    return out


# -- suites -------------------------------------------------------------------------

def suite_colimits() -> dict:
    """Finite (co)limits of set diagrams against independent oracles: a
    fixpoint saturation for colimits, closed forms per shape for limits."""
    rep = Report("colimits")
    # each shape with its limit in closed form, as families aligned with the
    # sorted objects: a product; an equalizer; the values at the initial
    # object 0 of the chain, which fix the rest; the fixed points of a swap
    shapes = [
        (fincat.discrete_category(("a", "b")),
         lambda d: set(itertools.product(d.value("a"), d.value("b")))),
        (fincat.parallel_pair_category(),
         lambda d: {(x, d.map("d0")[x]) for x in d.value("a")
                    if d.map("d0")[x] == d.map("d1")[x]}),
        (fincat.poset_category(("0", "1", "2"), lambda a, b: a <= b),
         lambda d: {(x, d.map("0<=1")[x], d.map("0<=2")[x])
                    for x in d.value("0")}),
        (monoid_category(*cyclo.cyclic_group_table(2)),
         lambda d: {(x,) for x in d.value("*") if d.map("1")[x] == x}),
    ]
    rng = random.Random(7)
    for shape, closed_form in shapes:
        for trial in range(12):
            sizes = {x: rng.randrange(1, 5) for x in shape.objects}
            on_obj = {x: tuple(f"{x}{i}" for i in range(sizes[x]))
                      for x in shape.objects}
            on_mor = {}
            for m in shape.morphisms():
                s, t = shape.src(m), shape.tgt(m)
                if shape.is_identity(m):
                    on_mor[m] = {a: a for a in on_obj[s]}
                else:
                    on_mor[m] = {a: rng.choice(on_obj[t]) for a in on_obj[s]}
            diag = SetDiagram(shape, on_obj, on_mor)
            if diag.validate():
                continue
            classes, cocone = fincat.colimit_of_sets(diag)
            rep.check(len(classes) == fincat.brute_force_colimit_size(diag),
                      f"colimit size mismatch on {shape!r} trial {trial}")
            for m in shape.morphisms():
                s, t = shape.src(m), shape.tgt(m)
                ok = all(cocone[t][diag.map(m)[a]] == cocone[s][a]
                         for a in diag.value(s))
                rep.check(ok, f"cocone does not commute at {m}")
            elements, _ = fincat.limit_of_sets(diag)
            expected = closed_form(diag)
            rep.check(len(elements) == len(expected)
                      and set(elements) == expected,
                      f"limit mismatch on {shape!r} trial {trial}")
    # frozen small cases
    pair = fincat.parallel_pair_category()
    diag = SetDiagram(pair,
                      {"a": ("fg", "gf"), "b": ("f", "g")},
                      {"id_a": {"fg": "fg", "gf": "gf"},
                       "id_b": {"f": "f", "g": "g"},
                       "d0": {"fg": "g", "gf": "f"},
                       "d1": {"fg": "f", "gf": "g"}})
    classes, _ = fincat.colimit_of_sets(diag)
    rep.check(len(classes) == 1, "parallel-pair coequalizer should be a point")
    swap_shape = monoid_category(*cyclo.cyclic_group_table(2))
    diag = SetDiagram(swap_shape, {"*": ("x", "y")},
                      {"0": {"x": "x", "y": "y"}, "1": {"x": "y", "y": "x"}})
    classes, _ = fincat.colimit_of_sets(diag)
    rep.check(len(classes) == 1, "swap orbit quotient should be a point")
    elements, _ = fincat.limit_of_sets(diag)
    rep.check(len(elements) == 0, "free swap has no fixed points")
    return rep.as_dict()


def suite_segal() -> dict:
    """Codiscrete objects and nerves satisfy the Segal condition."""
    rep = Report("segal")
    for size in range(0, 4):
        vs = tuple(f"v{i}" for i in range(size))
        x = fincat.codiscrete(vs, 4)
        rep.check(not x.validate_identities(),
                  f"codiscrete({size}) breaks simplicial identities")
        for n in range(2, 5):
            rep.check(x.is_segal(n), f"codiscrete({size}) fails Segal at {n}")
        for n in range(0, 5):
            rep.check(len(x.level(n)) == size ** (n + 1),
                      f"codiscrete({size}) level {n} has wrong size")
    for name, cat in small_category_pool():
        nv = enrich.nerve(cat, 4)
        rep.check(not nv.validate_identities(),
                  f"nerve({name}) breaks simplicial identities")
        for n in range(2, 5):
            rep.check(nv.is_segal(n), f"nerve({name}) fails Segal at {n}")
    return rep.as_dict()


def _active_closed_pairs(m: int, n: int):
    """Every (active a : [m] -> [k], closed c : [k] -> [n]) pair, k <= n."""
    for k in range(n + 1):
        actives = [a for a in indexing.all_simplex_maps(m, k) if a.is_active()]
        for shift in range(n - k + 1):
            c = indexing.SimplexMap(k, n, tuple(range(shift, shift + k + 1)))
            for a in actives:
                yield a, c


def suite_delta() -> dict:
    """Exhaustive unique [active; closed] factorization in the simplex
    category for all maps with m, n <= 5, composing each pair once."""
    rep = Report("delta")
    for m in range(6):
        for n in range(6):
            counts = Counter(c.compose(a) for a, c in _active_closed_pairs(m, n))
            for f in indexing.all_simplex_maps(m, n):
                act, cls = indexing.delta_op_factorize(f)
                rep.check(act.is_active() and cls.is_closed()
                          and cls.compose(act) == f,
                          f"bad factorization of {f}")
                rep.check(counts[f] == 1, f"{counts[f]} factorizations of {f}")
    return rep.as_dict()


def suite_paracyclic() -> dict:
    """Integral-model identities for the paracyclic and cyclic categories."""
    rep = Report("paracyclic")
    rng = random.Random(11)
    def rand_op(m, n):
        v0 = rng.randrange(-4, 5)
        vals = sorted(rng.randrange(v0, v0 + n + 2) for _ in range(m))
        return indexing.ParacyclicOp(m, n, (v0, *[max(v0, v) for v in vals]))
    for _ in range(150):
        lv = [rng.randrange(0, 6) for _ in range(4)]
        f = rand_op(lv[0], lv[1])
        g = rand_op(lv[1], lv[2])
        h = rand_op(lv[2], lv[3])
        lhs = h.compose(g).compose(f)
        rhs = h.compose(g.compose(f))
        rep.check(lhs == rhs, f"associativity fails on {f},{g},{h}")
    for n in range(5):
        rep.check(indexing.central_shift_is_natural(n),
                  f"central shift not natural at level {n}")
        tau = indexing.rotation(n)
        power = indexing.rotation_power(n, n + 1)
        rep.check(power == indexing.central_shift(n),
                  f"tau^{n+1} is not the central shift at level {n}")
        rep.check(indexing.cyclic_reduce(power) == indexing.ParacyclicOp.identity(n),
                  f"tau^{n+1} nontrivial in the cyclic quotient at level {n}")
        rep.check(power != indexing.ParacyclicOp.identity(n) or n < 0,
                  f"tau^{n+1} should differ from id upstairs at level {n}")
    # simplicial identities embedded: delta_j delta_i = delta_i delta_{j-1}, i < j
    for n in range(1, 5):
        for j in range(n + 2):
            for i in range(j):
                di = indexing.ParacyclicOp.from_simplex(indexing.coface(n + 1, j))
                dj = indexing.ParacyclicOp.from_simplex(indexing.coface(n, i))
                lhs = di.compose(dj)
                rhs = indexing.ParacyclicOp.from_simplex(
                    indexing.coface(n + 1, i)).compose(
                    indexing.ParacyclicOp.from_simplex(indexing.coface(n, j - 1)))
                rep.check(lhs == rhs, f"cosimplicial identity fails {i},{j} at {n}")
    # cyclic quotient: reps with offset 0 exhaust the homs, shifts act freely
    for m in range(3):
        for n in range(3):
            reps = indexing.enumerate_paracyclic(m, n)
            rep.check(len(set(reps)) == len(reps), "duplicate cyclic reps")
            window = indexing.enumerate_paracyclic(m, n, offset_window=2)
            reduced = {indexing.cyclic_reduce(op).values for op in window}
            rep.check(reduced == {op.values for op in reps},
                      f"cyclic quotient not surjective at ({m},{n})")
            shifted = {op.shift(1).values for op in reps}
            rep.check(not (shifted & {op.values for op in reps}),
                      f"central shift has a fixed point at ({m},{n})")
    # subdivision operators
    for r in (1, 2, 3):
        cov = indexing.CoverOperator(r)
        for n in range(4):
            rep.check(cov.point_count(n) == r * (n + 1),
                      f"cover point count wrong at r={r}, n={n}")
        f = rand_op(2, 3)
        g = rand_op(3, 2)
        rep.check(cov.apply(g.compose(f)) == cov.apply(g).compose(cov.apply(f)),
                  f"subdivision not functorial at r={r}")
        tau = indexing.rotation(2)
        rep.check(cov.apply(tau) == indexing.rotation(cov.level(2)),
                  f"subdivision does not intertwine rotations at r={r}")
    return rep.as_dict()


def suite_spans() -> dict:
    """Functoriality of the strata functor on enumerated morphism pairs."""
    rep = Report("spans")
    pool = [m for _, m in small_manifold_pool(max_edges=2)]
    pool = [m for m in pool if len(m.edges) + len(m.vertices) <= 4]
    morphs = []
    for a in pool:
        for b in pool:
            for bm in all_bundle_maps(b, a):
                morphs.append(StratMorphism.from_closed_creation(bm))
            for ref in all_refinements(a, b):
                morphs.append(StratMorphism.from_refinement(ref))
    count = 0
    for m1 in morphs:
        for m2 in morphs:
            if m1.target != m2.source:
                continue
            count += 1
            comp = compose_morphisms(m1, m2)
            lhs = strata_span(comp)
            rhs = compose_spans(strata_span(m1), strata_span(m2))
            rep.check(spans_isomorphic(lhs, rhs),
                      f"strata functoriality fails: {m1} then {m2}")
            lhs_v = manifold.vertex_span(comp)
            rhs_v = compose_spans(manifold.vertex_span(m1),
                                  manifold.vertex_span(m2))
            rep.check(spans_isomorphic(lhs_v, rhs_v),
                      f"vertex functoriality fails: {m1} then {m2}")
    rep.check(count >= 100, f"only {count} composable pairs enumerated")
    # span composition is associative up to iso, identities neutral
    rng = random.Random(3)
    def rand_span(left, right):
        apex = [f"u{i}" for i in range(rng.randrange(0, 4))]
        return FinSpan(left, apex, right,
                       {u: rng.choice(left) for u in apex},
                       {u: rng.choice(right) for u in apex})
    sets = [tuple(f"s{i}" for i in range(k)) for k in (1, 2, 3)]
    for _ in range(60):
        s1, s2, s3, s4 = (rng.choice(sets) for _ in range(4))
        a, b, c = rand_span(s1, s2), rand_span(s2, s3), rand_span(s3, s4)
        rep.check(spans_isomorphic(compose_spans(compose_spans(a, b), c),
                                   compose_spans(a, compose_spans(b, c))),
                  "span composition not associative")
        rep.check(spans_isomorphic(compose_spans(FinSpan.identity(s1), a), a),
                  "left identity span fails")
        rep.check(spans_isomorphic(compose_spans(a, FinSpan.identity(s2)), a),
                  "right identity span fails")
    return rep.as_dict()


def suite_factorization() -> dict:
    """Closed-active factorization on manifold morphisms, and the free
    cocartesian construction."""
    rep = Report("factorization")
    pool = [m for _, m in small_manifold_pool(max_edges=3)]
    # build test morphisms as (closed-creation) then refinement composites
    tests = []
    for a in pool[:6]:
        for b in pool[:6]:
            if len(a.edges) > 2 or len(b.edges) > 2:
                continue
            for bm in all_bundle_maps(b, a)[:6]:
                cc = StratMorphism.from_closed_creation(bm)
                tests.append(cc)
                for n in pool[:6]:
                    if len(n.edges) > 2 or n is b:
                        continue
                    for ref in all_refinements(b, n)[:1]:
                        tests.append(compose_morphisms(
                            cc, StratMorphism.from_refinement(ref)))
    tests = tests[:40]
    for m in tests:
        closed, active = manifold.factor_closed_active(m)
        rep.check(classify_morphism(closed) in ("closed", "isomorphism"),
                  "left factor is not closed")
        rep.check(classify_morphism(active) in
                  ("active", "creation", "refinement", "isomorphism"),
                  "right factor is not active")
        recomposed = compose_morphisms(closed, active)
        rep.check(morphisms_agree(recomposed, m),
                  "closed-active factors do not recompose")
        # idempotence
        c2, a2 = manifold.factor_closed_active(closed)
        rep.check(morphisms_agree(c2, closed)
                  and classify_morphism(a2) == "isomorphism",
                  "factoring a closed morphism is not (m, id)")
        a3, act3 = manifold.factor_closed_active(active)
        rep.check(classify_morphism(a3) == "isomorphism"
                  and morphisms_agree(act3, active),
                  "factoring an active morphism is not (id, m)")
    # uniqueness by enumeration: the closed image is forced
    uniq_tests = [t for t in tests
                  if len(t.source.edges) <= 2 and len(t.target.edges) <= 2][:12]
    for m in uniq_tests:
        matches = set()
        source = m.source
        for nverts in range(len(source.vertices) + 1):
            for vsub in itertools.combinations(source.vertices, nverts):
                for esub in _subsets([e for e in source.edges
                                      if e.src in vsub and e.dst in vsub]):
                    sub = source.subgraph(vsub, [e.id for e in esub])
                    incl = BundleMap(sub, source,
                                     {v: v for v in sub.vertices},
                                     {e.id: e.id for e in sub.edges})
                    closed = StratMorphism.from_closed(incl)
                    if _exists_active_completion(closed, m):
                        matches.add((vsub, tuple(sorted(e.id for e in esub))))
        rep.check(len(matches) == 1,
                  f"{len(matches)} closed images admit an active completion")
    # creation-then-refinement composites classify as active
    composites = list(itertools.islice(
        (compose_morphisms(StratMorphism.from_creation(bm),
                           StratMorphism.from_refinement(ref))
         for coarse in pool[:4] for ref in subdivisions(coarse, 1)
         for a in pool[:4] for bm in all_bundle_maps(ref.fine, a)
         if bm.is_surjective()), 40))
    for comp in composites:
        rep.check(classify_morphism(comp) in
                  ("active", "creation", "refinement", "isomorphism"),
                  "creation then refinement is not active")
    rep.check(len(composites) >= 20,
              f"only {len(composites)} creation-refinement composites tested")
    # free cocartesian lifts on B = [1] and [2]
    for n in (1, 2):
        B = fincat.poset_category(tuple(str(i) for i in range(n + 1)),
                                  lambda a, b: a <= b)
        isos = frozenset(m for m in B.morphisms()
                         if B.inverse(m) is not None)
        everything = frozenset(B.morphisms())
        fs = fincat.FactorizationSystem(B, isos, everything)
        rep.check(not fs.validate(), f"[iso; all] invalid on [{n}]")
        E = fincat.discrete_category(("x",))
        p = fincat.Functor(E, B, {"x": "0"}, {"id_x": B.unit("0")})
        rep.check(not p.validate(), "fiber functor invalid")
        cat, proj, lift = fincat.free_cocart_second_factor(p, fs)
        rep.check(len(cat.objects) == n + 1,
                  f"free cocartesian over [{n}] has {len(cat.objects)} objects")
        rep.check(not proj.validate(), "projection is not a functor")
        for ob in [("x", m) for m in B.morphisms() if B.src(m) == "0"]:
            for psi in B.morphisms():
                if B.src(psi) != B.tgt(ob[1]):
                    continue
                src_name, tgt_name, mor_name, square = lift(ob, psi)
                rep.check(square["square_commutes"],
                          f"lift square fails at {ob} along {psi}")
                rep.check(mor_name in cat.hom(src_name, tgt_name),
                          f"lift of {psi} at {ob} is not a morphism")
        # second factorization system, with explicit lift data
        fs2 = fincat.FactorizationSystem(B, everything, isos)
        E2 = B
        p2 = fincat.Functor(E2, B, {x: x for x in B.objects},
                            {m: m for m in B.morphisms()})
        lift_data = {(x, u): u for x in B.objects for u in B.morphisms()
                     if B.src(u) == x}
        cat2, proj2, lift2 = fincat.free_cocart_second_factor(p2, fs2, lift_data)
        for x in B.objects:
            for psi in B.morphisms():
                if B.src(psi) != x:
                    continue
                _, _, _, square = lift2((x, B.unit(x)), psi)
                rep.check(square["square_commutes"],
                          f"[all; iso] lift square fails at {x} along {psi}")
    return rep.as_dict()


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _exists_active_completion(closed: StratMorphism, m: StratMorphism) -> bool:
    """Can the given closed morphism be completed by an active one to match
    m?  Bounded enumeration over subdivisions of the target and bundle maps."""
    a = closed.closed_part.total
    target = m.target
    for ref in subdivisions(target, 1):
        b = ref.fine
        if len(b.edges) > 3:
            continue
        for bm in all_bundle_maps(b, a):
            if not bm.is_surjective():
                continue
            candidate = StratMorphism(closed.closed_part, bm, ref)
            if morphisms_agree(candidate, m):
                return True
    return False


def corr_span_pairs():
    """The span pairs of `suite_corr`: every S <- U -> T and T <- V -> W up to
    apex iso, with |S|, |T|, |W| in 1..3 and |U|, |V| in 0..3.  Yields each
    first span a with the list of second spans that compose with it."""
    sizes = (1, 2, 3)
    def spans(s_size, t_size, apex_name):
        """Spans S <- U -> T up to apex iso: multisets of (s, t) pairs."""
        s, t = tuple(range(s_size)), tuple(range(t_size))
        pairs = list(itertools.product(s, t))
        for u_size in range(4):
            for multi in itertools.combinations_with_replacement(pairs, u_size):
                apex = tuple(apex_name(i) for i in range(u_size))
                yield FinSpan(s, apex, t,
                              {u: multi[i][0] for i, u in enumerate(apex)},
                              {u: multi[i][1] for i, u in enumerate(apex)})
    for t_size in sizes:
        out_of = [b for w_size in sizes
                  for b in spans(t_size, w_size, lambda i: f"v{i}")]
        for s_size in sizes:
            for a in spans(s_size, t_size, lambda i: i):
                yield a, out_of


def _corr_part(part, parts):
    """The index checks of one part of the corr suite's pairs: those whose
    first span a has its place i in `corr_span_pairs()` equal to part mod
    parts.  Returns [the number of pairs that pass, [[i, j, message], ...]]
    with j the place of the second span in a's list."""
    checked, failures = 0, []
    for i, (a, out_of) in itertools.islice(
            enumerate(corr_span_pairs()), part, None, parts):
        family = {s: tuple(range((s % 3) + 1)) for s in a.left}
        inner = enrich.corr_pushforward(a, family)
        for j, b in enumerate(out_of):
            try:
                enrich.corr_pushforward_index_check(a, b, family, inner=inner)
            except AssertionError as exc:
                failures.append([i, j, str(exc)])
                continue
            checked += 1
    return [checked, failures]


def _corr_pairs_checked(parts):
    """The corr suite's index checks, split into `parts` interleaved parts
    (see `_corr_part`) that `fanout.run_parts` spreads over processes.
    Returns the number of pairs that pass and the failure messages in pair
    order: the serial loop's, for any `parts`."""
    results = fanout.run_parts(_corr_part, parts)
    failures = sorted(f for _, found in results for f in found)
    return (sum(checked for checked, _ in results),
            [message for _, _, message in failures])


def suite_corr() -> dict:
    """Pushforward functoriality over the span category, and agreement with
    pointed-map monodromy."""
    rep = Report("corr")
    checked, rep.failures = _corr_pairs_checked(fanout.usable_cpus())
    rep.passed += checked
    rep.check(checked > 50000, f"only {checked} span pairs checked")
    # identity span is neutral on families
    family = {0: ("a", "b"), 1: ("c",)}
    ident = FinSpan.identity((0, 1))
    pf = enrich.corr_pushforward(ident, family)
    rep.check(all(len(pf[t]) == len(family[t]) for t in (0, 1)),
              "identity span changes cardinalities")
    # empty fiber gives the empty product
    span = FinSpan((0,), (), (9,), {}, {})
    pf = enrich.corr_pushforward(span, {0: ("a", "b")})
    rep.check(tuple(pf[9]) == ((),),
              "empty fiber should give the one-point product")
    # restriction along pointed maps agrees with direct monodromy
    rng = random.Random(5)
    for trial in range(200):
        left = tuple(range(rng.randrange(1, 4)))
        right = tuple(range(rng.randrange(1, 4)))
        pmap = {s: (rng.choice(right) if rng.random() < 0.7 else None)
                for s in left}
        family = {s: tuple(range(rng.randrange(1, 4))) for s in left}
        direct = enrich.pointed_pushforward(pmap, left, right, family)
        via_span = enrich.corr_pushforward(
            enrich.span_of_pointed_map(pmap, left, right), family)
        rep.check(direct == {t: tuple(pf) for t, pf in via_span.items()},
                  f"pointed monodromy disagrees with span route (trial {trial})")
    return rep.as_dict()


def suite_facthom() -> dict:
    """Disk evaluation: Segal values on intervals, and agreement of the
    enriched and cartesian routes."""
    rep = Report("facthom")
    for seed in range(10):
        cat = random_segal_category(seed)
        nv = enrich.nerve(cat, 5)
        for n in range(6):
            got = facthom.cart_facthom_disk(indexing.standard_interval(n), nv)
            rep.check(len(got) == len(nv.level(n)),
                      f"interval value differs from level {n} (seed {seed})")
    cats = small_category_pool()
    manis = small_manifold_pool(max_edges=4)
    for mname, m in manis:
        for cname, cat in cats:
            if len(m.edges) * len(tuple(cat.morphisms())) > 200:
                continue
            enr = facthom.enr_facthom_disk(m, cat)
            cart = facthom.cart_facthom_disk(m, enrich.nerve(cat, 1))
            rep.check(len(enr) == len(cart),
                      f"backend disagreement over {mname} with {cname}")
    return rep.as_dict()


def mixed_algebras():
    """(name, algebra, depth) over Z, Q and F_5, small enough to build the
    cyclic bar complex up to the depth."""
    algebras = [
        ("Q", enrich.ground_ring_algebra(QQ), 4),
        ("Q[Z/2]", enrich.group_algebra(QQ, *cyclo.cyclic_group_table(2)), 4),
        ("Z[Z/2]", enrich.group_algebra(ZZ, *cyclo.cyclic_group_table(2)), 4),
        ("F5[x]/x^2", enrich.truncated_polynomial_algebra(RingFp(5), 2), 4),
        ("M2(Q)", enrich.matrix_algebra(QQ, 2), 3),
    ]
    for seed in range(20):
        alg = random_associative_algebra(QQ, seed)
        if alg.dim("*", "*") <= 3:
            algebras.append((f"random{seed}", alg, 3))
    return algebras


def suite_mixed() -> dict:
    """Chain-level identities of the cyclic bar and normalized complexes."""
    rep = Report("mixed")
    for name, alg, depth in mixed_algebras():
        rep.check(not enrich.validate_linear_category(alg),
                  f"{name} is not associative/unital")
        failures = facthom.ChainComplexBundle(alg, depth).validate()
        rep.check(not failures, f"{name}: {failures}")
        # lambda^{n+1} = id with the sign convention folded in
        for n in range(depth + 1):
            cyclic = facthom.LinearCyclicLevel(alg, n).cyclic
            power = exactla.SparseMat.identity(cyclic.ncols)
            for _ in range(n + 1):
                power = cyclic.mul(power)
            rep.check(power == exactla.SparseMat.identity(cyclic.ncols),
                      f"{name}: signed cyclic operator has order != {n + 1}")
    return rep.as_dict()


def suite_trace() -> dict:
    """Trace-class structure: word rotation, rotation triviality, psi laws,
    loop census agreement, necklace counts."""
    rep = Report("trace")
    rng = random.Random(13)
    # S_3 last, so the seeded draws on the others do not change
    pool = [cat for _, cat in small_category_pool()]
    pool.append(cyclo.group_category(*cyclo.symmetric_group_table(3)))
    for cat in pool:
        table = facthom.thh_set_pi0(cat)
        # every rotation of a random composable cyclic word has one class
        morphs = list(cat.morphisms())
        for _ in range(40):
            length = rng.randrange(1, 6)
            start = rng.choice(cat.objects)
            word = []
            x = start
            dead = False
            for _ in range(length - 1):
                options = [m for m in morphs if cat.src(m) == x]
                if not options:
                    dead = True
                    break
                m = rng.choice(options)
                word.append(m)
                x = cat.tgt(m)
            closing = [m for m in morphs
                       if cat.src(m) == x and cat.tgt(m) == start]
            if dead or not closing:
                continue
            word.append(rng.choice(closing))
            rep.check(len({table.word_class(tuple(word[k:] + word[:k]))
                           for k in range(len(word))}) == 1,
                      "rotations of a cyclic word lie in different classes")
        # rotation triviality at levels 0 and 1
        bar = facthom.SetCyclicBar(cat, 1)
        for (xs, gs), (xs2, gs2) in bar.cyclic[1].items():
            a = cat.compose(gs[1], gs[0])
            b = cat.compose(gs2[1], gs2[0])
            rep.check(table.class_of(a) == table.class_of(b),
                      "level-1 rotation moves a trace class")
        # psi semigroup law
        for r in (1, 2, 3, 4):
            rep.check(cyclo.psi_well_defined(table, r),
                      f"psi_{r} not constant on classes")
        for r in (2, 3, 4):
            for s in (2, 3):
                if r * s > 4:
                    continue
                psi_r_map = cyclo.psi_r(table, r)
                psi_s_map = cyclo.psi_r(table, s)
                psi_rs = cyclo.psi_r(table, r * s)
                composed = {rep_: psi_r_map[psi_s_map[rep_]]
                            for rep_ in table.class_representatives()}
                rep.check(composed == psi_rs,
                          f"psi_{r} psi_{s} != psi_{r*s}")
        rep.check(cyclo.trace_lands_in_tc0(cat),
                  "trace image leaves the fixed classes")
    # one-object groupoids: classes = conjugacy classes, psi_r = power map
    for els, mult, unit in [cyclo.cyclic_group_table(4),
                            cyclo.symmetric_group_table(3),
                            cyclo.quaternion_group_table()]:
        cat = cyclo.group_category(els, mult, unit)
        table = facthom.thh_set_pi0(cat)
        brute = cyclo.conjugacy_classes(els, mult, unit)
        rep.check(len(table) == len(brute),
                  "trace classes differ from conjugacy classes")
        rep.check(sorted(table.classes()) == sorted(c[0] for c in brute),
                  "trace class partition differs from conjugacy partition")
        for r in (2, 3):
            psis = cyclo.psi_r(table, r)
            for g in els:
                power = g
                for _ in range(r - 1):
                    power = mult[(power, g)]
                rep.check(psis[table.class_of(g)] == table.class_of(power),
                          f"psi_{r} is not the {r}-th power on classes")
    # necklace counts for the bounded free monoid
    for m in (1, 2, 3):
        table = facthom.thh_set_pi0(cyclo.free_monoid_category(m, 6))
        by_len = cyclo.trace_classes_by_length(table)
        for n in range(1, 4):
            rep.check(by_len.get(n, 0) == cyclo.burnside_necklace_count(m, n),
                      f"length-{n} classes differ from necklaces ({m} letters)")
    return rep.as_dict()


SUITES = {
    "colimits": suite_colimits,
    "segal": suite_segal,
    "delta": suite_delta,
    "paracyclic": suite_paracyclic,
    "spans": suite_spans,
    "factorization": suite_factorization,
    "corr": suite_corr,
    "facthom": suite_facthom,
    "mixed": suite_mixed,
    "trace": suite_trace,
}


def run_suite(name: str) -> dict:
    if name == "all":
        return [SUITES[k]() for k in SUITES]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    return SUITES[name]()
