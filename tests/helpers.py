"""Constructions that only the tests use, kept out of the library: `src/`
holds what a verb, a suite, the public API or a labelled oracle reaches
(see `test_reachability.py`)."""

from fractions import Fraction

from strathom import checks
from strathom.cyclo import (cyclic_group_table, group_category,
                            symmetric_group_table)
from strathom.enrich import (LinearCategory, algebra_from_table,
                             group_algebra, linearize, matrix_algebra,
                             truncated_polynomial_algebra)
from strathom.exactla import QQ, RingFp
from strathom.fincat import FactorizationSystem, FinCategory, factorizations


def product_algebra(a: LinearCategory, b: LinearCategory) -> LinearCategory:
    """Product of two one-object algebras over the same ring."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    obj = "*"
    basis = [f"l.{i}" for i in a.hom(obj, obj)] + [f"r.{j}" for j in b.hom(obj, obj)]
    table = {}
    for i in a.hom(obj, obj):
        for j in a.hom(obj, obj):
            table[(f"l.{i}", f"l.{j}")] = {
                f"l.{k}": c for k, c in a.compose_basis(obj, obj, obj, i, j).items()}
    for i in b.hom(obj, obj):
        for j in b.hom(obj, obj):
            table[(f"r.{i}", f"r.{j}")] = {
                f"r.{k}": c for k, c in b.compose_basis(obj, obj, obj, i, j).items()}
    for i in a.hom(obj, obj):
        for j in b.hom(obj, obj):
            table[(f"l.{i}", f"r.{j}")] = {}
            table[(f"r.{j}", f"l.{i}")] = {}
    unit = {f"l.{k}": c for k, c in a.unit_vector(obj).items()}
    unit.update({f"r.{k}": c for k, c in b.unit_vector(obj).items()})
    return algebra_from_table(a.ring, basis, table, unit)


def separability_pool():
    """(name, algebra) pairs on which the trace-form certificate is tested:
    `checks.mixed_algebras()` (Z included), `random_associative_algebra`
    over Q and F_5 for seeds 0-59, Q[Z/n] and F_p[Z/n] for p not dividing
    n, Q[S_3], M_2 and M_3 over Q, the seven `small_category_pool`
    categories linearized over Q and F_5 (several objects among them), and
    the inputs that must not be certified: Q[x]/x^2, F_3[Z/3], F_2[Z/4],
    and M_2(F_2), which is separable with a zero trace form.  An algebra
    drawn twice (the random families repeat) is kept once, under its first
    name."""
    pool = [("Q[x]/x^2", truncated_polynomial_algebra(QQ, 2)),
            ("F_3[Z/3]", group_algebra(RingFp(3), *cyclic_group_table(3))),
            ("F_2[Z/4]", group_algebra(RingFp(2), *cyclic_group_table(4))),
            ("M_2(F_2)", matrix_algebra(RingFp(2), 2))]
    pool += [(name, alg) for name, alg, _ in checks.mixed_algebras()]
    for seed in range(60):
        for ring in (QQ, RingFp(5)):
            pool.append((f"random{seed}-{ring.name}",
                         checks.random_associative_algebra(ring, seed)))
    for n in range(1, 8):
        for ring in (QQ, RingFp(2), RingFp(3), RingFp(5), RingFp(7)):
            if getattr(ring, "p", 0) and n % ring.p == 0:
                continue
            pool.append((f"{ring.name}[Z/{n}]",
                         group_algebra(ring, *cyclic_group_table(n))))
    pool += [("Q[S_3]", linearize(group_category(*symmetric_group_table(3)),
                                  QQ)),
             ("M_2(Q)", matrix_algebra(QQ, 2)),
             ("M_3(Q)", matrix_algebra(QQ, 3))]
    for name, cat in checks.small_category_pool():
        pool += [(f"{name}-{ring.name}", linearize(cat, ring))
                 for ring in (QQ, RingFp(5))]
    seen, out = set(), []
    for name, alg in pool:
        key = repr(alg.to_json_dict())
        if key not in seen:
            seen.add(key)
            out.append((name, alg))
    return out


def connected_groupoid(elements, mult, unit, objects) -> FinCategory:
    """The connected groupoid on `objects` with every automorphism group
    the group (elements, mult, unit): a morphism a -> b is a pair (g, a,
    b), named "g:ab", and (h, b, c)∘(g, a, b) = (g·h, a, c), g·h =
    mult[(g, h)] read "g then h" as in `monoid_category`."""
    homs = {(a, b): tuple(f"{g}:{a}{b}" for g in elements)
            for a in objects for b in objects}
    compose = {(f"{h}:{b}{c}", f"{g}:{a}{b}"): f"{mult[(g, h)]}:{a}{c}"
               for a in objects for b in objects for c in objects
               for g in elements for h in elements}
    return FinCategory(objects, homs, compose,
                       {a: f"{unit}:{a}{a}" for a in objects})


def rescaled(alg: LinearCategory, scale) -> LinearCategory:
    """`alg` with each basis element b of each hom standing for scale[b]·b,
    scale[b] invertible in the ring: the same algebra in another basis."""
    def vector(vec, factor):
        return alg.ring.reduce({k: Fraction(v * factor, scale[k])
                                for k, v in vec.items()})
    sc = {key: {(i, j): vector(vec, scale[i] * scale[j])
                for (i, j), vec in table.items()}
          for key, table in alg.sc.items()}
    return LinearCategory(alg.ring, alg.objects, alg.hom_basis, sc,
                          {x: vector(vec, 1) for x, vec in alg.units.items()})


def zero_algebra(ring) -> LinearCategory:
    """The zero-dimensional algebra (empty basis)."""
    return LinearCategory(ring, ("*",), {("*", "*"): ()}, {}, {"*": {}})


def factorization_unique_up_to_iso(fs: FactorizationSystem, f) -> bool:
    """Check that any two factorizations of f differ by a unique mediating iso."""
    cat = fs.category
    found = factorizations(fs, f)
    if not found:
        return False
    l0, r0 = found[0]
    for l1, r1 in found[1:]:
        mids = [w for w in cat.hom(cat.tgt(l0), cat.tgt(l1))
                if cat.inverse(w) is not None
                and cat.compose(w, l0) == l1 and cat.compose(r1, w) == r0]
        if len(mids) != 1:
            return False
    return True
