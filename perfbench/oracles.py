"""Independent computations and required properties that the benchmark
checks the program's outputs against.

Closed forms: Burghelea's decomposition for group algebras of cyclic
groups, the Hochschild homology of truncated polynomial rings, Morita
invariance, and the number of span pairs the corr suite must visit.
Cross-checks: universal coefficients between Z and F_p, HH_0 against the
commutator quotient, trace classes against conjugacy classes, repetition
operators against the power map, and trace classes of free monoids against
Burnside's necklace count.  Each `*_check` returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import functools
import math


def algebra(family, m, ring):
    """The group algebra of Z/m ("group") or k[x]/(x^m) ("poly")."""
    from strathom import cyclo, enrich
    if family == "group":
        return enrich.group_algebra(ring, *cyclo.cyclic_group_table(m))
    return enrich.truncated_polynomial_algebra(ring, m)


def _primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def _groups(parsed, verb, ring, top):
    """The (rank, torsion) list of a homology output, or a problem string."""
    if parsed.get("verb") != verb or parsed.get("ring") != ring:
        return f"expected verb {verb} over {ring}, got {parsed.get('verb')} over {parsed.get('ring')}"
    groups = parsed.get("groups")
    if not isinstance(groups, list) or [g.get("degree") for g in groups] != list(range(top + 1)):
        return f"expected degrees 0..{top}"
    return [(g["rank"], list(g["torsion"])) for g in groups]


def _compare(label, got, expected):
    return [f"{label} degree {n}: got {g}, expected {e}"
            for n, (g, e) in enumerate(zip(got, expected)) if g != e]


# -- over Z -------------------------------------------------------------------------

def integral_closed_form(family, m, top):
    """HH_n over Z.  Burghelea for Z[Z/m]: Z^m, then (Z/m)^m in odd and 0 in
    positive even degrees.  Z[x]/(x^m): Z^m, then Z^(m-1) + Z/m in odd and
    Z^(m-1) in positive even degrees."""
    out = []
    for n in range(top + 1):
        if n == 0:
            out.append((m, []))
        elif family == "group":
            out.append((0, [m] * m if n % 2 else []))
        else:
            out.append((m - 1, [m] if n % 2 else []))
    return out


def universal_coefficients(groups, p):
    """dim over F_p of H_n(C ⊗ F_p) from the invariants of H_*(C) over Z:
    rank H_n + #{p | d in tors H_n} + #{p | d in tors H_(n-1)}."""
    out = []
    for n, (rank, torsion) in enumerate(groups):
        below = groups[n - 1][1] if n else []
        out.append(rank + sum(d % p == 0 for d in torsion)
                   + sum(d % p == 0 for d in below))
    return out


def _field_dims(verb, family, m, p, top):
    from strathom import facthom
    from strathom.exactla import RingFp
    alg = algebra(family, m, RingFp(p))
    fn = facthom.hochschild_homology if verb == "hh" else facthom.cyclic_homology
    return [g["rank"] for g in fn(alg, top)]


def integral_homology_check(verb, family, m, top):
    """hh or hc over Z: the closed form for hh, and universal coefficients
    against the same computation over F_p for every prime p dividing m or a
    torsion factor."""
    def check(parsed):
        groups = _groups(parsed, verb, "Z", top)
        if isinstance(groups, str):
            return [groups]
        problems = []
        if verb == "hh":
            problems += _compare(f"hh Z {family} {m}", groups,
                                 integral_closed_form(family, m, top))
        primes = set(_primes(m))
        for _, torsion in groups:
            for d in torsion:
                primes.update(_primes(d))
        for p in sorted(primes):
            got = _field_dims(verb, family, m, p, top)
            problems += _compare(f"{verb} F_{p} {family} {m} vs Z", got,
                                 universal_coefficients(groups, p))
        return problems
    return check


# -- over fields --------------------------------------------------------------------

def _group_homology_dim(j, d, p):
    """dim H_j(Z/d; k) over a field of characteristic p (0 for Q)."""
    return 1 if j == 0 or (p and d % p == 0) else 0


def field_closed_form(verb, family, m, p, top):
    """Dimensions over a field of characteristic p (0 for Q).

    Burghelea for k[Z/m]: HH_n = sum over g of H_n(Z/m; k), and
    HC_n = sum over g of (H_*(Z/m / <g>; k) ⊗ HC_*(k))_n, where
    Z/m / <g> = Z/gcd(g, m) and HC_*(k) is k in each even degree.
    k[x]/(x^m): dimension m in degree 0, then m - 1, or m when p divides m
    (universal coefficients from the closed form over Z)."""
    out = []
    for n in range(top + 1):
        if family == "poly":
            out.append(m if n == 0 or (p and m % p == 0) else m - 1)
        elif verb == "hh":
            out.append(m * _group_homology_dim(n, m, p))
        else:
            out.append(sum(_group_homology_dim(j, math.gcd(g, m), p)
                           for g in range(m) for j in range(n % 2, n + 1, 2)))
    return out


def field_homology_check(verb, family, m, p, top):
    ring = f"Fp:{p}" if p else "Q"

    def check(parsed):
        groups = _groups(parsed, verb, ring, top)
        if isinstance(groups, str):
            return [groups]
        expected = [(d, []) for d in field_closed_form(verb, family, m, p, top)]
        return _compare(f"{verb} {ring} {family} {m}", groups, expected)
    return check


def morita_check(verb, top):
    """HH(M_2(Q)) = HH(Q), Q in degree 0; HC(M_2(Q)) = HC(Q), Q in each
    even degree."""
    def check(parsed):
        groups = _groups(parsed, verb, "Q", top)
        if isinstance(groups, str):
            return [groups]
        expected = [(1 if n == 0 or (verb == "hc" and n % 2 == 0) else 0, [])
                    for n in range(top + 1)]
        return _compare(f"{verb} Q M_2", groups, expected)
    return check


def separable_negative_check(hh0, top):
    """For a separable Q-algebra HH is HH_0 in degree 0, so the truncated
    negative cyclic homology is HH_0 in degree 0, 0 above, and exact."""
    def check(parsed):
        if parsed.get("mode") != "negative":
            return ["expected mode negative"]
        groups = _groups(parsed, "hc", "Q", top)
        if isinstance(groups, str):
            return [groups]
        problems = _compare("hc --negative", groups,
                            [(hh0 if n == 0 else 0, []) for n in range(top + 1)])
        if parsed.get("hh_vanishes_above") != 0 or parsed.get("exact") is not True:
            problems.append("expected hh_vanishes_above 0 and exact true, got "
                            f"{parsed.get('hh_vanishes_above')} and {parsed.get('exact')}")
        return problems
    return check


def commutator_check(alg, top):
    """HH_0 = A / [A, A], by `enrich.commutator_cokernel_invariants`."""
    def check(parsed):
        from strathom import enrich
        groups = _groups(parsed, "hh", alg.ring.name, top)
        if isinstance(groups, str):
            return [groups]
        rank, torsion = enrich.commutator_cokernel_invariants(alg)
        return _compare("hh_0 vs A/[A,A]", groups[:1], [(rank, list(torsion))])
    return check


# -- span pushforwards --------------------------------------------------------------

SUITE_CORR_EXTRA_CHECKS = 203  # identity span, empty fiber, 200 pointed maps, count


def _span_count(s, t):
    """Spans S <- U -> T up to apex iso with |U| <= 3: multisets of pairs."""
    return sum(math.comb(s * t + k - 1, k) for k in range(4))


def corr_pair_count(t_sizes=(1, 2, 3)):
    sizes = (1, 2, 3)
    return sum(sum(_span_count(s, t) for s in sizes)
               * sum(_span_count(t, w) for w in sizes) for t in t_sizes)


def corr_suite_check(parsed):
    problems = []
    expected = corr_pair_count() + SUITE_CORR_EXTRA_CHECKS
    if parsed.get("verb") != "check" or parsed.get("suite") != "corr":
        problems.append("expected the corr suite's report")
    if parsed.get("passed") != expected:
        problems.append(f"passed {parsed.get('passed')}, expected {expected}")
    if parsed.get("failed") != 0:
        problems.append(f"failed {parsed.get('failed')}, expected 0")
    return problems


def corr_slice_run():
    """The corr suite's index checks on the span pairs through |T| = 1."""
    from strathom import checks, enrich
    count = 0
    for a, out_of in checks.corr_span_pairs():
        if len(a.right) != 1:
            break
        family = {s: tuple(range((s % 3) + 1)) for s in a.left}
        inner = enrich.corr_pushforward(a, family)
        for b in out_of:
            enrich.corr_pushforward_index_check(a, b, family, inner=inner)
            count += 1
    return count


def corr_slice_check(count):
    expected = corr_pair_count((1,))
    return [] if count == expected else [f"{count} pairs, expected {expected}"]


# -- Set-enriched verbs -------------------------------------------------------------

class GroupOracle:
    """Trace classes, repetition operators and the trace of a finite group,
    from its multiplication table; computed when first checked."""

    def __init__(self, elements, mult, unit, degrees=(2, 3)):
        self.elements, self.mult, self.unit = elements, mult, unit
        self.degrees = list(degrees)

    @functools.cached_property
    def classes(self):
        from strathom import cyclo
        return [frozenset(orbit) for orbit, _ in
                cyclo.conjugacy_classes(self.elements, self.mult, self.unit)]

    @functools.cached_property
    def fixed(self):
        class_of = {g: c for c in self.classes for g in c}
        return {min(c) for c in self.classes
                if all(class_of[self.power(min(c), r)] is c for r in self.degrees)}

    def power(self, g, r):
        out = g
        for _ in range(r - 1):
            out = self.mult[(out, g)]
        return out

    def check_thh(self, parsed):
        blocks = parsed.get("classes", [])
        got = [frozenset(b["members"]) for b in blocks]
        problems = []
        if len(got) != len(self.classes) or set(got) != set(self.classes):
            problems.append(f"{len(got)} trace classes do not match "
                            f"{len(self.classes)} conjugacy classes")
        if any(b["rep"] != min(b["members"]) for b in blocks):
            problems.append("a class is not led by its least member")
        return problems

    def check_tc0(self, parsed):
        problems = []
        fixed = parsed.get("tc0", [])
        if parsed.get("degrees") != self.degrees:
            problems.append(f"degrees {parsed.get('degrees')}")
        if len(fixed) != len(set(fixed)) or set(fixed) != self.fixed:
            problems.append(f"tc0 {sorted(fixed)} is not the power-map fixed "
                            f"set {sorted(self.fixed)}")
        if not set(parsed.get("trace", {}).values()) <= set(fixed):
            problems.append("the trace does not land in tc0")
        return problems

    def check_trace(self, parsed):
        trace = parsed.get("trace")
        if trace != {"*": self.unit} or self.unit not in self.fixed:
            return [f"trace {trace}, expected the identity class {self.unit}"]
        return []


def facthom_check(group, edges, circles):
    """|FH| over a graph with `edges` edges and `circles` circles: n^edges
    times k^circles, for a group with n elements and k conjugacy classes."""
    def check(parsed):
        expected = len(group.elements) ** edges * len(group.classes) ** circles
        if parsed.get("backend") != "set" or parsed.get("cardinality") != expected:
            return [f"cardinality {parsed.get('cardinality')}, expected {expected}"]
        return []
    return check


MAX_ELEMENTS = 10**5


def random_manifold(rng, n):
    """A stratified 1-manifold with at least one edge, on 1 to 3 vertices,
    whose factorization homology with a one-object category of n morphisms
    has at most MAX_ELEMENTS elements (a circle contributes at most n).
    Returns (manifold, edges, circles)."""
    from strathom.manifold import GraphManifold
    shapes = [(e, c) for e in range(1, 4) for c in range(4)
              if n ** (e + c) <= MAX_ELEMENTS]
    edges, circles = rng.choice(shapes)
    verts = [f"v{i}" for i in range(rng.randint(1, 3))]
    es = [(f"e{i}", rng.choice(verts), rng.choice(verts)) for i in range(edges)]
    return GraphManifold(verts, es, circles), edges, circles


def free_monoid_run(letters, bound):
    from strathom import cyclo, facthom
    cat = cyclo.free_monoid_category(letters, bound)
    by_length = cyclo.trace_classes_by_length(facthom.thh_set_pi0(cat))
    return len(cat.compose_table), sorted(by_length.items())


def free_monoid_check(value, letters, bound):
    """Composites of words u, v with |u| + |v| <= bound, and trace classes
    of length n against Burnside's count of necklaces."""
    from strathom import cyclo
    entries, by_length = value
    problems = []
    expected = sum((s + 1) * letters ** s for s in range(bound + 1))
    if entries != expected:
        problems.append(f"{entries} composites, expected {expected}")
    necklaces = [(n, cyclo.burnside_necklace_count(letters, n))
                 for n in range(bound + 1)]
    if list(map(tuple, by_length)) != necklaces:
        problems.append(f"classes by length {by_length}, expected {necklaces}")
    return problems
