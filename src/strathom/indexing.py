"""Simplicial, paracyclic, cyclic and epicyclic indexing combinatorics.

Paracyclic operators use the integral model: a morphism from level m to
level n is a monotone map f : Z -> Z with f(i + m + 1) = f(i) + n + 1,
stored by its values on {0, ..., m}.  The cyclic quotient identifies f with
its shifts by multiples of n + 1.  The subdivision (epicyclic) operators act
by reinterpreting the same integral map at covered levels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .manifold import GraphManifold, blowup, d0


# -- the simplex category ----------------------------------------------------

@dataclass(frozen=True)
class _MonotoneMap:
    """A monotone map from level m to level n, by its values on 0..m.
    Each subclass adds a check and the `__call__` that `compose` reads;
    equality is by class: no simplex map equals its paracyclic image."""

    m: int
    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.m + 1:
            raise ValueError("value tuple has wrong length")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("map is not monotone")

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(range(n + 1)))

    def compose(self, other):
        """self ∘ other, with other applied first."""
        if other.n != self.m:
            raise ValueError("levels do not match")
        return type(self)(other.m, self.n, tuple(map(self, other.values)))


class SimplexMap(_MonotoneMap):
    """A monotone map [m] -> [n], by its value tuple."""

    def __post_init__(self):
        super().__post_init__()
        if any(v < 0 or v > self.n for v in self.values):
            raise ValueError("values out of range")

    def __call__(self, i):
        return self.values[i]

    def is_active(self) -> bool:
        """Surjective on endpoints."""
        return self.values[0] == 0 and self.values[-1] == self.n

    def is_closed(self) -> bool:
        """An interval inclusion i -> i + k."""
        return all(self.values[i] == self.values[0] + i for i in range(self.m + 1))


def coface(n, i) -> SimplexMap:
    """delta_i : [n-1] -> [n], skipping i."""
    return SimplexMap(n - 1, n, tuple(j if j < i else j + 1 for j in range(n)))


def codegeneracy(n, i) -> SimplexMap:
    """sigma_i : [n+1] -> [n], repeating i."""
    return SimplexMap(n + 1, n, tuple(j if j <= i else j - 1 for j in range(n + 2)))


def all_simplex_maps(m, n):
    return [SimplexMap(m, n, vs)
            for vs in itertools.combinations_with_replacement(range(n + 1), m + 1)]


def delta_op_factorize(f: SimplexMap):
    """The unique [active; closed] factorization in the simplex category:
    f = (shift by f(0)) ∘ (endpoint-surjective part)."""
    k = f.values[0]
    top = f.values[-1] - k
    active = SimplexMap(f.m, top, tuple(v - k for v in f.values))
    closed = SimplexMap(top, f.n, tuple(range(k, k + top + 1)))
    return active, closed


# -- paracyclic operators -----------------------------------------------------

class ParacyclicOp(_MonotoneMap):
    """An equivariant monotone map between paracyclic levels."""

    def __post_init__(self):
        super().__post_init__()
        if self.values[-1] > self.values[0] + self.n + 1:
            raise ValueError("map breaks equivariant monotonicity")

    def __call__(self, i):
        period = self.m + 1
        j = i % period
        k = (i - j) // period
        return self.values[j] + k * (self.n + 1)

    @classmethod
    def from_simplex(cls, f: SimplexMap) -> "ParacyclicOp":
        return cls(f.m, f.n, f.values)

    def shift(self, k) -> "ParacyclicOp":
        """Compose with the central element to the k-th power."""
        return ParacyclicOp(self.m, self.n,
                            tuple(v + k * (self.n + 1) for v in self.values))

    def offset(self) -> int:
        """Floor of f(0) / (n+1): which fundamental window f(0) sits in."""
        return self.values[0] // (self.n + 1)


def rotation(n) -> ParacyclicOp:
    """tau_n : i -> i + 1 at level n."""
    return ParacyclicOp(n, n, tuple(range(1, n + 2)))


def cyclic_reduce(op: ParacyclicOp) -> ParacyclicOp:
    """The representative with f(0) in {0, ..., n}: the image in the cyclic
    quotient, where the central shifts act trivially."""
    return op.shift(-op.offset())


def cyclic_equal(a: ParacyclicOp, b: ParacyclicOp) -> bool:
    return (a.m, a.n) == (b.m, b.n) and cyclic_reduce(a) == cyclic_reduce(b)


def enumerate_paracyclic(m, n, offset_window=1):
    """All operators level m -> level n with f(0) in the given window of
    fundamental domains; the full hom set is the free orbit of the window-0
    slice under central shifts, which represents the cyclic quotient."""
    out = []
    for v0 in range((offset_window) * (n + 1)):
        for rest in itertools.combinations_with_replacement(
                range(v0, v0 + n + 2), m):
            out.append(ParacyclicOp(m, n, (v0,) + rest))
    return out


def central_shift(n, k=1) -> ParacyclicOp:
    """t_n^k = tau_n^{k(n+1)}, the central elements of the paracyclic tower."""
    return ParacyclicOp.identity(n).shift(k)


def rotation_power(n, k) -> ParacyclicOp:
    out = ParacyclicOp.identity(n)
    tau = rotation(n)
    for _ in range(k):
        out = tau.compose(out)
    return out


def central_shift_is_natural(n: int) -> bool:
    """The shifts t = tau^{level+1} commute with every generator touching
    level n: t∘g = g∘t for rotation, cofaces and codegeneracies."""
    t_n = central_shift(n)
    checks = [t_n.compose(rotation(n)) == rotation(n).compose(t_n)]
    if n >= 1:
        for i in range(n + 1):
            d = ParacyclicOp.from_simplex(coface(n, i))
            checks.append(t_n.compose(d) == d.compose(central_shift(n - 1)))
    for i in range(n + 1):
        s = ParacyclicOp.from_simplex(codegeneracy(n, i))
        checks.append(t_n.compose(s) == s.compose(central_shift(n + 1)))
    return all(checks)


# -- epicyclic / subdivision operators ----------------------------------------

@dataclass(frozen=True)
class CoverOperator:
    """The degree-r subdivision: level n (n+1 marked points) goes to the
    level of the r-fold cover, with r(n+1) marked points.  On operators it
    reinterprets the same integral map at the covered levels."""

    r: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("cover degree must be >= 1")

    def level(self, n) -> int:
        return self.r * (n + 1) - 1

    def point_count(self, n) -> int:
        return self.level(n) + 1

    def apply(self, op: ParacyclicOp) -> ParacyclicOp:
        M, N = self.level(op.m), self.level(op.n)
        return ParacyclicOp(M, N, tuple(op(i) for i in range(M + 1)))

    def compose(self, other: "CoverOperator") -> "CoverOperator":
        return CoverOperator(self.r * other.r)


# -- disk-refinement categories ------------------------------------------------

POINT = "point"
SIMPLEX = "simplex"
PARACYCLIC = "paracyclic"


@dataclass(frozen=True)
class RefinementCategoryDescriptor:
    """The product decomposition of a disk-refinement category, one factor
    per component of the total blowup.  With no paracyclic factor the
    manifold is disk-stratified and is itself the terminal object."""

    factors: tuple
    manifold: GraphManifold


def disk_refinement_category(m: GraphManifold) -> RefinementCategoryDescriptor:
    bl, _ = blowup(m)
    factors = []
    for verts, edges in bl.graph_components():
        factors.append(SIMPLEX if edges else POINT)
    factors.extend([PARACYCLIC] * bl.circles)
    return RefinementCategoryDescriptor(tuple(factors), m)


def standard_interval(n: int) -> GraphManifold:
    """The closed interval with n edges and n+1 vertices; n = 0 is the point."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return d0()
    vs = [f"v{i}" for i in range(n + 1)]
    es = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(n)]
    return GraphManifold(vs, es)
