"""Exact linear algebra over Z, Q and prime fields.

This is the arithmetic core behind the chain-complex engines.  Everything is
exact: integers are arbitrary-precision, rationals are `fractions.Fraction`,
and F_p elements are ints.  No floating point anywhere.

Coefficient arithmetic runs on these plain numbers with `+ - *`; over F_p
they are left unreduced while a vector is being built.  A `Ring` only
normalizes: in `parse` and `show`, on entry to rank and Smith form, and in
`Ring.reduce`, which normalizes a finished vector and drops its zeros.

Matrices are sparse dict-of-rows.  Rank and Smith form share one
elimination core (`_Core`), which also indexes the rows of each column, so a
step touches only nonzeros.  It first clears unit pivots (every nonzero
entry over F_p, +-1 over Z), sparsest row first and within it the sparsest
column; over Z each is an invariant factor 1 (Dumas-Saunders-Villard,
"On efficient sparse integer matrix Smith normal forms", JSC 2001).  Over
Z, and over Q after scaling each row to coprime integers, what is left goes
to least-absolute-value Smith reduction with the divisibility fix; its
number of factors completes the rank.  Ranks and invariant factors do not
depend on the pivot order, and ties break by index, so runs are
deterministic.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class Ring:
    """Base coefficient ring.  Subclasses fix the element representation."""

    name = "?"
    is_field = False

    def normalize(self, x):
        raise NotImplementedError

    def is_zero(self, a):
        return self.normalize(a) == 0

    def reduce(self, vec: dict) -> dict:
        """A finished vector with its coefficients normalized and its zeros
        dropped."""
        return {k: w for k, v in vec.items() if (w := self.normalize(v)) != 0}

    def parse(self, s):
        """Parse a serialized scalar; integers as "n", rationals as "p/q"."""
        num, slash, den = str(s).strip().partition("/")
        try:
            return self.normalize(Fraction(int(num), int(den) if slash else 1))
        except ZeroDivisionError as exc:
            raise ValueError(f"bad scalar {s!r}: {exc}") from exc

    def show(self, x) -> str:
        x = self.normalize(x)
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return str(int(x))

    def __repr__(self):
        return f"Ring({self.name})"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class RingZ(Ring):
    name = "Z"
    is_field = False

    def normalize(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return int(x)
        return int(x)


class RingQ(Ring):
    name = "Q"
    is_field = True

    def normalize(self, x):
        return Fraction(x)


class RingFp(Ring):
    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def normalize(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator % self.p) * pow(den, -1, self.p) % self.p
        return int(x) % self.p


ZZ = RingZ()
QQ = RingQ()


def ring_from_name(name: str) -> Ring:
    """Resolve "Z", "Q" or "Fp:<p>" to a ring instance."""
    name = name.strip()
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return RingFp(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown ring {name!r}")


class SparseMat:
    """A sparse matrix: ``rows[i]`` maps column index to a nonzero entry.

    Acts on column vectors, so a map C_n -> C_m is an m x n matrix.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)] if rows is None else rows

    @classmethod
    def from_dense(cls, ring: Ring, data) -> "SparseMat":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = cls(nrows, ncols)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                v = ring.normalize(v)
                if v != 0:
                    m.rows[i][j] = v
        return m

    @classmethod
    def from_columns(cls, nrows: int, columns) -> "SparseMat":
        """Build from an iterable of columns, each a dict row->value."""
        columns = list(columns)
        m = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v != 0:
                    m.rows[i][j] = v
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseMat":
        m = cls(n, n)
        for i in range(n):
            m.rows[i][i] = 1
        return m

    def to_dense(self):
        return [[self.rows[i].get(j, 0) for j in range(self.ncols)]
                for i in range(self.nrows)]

    def clone(self) -> "SparseMat":
        return SparseMat(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def is_zero(self) -> bool:
        return all(not r for r in self.rows)

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, SparseMat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"SparseMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    def add(self, other: "SparseMat") -> "SparseMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.clone()
        for i, r in enumerate(other.rows):
            row = out.rows[i]
            for j, v in r.items():
                w = row.get(j, 0) + v
                if w == 0:
                    row.pop(j, None)
                else:
                    row[j] = w
        return out

    def mul(self, other: "SparseMat") -> "SparseMat":
        """Matrix product self @ other."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = SparseMat(self.nrows, other.ncols)
        for i, r in enumerate(self.rows):
            acc = out.rows[i]
            for k, v in r.items():
                for j, w in other.rows[k].items():
                    s = acc.get(j, 0) + v * w
                    if s == 0:
                        acc.pop(j, None)
                    else:
                        acc[j] = s
        return out

    def _integer_rows(self):
        """Rows scaled to integer entries with content 1 (rank is
        scaling-invariant).  Entries are ints or `Fraction`s, and both have
        a numerator and a denominator."""
        rows = []
        for r in self.rows:
            scale = math.lcm(*(v.denominator for v in r.values()))
            row = {j: v.numerator * (scale // v.denominator)
                   for j, v in r.items()}
            g = math.gcd(*row.values())
            rows.append({j: v // g for j, v in row.items()} if g > 1 else row)
        return rows

    def rank(self, ring: Ring) -> int:
        """Rank over the fraction field of `ring` (for Fp, over Fp itself)."""
        if isinstance(ring, RingFp):
            p = ring.p
            core = _Core([{j: w for j, v in r.items() if (w := v % p)}
                          for r in self.rows], p)
            return core.clear_units()
        core = _Core(self._integer_rows())
        return core.clear_units() + len(core.smith())


class _Core:
    """The elimination core: rows as dicts plus a column -> rows index, so
    an elimination step touches only nonzeros.  Entries are ints, reduced
    mod `p` when p is a prime (p = 0 means over Z)."""

    __slots__ = ("rows", "cols", "p")

    def __init__(self, rows, p=0):
        self.rows = rows
        self.p = p
        self.cols = {}
        for i, row in enumerate(rows):
            for j in row:
                self.cols.setdefault(j, set()).add(i)

    def row_op(self, i, k, f):
        """row_i -= f * row_k, for f != 0."""
        row, cols, p = self.rows[i], self.cols, self.p
        for j, v in self.rows[k].items():
            w = row.get(j, 0) - f * v
            if p:
                w %= p
            if w:
                if j not in row:
                    cols[j].add(i)
                row[j] = w
            else:
                del row[j]
                cols[j].discard(i)

    def drop_row(self, i):
        for j in self.rows[i]:
            self.cols[j].discard(i)
        self.rows[i] = {}

    def clear_units(self) -> int:
        """Eliminate unit pivots (every nonzero entry mod p, else +-1),
        sparsest row first and within it the sparsest column; returns their
        number.  Once a unit has cleared its column, its row and column
        leave the matrix: what is left is the Schur complement."""
        rows, cols, p = self.rows, self.cols, self.p
        heap = [(len(row), i) for i, row in enumerate(rows) if row]
        heapq.heapify(heap)
        waiting = set()  # rows seen without a unit and unchanged since
        count = 0
        while heap:
            n, r = heapq.heappop(heap)
            prow = rows[r]
            if not prow or n != len(prow) or r in waiting:
                continue
            units = [j for j, v in prow.items() if p or v == 1 or v == -1]
            if not units:
                waiting.add(r)
                continue
            c = min(units, key=lambda j: (len(cols[j]), j))
            inv = pow(prow[c], -1, p) if p else prow[c]
            for i in [i for i in cols[c] if i != r]:
                self.row_op(i, r, rows[i][c] * inv % p if p else rows[i][c] * inv)
                waiting.discard(i)
                heapq.heappush(heap, (len(rows[i]), i))
            self.drop_row(r)
            count += 1
        return count

    def smith(self) -> list:
        """Invariant factors of what is left, ascending: least-absolute-value
        pivots reduced by division with remainder, then the divisibility fix
        (a pivot that does not divide every remaining entry takes that
        entry's row into its own and is reduced again)."""
        rows, cols = self.rows, self.cols
        live = [i for i, row in enumerate(rows) if row]
        factors = []
        while live:
            _, i, j = min((abs(v), i, j) for i in live for j, v in rows[i].items())
            while True:
                v = rows[i][j]
                for k in [k for k in cols[j] if k != i]:
                    q = rows[k][j] // v
                    if q:
                        self.row_op(k, i, q)
                rest = [k for k in cols[j] if k != i]
                if rest:
                    i = min(rest, key=lambda k: (abs(rows[k][j]), k))
                    continue
                # column j now holds the pivot alone, so a column operation
                # changes row i alone
                row = rows[i]
                for l in [l for l in row if l != j]:
                    w = row[l] % v
                    if w:
                        row[l] = w
                    else:
                        del row[l]
                        cols[l].discard(i)
                if len(row) > 1:
                    j = min((l for l in row if l != j),
                            key=lambda l: (abs(row[l]), l))
                    continue
                bad = next((k for k in live if k != i and
                            any(w % v for w in rows[k].values())), None)
                if bad is None:
                    break
                self.row_op(i, bad, -1)
            factors.append(abs(v))
            self.drop_row(i)
            live = [k for k in live if rows[k]]
        return factors


def smith_invariant_factors(mat: SparseMat) -> list:
    """Invariant factors d_1 | d_2 | ... (positive, nonzero) of an integer
    matrix: a 1 for each unit pivot, then the Smith form of the residual."""
    core = _Core([{j: int(v) for j, v in r.items() if v} for r in mat.rows])
    ones = core.clear_units()
    return [1] * ones + core.smith()


def chain_homology(dims, boundaries, ring: Ring):
    """Invariants (rank, torsion) of H_n for n < len(dims) - 1.

    `boundaries[n]` maps C_n -> C_{n-1}, or is None for the zero map; the
    top degree is there only to supply the boundary into the one below.
    Each boundary is reduced once: over a field for its rank, over Z for its
    invariant factors, whose number is its rank and whose entries > 1 are
    the torsion of the degree below."""
    ranks, torsion = [], []
    for b in boundaries:
        if b is None:
            ranks.append(0)
            torsion.append(())
        elif ring.is_field:
            ranks.append(b.rank(ring))
            torsion.append(())
        else:
            factors = smith_invariant_factors(b)
            ranks.append(len(factors))
            torsion.append(tuple(d for d in factors if d > 1))
    out = []
    for n in range(len(dims) - 1):
        rank = dims[n] - ranks[n] - ranks[n + 1]
        if rank < 0:
            raise ArithmeticError("inconsistent ranks; input is not a complex")
        out.append((rank, torsion[n + 1]))
    return out


def cokernel_invariants(mat: SparseMat, ring: Ring):
    """(free rank, torsion) of coker(mat : R^cols -> R^rows)."""
    if ring.is_field:
        return mat.nrows - mat.rank(ring), ()
    factors = smith_invariant_factors(mat)
    return mat.nrows - len(factors), tuple(d for d in factors if d > 1)
