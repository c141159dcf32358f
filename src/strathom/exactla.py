"""Exact linear algebra over Z, Q and prime fields.

This is the arithmetic core behind the chain-complex engines.  Everything is
exact: integers are arbitrary-precision, an integral Q coefficient is a plain
int and only a true rational is a `fractions.Fraction`, and F_p elements are
ints.  No floating point anywhere, and no true division: `a / b` on two ints
would give a float.

Coefficient arithmetic runs on these plain numbers with `+ - *`; over F_p
they are left unreduced while a vector is being built.  A `Ring` only
normalizes: in `parse` and `show`, on entry to rank and Smith form, and in
`Ring.reduce`, which normalizes a finished vector and drops its zeros.

Matrices are sparse dict-of-rows.  Rank and Smith form share one
elimination core (`_Core`), which also indexes the rows of each column, so a
step touches only nonzeros.  It first clears unit pivots (every nonzero
entry over F_p, +-1 over Z and Q), sparsest row first and within it the
sparsest column; over Z each is an invariant factor 1 (Dumas-Saunders-Villard,
"On efficient sparse integer matrix Smith normal forms", JSC 2001).  A rank
over Q then pivots on any nonzero entry left, as over F_p, with the inverse
`Fraction(1, v)`.  Over Z what is left goes to least-absolute-value Smith
reduction with the divisibility fix; its number of factors completes the
invariant factors.  Ranks and invariant factors do not depend on the pivot
order, and ties break by index, so runs are deterministic.
"""

from __future__ import annotations

import heapq
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
        if isinstance(x, Fraction):
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
        """An int for an integral value, else a `Fraction` in lowest terms:
        the two compare and hash alike, and rank reads both."""
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base above (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin to the prime bases 2..41, exact below
    `_MR_BOUND` (about 3.3·10^24).  Raises ValueError at or above it."""
    if p >= _MR_BOUND:
        raise ValueError(f"{p} is beyond the exact primality bound {_MR_BOUND}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d·2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (p - 1) >> s, p)
        for r in range(s):  # a passes if x = 1 or some x^(2^r) = -1
            if x == p - 1 or x == 1 and r == 0:
                break
            x = x * x % p
        else:
            return False
    return True


class RingFp(Ring):
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
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

    def rank(self, ring: Ring) -> int:
        """Rank over the fraction field of `ring` (for Fp, over Fp itself):
        one field elimination, with no Smith step."""
        p = ring.p if isinstance(ring, RingFp) else 0
        core = _Core([{j: w for j, v in r.items() if (w := v % p if p else v)}
                      for r in self.rows], p)
        return core.clear_units(field=True)


class _Core:
    """The elimination core: rows as dicts plus a column -> rows index, so
    an elimination step touches only nonzeros.  Entries are ints, reduced
    mod `p` when p is a prime; with p = 0 they are over Z, or over Q, where
    a `Fraction` may appear too."""

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

    def clear_units(self, field=False) -> int:
        """Eliminate unit pivots (every nonzero entry mod p, else +-1),
        sparsest row first and within it the sparsest column; returns their
        number.  With `field` over Q, a second pass then pivots on every
        nonzero entry left, inverted as `Fraction(1, v)`: the +-1 go first
        because they keep the entries small.  Once a pivot has cleared its
        column, its row and column leave the matrix: what is left is the
        Schur complement."""
        rows, cols, p = self.rows, self.cols, self.p
        count = 0
        passes = (True,) if p else (False, True) if field else (False,)
        for any_entry in passes:
            heap = [(len(row), i) for i, row in enumerate(rows) if row]
            heapq.heapify(heap)
            waiting = set()  # rows seen without a pivot and unchanged since
            while heap:
                n, r = heapq.heappop(heap)
                prow = rows[r]
                if not prow or n != len(prow) or r in waiting:
                    continue
                units = [j for j, v in prow.items()
                         if any_entry or v == 1 or v == -1]
                if not units:
                    waiting.add(r)
                    continue
                c = min(units, key=lambda j: (len(cols[j]), j))
                v = prow[c]
                inv = (pow(v, -1, p) if p else v if v == 1 or v == -1
                       else Fraction(1, v))
                for i in [i for i in cols[c] if i != r]:
                    f = rows[i][c] * inv
                    self.row_op(i, r, f % p if p else f)
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


def rank_and_torsion(mat: SparseMat, ring: Ring):
    """(rank, torsion) of a matrix over `ring`: over a field its rank and no
    torsion; over Z the number of its invariant factors and those > 1."""
    if ring.is_field:
        return mat.rank(ring), ()
    factors = smith_invariant_factors(mat)
    return len(factors), tuple(d for d in factors if d > 1)


def chain_homology(dims, boundaries, ring: Ring):
    """Invariants (rank, torsion) of H_n for n < len(dims) - 1.

    `boundaries[n]` maps C_n -> C_{n-1}, or is None for the zero map; the
    top degree is there only to supply the boundary into the one below.
    Each boundary is reduced once, for its rank and the torsion it leaves
    in the degree below."""
    invariants = [(0, ()) if b is None else rank_and_torsion(b, ring)
                  for b in boundaries]
    out = []
    for n in range(len(dims) - 1):
        rank = dims[n] - invariants[n][0] - invariants[n + 1][0]
        if rank < 0:
            raise ArithmeticError("inconsistent ranks; input is not a complex")
        out.append((rank, invariants[n + 1][1]))
    return out


def cokernel_invariants(mat: SparseMat, ring: Ring):
    """(free rank, torsion) of coker(mat : R^cols -> R^rows)."""
    rank, torsion = rank_and_torsion(mat, ring)
    return mat.nrows - rank, torsion
