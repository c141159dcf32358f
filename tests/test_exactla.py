import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from strathom.exactla import (QQ, RingFp, SparseMat, ZZ, chain_homology,
                              cokernel_invariants, is_prime, ring_from_name,
                              smith_invariant_factors)


def sparse_from_dense(ring, data) -> SparseMat:
    """A `SparseMat` from a list of rows, each entry normalized in `ring`."""
    nrows = len(data)
    m = SparseMat(nrows, len(data[0]) if nrows else 0)
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            v = ring.normalize(v)
            if v != 0:
                m.rows[i][j] = v
    return m


def test_ring_parsing():
    assert ring_from_name("Z") is not None
    assert ring_from_name("Q").parse("3/4") == Fraction(3, 4)
    assert ring_from_name("Fp:5").parse("7") == 2
    with pytest.raises(ValueError):
        ring_from_name("Fp:6")
    with pytest.raises(ValueError):
        ring_from_name("R")


def test_miller_rabin_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
    rng = random.Random(0)
    for n in [*range(-2, 3000), *(rng.randrange(10 ** 9) for _ in range(300)),
              561, 41041, 3215031751]:  # two Carmichael numbers
        assert is_prime(n) == trial(n), n


def test_fp_inverse_and_fraction_parse():
    f5 = RingFp(5)
    assert f5.parse("1/2") == 3
    assert f5.show(7) == "2"


def test_parse_rejects_a_vanishing_denominator():
    with pytest.raises(ValueError, match="bad scalar"):
        QQ.parse("1/0")
    with pytest.raises(ValueError, match="bad scalar"):
        RingFp(5).parse("1/5")
    assert ZZ.parse(" 6/3 ") == 2 and type(ZZ.parse("6/3")) is int


def test_show_round_trips():
    assert QQ.show(QQ.parse("3/4")) == "3/4"
    assert ZZ.show(ZZ.parse("-7")) == "-7"


@pytest.mark.parametrize("value, expected", [
    (0, 0), (-7, -7), (True, 1), (Fraction(6, 3), 2), (Fraction(-4, 2), -2),
    (Fraction(0, 5), 0)])
def test_q_normalizes_an_integral_value_to_an_int(value, expected):
    x = QQ.normalize(value)
    assert type(x) is int and x == expected


@pytest.mark.parametrize("value", [Fraction(3, 4), Fraction(-6, 4),
                                   Fraction(1, 3)])
def test_q_keeps_a_true_rational_a_fraction(value):
    x = QQ.normalize(value)
    assert type(x) is Fraction and x == value and x.denominator != 1


@pytest.mark.parametrize("text, shown", [
    ("3/4", "3/4"), ("-6/4", "-3/2"), ("6/3", "2"), ("-5", "-5"), ("0/7", "0")])
def test_q_parse_and_show_round_trip(text, shown):
    x = QQ.parse(text)
    assert x == Fraction(*map(int, text.split("/")))
    assert type(x) is (Fraction if "/" in shown else int)
    assert QQ.show(x) == shown and QQ.parse(QQ.show(x)) == x
    assert hash(x) == hash(Fraction(x))


def test_sparse_mat_mul_and_apply():
    a = sparse_from_dense(ZZ, [[1, 2], [0, 1]])
    b = sparse_from_dense(ZZ, [[1, 0], [3, 1]])
    assert a.mul(b).rows == [{0: 7, 1: 2}, {0: 3, 1: 1}]
    column = SparseMat.from_columns(2, [{0: 1, 1: 1}])
    assert a.mul(column).rows == [{0: 3}, {0: 1}]


def test_rank_over_q_and_fp():
    m = sparse_from_dense(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank(QQ) == 2
    assert m.rank(ZZ) == 2
    f2 = RingFp(2)
    m2 = sparse_from_dense(f2, [[1, 1], [1, 1]])
    assert m2.rank(f2) == 1
    # rank can drop in finite characteristic
    m3 = sparse_from_dense(ZZ, [[2]])
    assert m3.rank(QQ) == 1
    assert m3.rank(RingFp(2)) == 0


def test_rank_with_fraction_entries():
    m = sparse_from_dense(QQ, [[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), 1]])
    assert m.rank(QQ) == 1


def test_smith_invariant_factors_known():
    m = sparse_from_dense(ZZ, [[2, 0], [0, 3]])
    assert smith_invariant_factors(m) == [1, 6]
    m = sparse_from_dense(ZZ, [[2, 4], [6, 8]])
    assert smith_invariant_factors(m) == [2, 4]
    m = sparse_from_dense(ZZ, [[0, 0], [0, 0]])
    assert smith_invariant_factors(m) == []


def test_smith_divisibility_chain_holds():
    m = sparse_from_dense(ZZ, [[6, 4, 2], [4, 4, 4], [2, 4, 6]])
    factors = smith_invariant_factors(m)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_smith_against_dense_rank_and_determinant(rows):
    m = sparse_from_dense(ZZ, rows)
    factors = smith_invariant_factors(m)
    assert len(factors) == m.rank(QQ)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
           - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
           + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
    prod = 1
    for d in factors:
        prod *= d
    if len(factors) == 3:
        assert prod == abs(det)
    else:
        assert det == 0


def test_homology_of_known_complex():
    # 0 -> Z -2-> Z -0-> Z -> 0 concentrated in degrees 2,1,0
    b1 = sparse_from_dense(ZZ, [[0]])
    b2 = sparse_from_dense(ZZ, [[2]])
    assert chain_homology([1, 1, 1], [None, b1, b2], ZZ) == [(1, ()), (0, (2,))]
    assert chain_homology([1, 1, 1], [None, b1, b2], QQ) == [(1, ()), (0, ())]
    one = SparseMat.identity(1)
    with pytest.raises(ArithmeticError):
        chain_homology([1, 1, 1], [None, one, one], ZZ)


def test_cokernel_invariants():
    m = sparse_from_dense(ZZ, [[2, 0], [0, 1]])
    assert cokernel_invariants(m, ZZ) == (0, (2,))
    assert cokernel_invariants(m, QQ) == (0, ())
    n = sparse_from_dense(ZZ, [[1, 1]])
    assert cokernel_invariants(n, ZZ) == (0, ())


def test_rank_deterministic_under_clone():
    m = sparse_from_dense(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert m.rank(ZZ) == m.clone().rank(ZZ) == 2


# -- determinantal-divisor oracle ---------------------------------------------------
#
# Independent of any elimination: d_k is the gcd of all k x k minors,
# computed as exact determinants, and the Smith invariant factors are
# s_k = d_k / d_(k-1); the rank is the size of the largest nonzero minor.

def _det(rows):
    """Exact determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * v * _det(minor)
    return total


def _minors(rows, k):
    for rs in combinations(range(len(rows)), k):
        for cs in combinations(range(len(rows[0])), k):
            yield _det([[rows[i][j] for j in cs] for i in rs])


def _determinantal_factors(rows):
    factors, prev = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for m in _minors(rows, k):
            d = math.gcd(d, m)
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return factors


def _minor_rank(rows, p=0):
    rank = 0
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        if not any((m % p if p else m) for m in _minors(rows, k)):
            break
        rank = k
    return rank


def _random_matrix(rng, values):
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    return [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]


ANY_ENTRY = tuple(range(-6, 7)) + (0,) * 6
NO_UNIT = (0, 0, 0, 2, -2, 3, -3, 4, -4, 6, -6)


@pytest.mark.parametrize("values", [ANY_ENTRY, NO_UNIT], ids=["any", "no_unit"])
def test_smith_and_rank_match_determinantal_divisors(values):
    rng = random.Random(20011)
    for _ in range(150):
        rows = _random_matrix(rng, values)
        m = sparse_from_dense(ZZ, rows)
        assert smith_invariant_factors(m) == _determinantal_factors(rows), rows
        assert m.rank(QQ) == m.rank(ZZ) == _minor_rank(rows), rows
        for p in (2, 3, 5):
            assert m.rank(RingFp(p)) == _minor_rank(rows, p), (rows, p)


NO_UNIT_Q = (0, 0, 0, 2, -3, Fraction(2, 3), Fraction(-3, 2), Fraction(5, 7),
             Fraction(-4, 9))


def test_rank_of_rows_without_unit_entries_matches_minors(monkeypatch):
    """No +-1 entry, so the unit pass finds nothing and the field pass
    pivots on p/q entries, never reaching Smith form; a last row that is a
    p/q combination of two others makes some ranks fall short."""
    from strathom.exactla import _Core

    def smith(self):
        raise AssertionError("a rank over a field reached Smith form")
    monkeypatch.setattr(_Core, "smith", smith)
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        rows = _random_matrix(rng, NO_UNIT_Q)
        if len(rows) > 2:
            a, b = rng.sample(rows[:-1], 2)
            c, d = rng.choice(NO_UNIT_Q[3:]), rng.choice(NO_UNIT_Q[3:])
            rows[-1] = [c * x + d * y for x, y in zip(a, b)]
        if any(v in (1, -1) for row in rows for v in row):
            continue
        m = sparse_from_dense(QQ, rows)
        assert m.rank(QQ) == _minor_rank(rows), rows
        checked += 1
    assert checked >= 150


@pytest.mark.parametrize("rows,factors", [
    ([[2, 0], [0, 3]], [1, 6]),
    ([[4, 0], [0, 6]], [2, 12]),
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [1, 30, 30]),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 2, 6]),
    ([[0, 4], [6, 0], [0, 0]], [2, 12]),
])
def test_smith_needs_the_divisibility_fix(rows, factors):
    assert _determinantal_factors(rows) == factors
    assert smith_invariant_factors(sparse_from_dense(ZZ, rows)) == factors


def test_smith_and_rank_survive_unimodular_mixing():
    """P D Q with D diagonal and P, Q products of elementary integer
    operations has the Smith form of D: matrices too large for minors, with
    unit pivots and a residual core both present."""
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(4, 14), rng.randint(4, 14)
        chain, d = [], 1
        for _ in range(rng.randint(0, min(nrows, ncols))):
            d *= rng.choice((1, 1, 1, 2, 3))
            chain.append(d)
        rows = [[0] * ncols for _ in range(nrows)]
        for k, d in enumerate(chain):
            rows[k][k] = d
        for _ in range(3 * (nrows + ncols)):
            if rng.random() < 0.5:
                i, k = rng.sample(range(nrows), 2)
                c = rng.choice((-2, -1, 1, 2))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
            else:
                j, k = rng.sample(range(ncols), 2)
                c = rng.choice((-2, -1, 1, 2))
                for row in rows:
                    row[j] += c * row[k]
        m = sparse_from_dense(ZZ, rows)
        assert smith_invariant_factors(m) == chain
        assert m.rank(QQ) == len(chain)
        for p in (2, 3, 5):
            assert m.rank(RingFp(p)) == sum(d % p != 0 for d in chain)
