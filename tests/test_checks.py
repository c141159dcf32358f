"""Every named invariant suite runs clean; these are the property suites
behind the `check` verb."""

import pytest

from strathom.checks import SUITES, run_suite


# Each suite's exact check count, so that an enumeration which silently
# yields fewer morphisms fails here.
CHECK_COUNTS = {"colimits": 155, "segal": 64, "delta": 3418,
                "paracyclic": 249, "spans": 6087, "factorization": 288,
                "facthom": 130, "mixed": 112, "trace": 441}


# corr runs in test_acceptance.py::test_criterion_8_corr_monodromy, which
# asserts the same and more
@pytest.mark.parametrize("name", sorted(set(SUITES) - {"corr"}))
def test_suite_passes(name):
    report = run_suite(name)
    assert report["failed"] == 0, report["failures"]
    assert report["passed"] == CHECK_COUNTS[name]


def test_registry_names_are_stable():
    assert set(SUITES) == {"colimits", "segal", "delta", "paracyclic",
                           "spans", "factorization", "corr", "facthom",
                           "mixed", "trace"}


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("bogus")


# -- criterion 7: unique [active; closed] factorization in the simplex category --

def _factorization_count(f):
    """Oracle: every (active, closed) pair composed against f alone."""
    from strathom.indexing import SimplexMap, all_simplex_maps
    count = 0
    for k in range(f.n + 1):
        for a in all_simplex_maps(f.m, k):
            if not a.is_active():
                continue
            for shift in range(f.n - k + 1):
                c = SimplexMap(k, f.n, tuple(range(shift, shift + k + 1)))
                if c.compose(a) == f:
                    count += 1
    return count


def test_delta_pair_counts_agree_with_per_map_enumeration():
    from collections import Counter
    from strathom import checks
    from strathom.indexing import all_simplex_maps
    for m in range(4):
        for n in range(4):
            counts = Counter(c.compose(a)
                             for a, c in checks._active_closed_pairs(m, n))
            assert set(counts) == set(all_simplex_maps(m, n))
            for f in all_simplex_maps(m, n):
                assert _factorization_count(f) == counts[f] == 1, f


def test_delta_suite_catches_a_wrong_factorization(monkeypatch):
    from strathom import indexing
    from strathom.checks import suite_delta
    real = indexing.delta_op_factorize
    target = indexing.SimplexMap(0, 1, (1,))

    def wrong(f):
        if f == target:  # the closed part should be the shift by 1
            return indexing.SimplexMap.identity(0), \
                indexing.SimplexMap(0, 1, (0,))
        return real(f)
    monkeypatch.setattr(indexing, "delta_op_factorize", wrong)
    report = suite_delta()
    assert report["failures"] == [f"bad factorization of {target}"]


def test_delta_suite_catches_a_pair_counted_twice(monkeypatch):
    from strathom import checks
    real = checks._active_closed_pairs

    def doubled(m, n):
        pairs = list(real(m, n))
        return pairs + pairs[:1] if (m, n) == (2, 3) else pairs
    monkeypatch.setattr(checks, "_active_closed_pairs", doubled)
    a, c = next(real(2, 3))
    report = checks.suite_delta()
    assert report["failures"] == [f"2 factorizations of {c.compose(a)}"]
