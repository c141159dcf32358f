"""Constructions that only the tests use, kept out of the library: `src/`
holds what a verb, a suite, the public API or a labelled oracle reaches
(see `test_reachability.py`)."""

from strathom.enrich import LinearCategory, algebra_from_table
from strathom.fincat import FactorizationSystem, factorizations


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
