"""Batch command-line front end.

Verbs map onto the library entry points: hh / hc (linear backends), thh-set
/ tc0 / trace / facthom (Set backend), and check (invariant suites).  All
numeric output is exact -- integers and "p/q" strings, never floats -- and
repeated runs with identical inputs produce byte-identical output.  Results
are cached by a hash of the options, the sha256 of each input text, the
package version and a digest of the package's sources.  An entry holds its
key and verb next to the rendered JSON output, which a hit writes as it is;
cache writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import struct
import sys
import tempfile

from . import __version__
from .checks import SUITES, run_suite
from .cyclo import DEFAULT_DEGREES, MODEL_TAG, fixed_classes, trace_of
from .enrich import (LinearCategory, delinearize, separable_by_trace_form,
                     validate_linear_category)
from .facthom import (_disk_count, centralizer_homology, complex_dims,
                      cyclic_homology, facthom_set_pi0, hochschild_homology,
                      negative_cyclic_homology, thh_set_pi0)
from .fincat import FinCategory, validate_category
from .manifold import GraphManifold, validate_manifold


class SchemaError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are schema errors, so `main` reports them in JSON."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


class ValidationFailure(Exception):
    def __init__(self, report):
        self.report = report
        super().__init__("; ".join(map(str, report)))


def _read_input(path):
    """The text of an input file, read once: its bytes feed both the cache
    key and the parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise SchemaError(f"no such file: {path}") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _load_json(path, text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError(
            f"{path}: not valid JSON (nested too deeply)") from exc
    except ValueError as exc:   # an integer past Python's digit limit
        raise SchemaError(f"{path}: not readable JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object, "
                          f"found {type(data).__name__}")
    return data


def _load(path, data, cls, validate):
    """Parse `data` as a `cls` and validate it: a malformed dict is a schema
    error, a non-empty validation report a validation failure."""
    try:
        obj = cls.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    report = validate(obj)
    if report:
        raise ValidationFailure(report)
    return obj


def load_category(path, data) -> FinCategory:
    if "ring" in data:
        raise SchemaError(f"{path}: expected a Set-enriched category, "
                          "found a linear one (has 'ring')")
    return _load(path, data, FinCategory, validate_category)


def load_algebra(path, data) -> LinearCategory:
    if "ring" not in data:
        raise SchemaError(f"{path}: linear input needs a 'ring' field")
    return _load(path, data, LinearCategory, validate_linear_category)


def load_manifold(path, data) -> GraphManifold:
    return _load(path, data, GraphManifold, validate_manifold)


def _parse_degrees(text):
    try:
        degrees = tuple(sorted({int(part) for part in text.split(",") if part}))
    except ValueError as exc:
        raise SchemaError(f"bad degree list {text!r}") from exc
    if not degrees or any(r < 1 for r in degrees):
        raise SchemaError(f"degrees must be positive integers, got {text!r}")
    return degrees


# -- cache ------------------------------------------------------------------------

@functools.cache
def _code_digest() -> str:
    """sha256 of the package's Python sources, read once per process, so
    that no cache entry made by other code is served."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                source = fh.read()
            digest.update(f"{name}\0{len(source)}\0".encode())
            digest.update(source)
    return digest.hexdigest()


def _cache_key(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_lookup(cache_dir, key):
    if not cache_dir:
        return None
    path = os.path.join(cache_dir, f"{key}.json")
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError):
        return None


def _cache_store(cache_dir, key, verb, text):
    """Best effort: a cache that cannot be written is skipped.  The entry
    holds its key and verb next to `text`, the rendered JSON output."""
    if not cache_dir:
        return
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"key": key, "verb": verb, "text": text},
                                sort_keys=True))
        os.replace(tmp, os.path.join(cache_dir, f"{key}.json"))
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _cached_output(entry, key, verb, out):
    """What a cache entry prints for `--out out`: its stored text as it is,
    or that text's table.  None (a miss) for an absent entry, one that does
    not parse (too deeply nested included), one made for another key or
    verb, or a text that is not a str or, for a table, does not parse."""
    if entry is None:
        return None
    try:
        entry = json.loads(entry)
        if (not isinstance(entry, dict) or entry.get("key") != key
                or entry.get("verb") != verb
                or not isinstance(entry.get("text"), str)):
            return None
        text = entry["text"]
        return text if out == "json" else render_table(json.loads(text))
    except (ValueError, RecursionError):
        return None


# -- rendering ---------------------------------------------------------------------

def render_json(result) -> str:
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


def render_table(result) -> str:
    """A lossless flat rendering: one `path = value` line per JSON leaf."""
    lines = []

    def walk(node, path):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{path}.{k}" if path else str(k))
        elif isinstance(node, list):
            if not node:
                lines.append(f"{path} = []")
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
        else:
            lines.append(f"{path} = {node}")

    walk(result, "")
    return "\n".join(lines) + "\n"


# -- verbs --------------------------------------------------------------------------

def _memory_bytes() -> int:
    """The machine's physical memory in bytes, or `sys.maxsize` where it
    cannot be read."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, as on Windows
        memory = -1
    return memory if memory > 0 else sys.maxsize


def _require_room(level_refs, complex_top, n_groups):
    """Fail validation, before anything is built, when a complex to degree
    `complex_top` and a list of `n_groups` groups cannot fit in the
    machine's memory.  Both are counted from below: `level_refs` yields,
    for n = 0, 1, ..., the references that the elements of C_n hold, one
    per basis element or morphism of each, and a group is a dict of three
    keys.  The count stops as soon as it passes the memory, so a huge
    degree costs nothing to refuse."""
    memory = _memory_bytes()
    need = n_groups * sys.getsizeof({"degree": 0, "rank": 0, "torsion": []})
    ref = struct.calcsize("P")
    for refs in itertools.islice(level_refs, complex_top + 1):
        if need > memory:
            break
        need += refs * ref
    if need > memory:
        raise ValidationFailure([
            f"the complex to degree {complex_top} and {n_groups} groups "
            f"need more than the machine's {memory} bytes of memory"])


def _groupoid(alg):
    """`delinearize(alg)` when it is a groupoid, every morphism invertible,
    else None.  Validation has made its table total: a product a·b = 0
    with a invertible would break associativity, as a^-1·(a·b) = 0 != b."""
    cat = delinearize(alg)
    if cat is None or any(cat.inverse(m) is None for m in cat.morphisms()):
        return None
    return cat


def cmd_homology(args):
    """`hh`, `hc` and `hc --negative` in degrees 0..max_degree.  When the
    trace form certifies that the algebra is separable over a field, HH_n =
    0 for n > 0 (Weibel, *An Introduction to Homological Algebra*, §9.2).
    Then Connes' SBI sequence gives HC_2k = HH_0 and HC_2k+1 = 0 (Loday,
    *Cyclic Homology*, §2.2), and column i <= 0 of the truncated (b, B)
    complex has homology HH_0 in total degree 2i alone: every differential
    between columns vanishes, so HC^- is HH_0 in degree 0, 0 above, exactly.
    Only HH_0, the boundary C_1 -> C_0, is computed.  An uncertified `hh`
    of a groupoid algebra is the sum of its centralizers' group homologies
    (`centralizer_homology`); the largest complex that builds is the
    normalized nerve of a largest automorphism group, the identity's
    centralizer.  Every other algebra gets the full complex from the verb's
    library function."""
    alg = load_algebra(args.algebra, args.data["algebra"])
    top, negative = args.max_degree, getattr(args, "negative", False)
    i_max = args.i_max if negative else 0
    certified = separable_by_trace_form(alg)
    groupoid = None if certified or args.verb != "hh" else _groupoid(alg)
    if groupoid is not None:
        order = max((len(groupoid.hom(x, x)) for x in groupoid.objects),
                    default=1)
        complex_top = top + 1
        refs = (n * (order - 1) ** n
                for n in range(complex_top + 1 if order > 1 else 1))
    else:
        complex_top = 1 if certified else top + 2 * i_max + 1
        refs = (dim * (n + 1) for n, dim in enumerate(complex_dims(alg)))
    _require_room(refs, complex_top, top + 1)
    if certified:
        rank = hochschild_homology(alg, 0)[0]["rank"]
        periodic = args.verb == "hc" and not negative
        answer = {"groups": [
            {"degree": n, "torsion": [],
             "rank": rank if n % 2 == 0 and (periodic or n == 0) else 0}
            for n in range(top + 1)]}
        if negative:
            answer.update(truncated_at_column=i_max, hh_vanishes_above=0,
                          certificate="separable", exact=True)
    elif groupoid is not None:
        answer = {"groups": centralizer_homology(groupoid, alg.ring, top)}
    elif negative:
        answer = negative_cyclic_homology(alg, top, i_max)
    else:
        engine = cyclic_homology if args.verb == "hc" else hochschild_homology
        answer = {"groups": engine(alg, top)}
    if args.verb == "hc":
        answer["mode"] = "negative" if negative else "first-quadrant"
    return {"verb": args.verb, "ring": alg.ring.name, **answer}


def cmd_thh_set(args):
    cat = load_category(args.category, args.data["category"])
    table = thh_set_pi0(cat)
    return {"verb": "thh-set", **table.to_json_dict()}


def cmd_tc0(args):
    cat = load_category(args.category, args.data["category"])
    degrees = _parse_degrees(args.degrees)
    table = thh_set_pi0(cat)
    return {"verb": "tc0", "degrees": list(degrees),
            "tc0": list(fixed_classes(table, degrees)),
            "trace": trace_of(table), "model": MODEL_TAG}


def cmd_trace(args):
    cat = load_category(args.category, args.data["category"])
    return {"verb": "trace", "trace": trace_of(thh_set_pi0(cat)),
            "model": MODEL_TAG}


def _printable_digits() -> int:
    """The most decimal digits a printed count may have: Python's int-to-str
    limit, or, with that limit off or absent (before Python 3.10.7), one
    digit per byte of the machine's memory, since the decimal string must
    fit in it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or _memory_bytes()


def cmd_facthom(args):
    mani = load_manifold(args.manifold, args.data["manifold"])
    backend = args.backend
    data = args.data["category"]
    is_linear = "ring" in data
    if backend == "set" and is_linear:
        raise ValidationFailure(["--backend set given but the category file "
                                 "is linear"])
    if backend not in (None, "set") and not is_linear:
        raise ValidationFailure([f"--backend {backend} given but the "
                                 "category file is Set-enriched"])
    if is_linear:
        alg = load_algebra(args.category, data)
        if backend and backend != alg.ring.name:
            raise ValidationFailure([f"--backend {backend} does not match "
                                     f"ring {alg.ring.name}"])
        if not mani.is_disk_stratified:
            raise ValidationFailure(
                ["linear factorization homology over circles is the hh verb"])
        return {"verb": "facthom", "backend": alg.ring.name,
                "dimension": _disk_count(mani, alg)}
    cat = load_category(args.category, data)
    value = facthom_set_pi0(mani, cat)
    limit = _printable_digits()
    too_long = ValidationFailure([f"cardinality has more than {limit} "
                                  "decimal digits, too many to print"])
    # decide from the logarithm first, so that no count far past the limit
    # is ever multiplied out; near the limit the exact count decides
    if value.log10_cardinality() > limit + 1:
        raise too_long
    count = value.cardinality
    try:
        str(count)
    except ValueError:  # past Python's limit on int-to-str conversion
        raise too_long from None
    return {"verb": "facthom", "backend": "set", "model": MODEL_TAG,
            "cardinality": count}


def cmd_check(args):
    result = run_suite(args.suite)
    if isinstance(result, list):
        return {"verb": "check", "suites": result,
                "passed": sum(r["passed"] for r in result),
                "failed": sum(r["failed"] for r in result)}
    return {"verb": "check", **result}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  `--cache` has no default here:
    `main` reads $FH_CACHE when it runs."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("json", "table"), default="json")
    common.add_argument("--cache", help="cache directory (default: $FH_CACHE)")
    parser = _Parser(
        prog="strathom",
        description="Exact factorization homology over stratified 1-manifolds")
    sub = parser.add_subparsers(dest="verb", required=True,
                                parser_class=lambda **kw: _Parser(
                                    parents=[common], **kw))

    p = sub.add_parser("hh", help="Hochschild homology of a linear category")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("hc", help="cyclic homology (first-quadrant)")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--negative", action="store_true",
                   help="column-truncated negative cyclic homology")
    p.add_argument("--i-max", type=int, default=3)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("thh-set", help="trace classes of a Set category")
    p.add_argument("--category", required=True)
    p.set_defaults(fn=cmd_thh_set)

    p = sub.add_parser("tc0", help="strict pi_0 TC: psi-fixed trace classes")
    p.add_argument("--category", required=True)
    p.add_argument("--degrees", default=",".join(map(str, DEFAULT_DEGREES)))
    p.set_defaults(fn=cmd_tc0)

    p = sub.add_parser("trace", help="the unstable trace at pi_0")
    p.add_argument("--category", required=True)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("facthom", help="factorization homology over a manifold")
    p.add_argument("--manifold", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("--backend", default=None,
                   help="set, Z, Q, or Fp:<prime>; checked against the input")
    p.set_defaults(fn=cmd_facthom)

    p = sub.add_parser("check", help="run a named invariant suite")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(sorted(SUITES)))
    p.set_defaults(fn=cmd_check)

    return parser


# in the order their errors are reported: facthom's manifold before its category
_INPUTS = ("algebra", "manifold", "category")


def _input_fingerprint(args, texts):
    """Hashable view of everything that determines the result, the code
    that computes it included: every parsed option but the output format
    and the cache directory, with the sha256 of each input text in place
    of its path."""
    payload = {k: v for k, v in vars(args).items()
               if k not in ("cache", "out", "fn")}
    payload.update({attr: hashlib.sha256(text.encode()).hexdigest()
                    for attr, text in texts.items()},
                   version=__version__, code=_code_digest())
    return payload


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.cache is None:
            args.cache = os.environ.get("FH_CACHE")
        cache = None if args.verb == "check" else args.cache
        for attr in ("max_degree", "i_max"):
            if getattr(args, attr, 0) < 0:
                raise SchemaError(f"--{attr.replace('_', '-')} must be >= 0")
        texts = {attr: _read_input(getattr(args, attr))
                 for attr in _INPUTS if hasattr(args, attr)}
        key = _cache_key(_input_fingerprint(args, texts)) if cache else None
        output = _cached_output(_cache_lookup(cache, key), key, args.verb,
                                args.out)
        failed = False
        if output is None:
            args.data = {attr: _load_json(getattr(args, attr), text)
                         for attr, text in texts.items()}
            result = args.fn(args)
            failed = args.verb == "check" and bool(result.get("failed"))
            if cache or args.out == "json":
                output = render_json(result)
                _cache_store(cache, key, args.verb, output)
            if args.out == "table":
                output = render_table(result)
    except ValidationFailure as exc:
        report = exc.report
    except MemoryError:
        # reported below, once the traceback and what it holds are freed
        report = ["the computation ran out of memory"]
    except SchemaError as exc:
        sys.stdout.write(render_json(
            {"error": {"type": "schema", "message": str(exc)}}))
        return 2
    else:
        sys.stdout.write(output)
        return 1 if failed else 0
    sys.stdout.write(render_json(
        {"error": {"type": "validation", "report": list(report)}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
