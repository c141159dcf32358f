"""Batch command-line front end.

Verbs map onto the library entry points: hh / hc (linear backends), thh-set
/ tc0 / trace / facthom (Set backend), and check (invariant suites).  All
numeric output is exact -- integers and "p/q" strings, never floats -- and
repeated runs with identical inputs produce byte-identical output.  Results
are cached by content hash of inputs and options, the package version and a
digest of the package's sources; cache writes go through a temp file and an
atomic rename.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .checks import SUITES, run_suite
from .cyclo import DEFAULT_DEGREES, MODEL_TAG, build_cyclo_action, trace0
from .enrich import LinearCategory, validate_enriched_cat
from .facthom import (cyclic_homology, enr_facthom_disk, facthom_set_pi0,
                      hochschild_homology, negative_cyclic_homology,
                      thh_set_pi0)
from .fincat import FinCategory, validate_category
from .manifold import GraphManifold, validate_manifold


class SchemaError(Exception):
    pass


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
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object, "
                          f"found {type(data).__name__}")
    return data


def load_category(path, data) -> FinCategory:
    if "ring" in data:
        raise SchemaError(f"{path}: expected a Set-enriched category, "
                          "found a linear one (has 'ring')")
    try:
        cat = FinCategory.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    report = validate_category(cat)
    if report:
        raise ValidationFailure(report)
    return cat


def load_algebra(path, data) -> LinearCategory:
    if "ring" not in data:
        raise SchemaError(f"{path}: linear input needs a 'ring' field")
    try:
        cat = LinearCategory.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    report = validate_enriched_cat(cat)
    if report:
        raise ValidationFailure(report)
    return cat


def load_manifold(path, data) -> GraphManifold:
    try:
        m = GraphManifold.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    report = validate_manifold(m)
    if report:
        raise ValidationFailure(report)
    return m


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


def _cache_store(cache_dir, key, text):
    """Best effort: a cache that cannot be written is skipped."""
    if not cache_dir:
        return
    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(cache_dir, f"{key}.json"))
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _cache_entry(key, verb, result) -> str:
    return json.dumps({"key": key, "verb": verb, "result": result},
                      sort_keys=True)


def _cached_result(text, key, verb):
    """The result held by a cache entry, or None (a miss) for an absent
    entry, one that does not parse (too deeply nested included), or one made
    for another key or verb."""
    if text is None:
        return None
    try:
        entry = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if (not isinstance(entry, dict) or entry.get("key") != key
            or entry.get("verb") != verb):
        return None
    result = entry.get("result")
    return result if isinstance(result, dict) else None


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

def cmd_hh(args):
    alg = load_algebra(args.algebra, args.data["algebra"])
    groups = hochschild_homology(alg, args.max_degree)
    return {"verb": "hh", "ring": alg.ring.name, "groups": groups}


def cmd_hc(args):
    alg = load_algebra(args.algebra, args.data["algebra"])
    if args.negative:
        result = negative_cyclic_homology(alg, args.max_degree, args.i_max)
        return {"verb": "hc", "ring": alg.ring.name, "mode": "negative",
                **result}
    groups = cyclic_homology(alg, args.max_degree)
    return {"verb": "hc", "ring": alg.ring.name, "mode": "first-quadrant",
            "groups": groups}


def cmd_thh_set(args):
    cat = load_category(args.category, args.data["category"])
    table = thh_set_pi0(cat)
    return {"verb": "thh-set", **table.to_json_dict()}


def cmd_tc0(args):
    cat = load_category(args.category, args.data["category"])
    degrees = _parse_degrees(args.degrees)
    action = build_cyclo_action(cat, degrees)
    return {"verb": "tc0", "degrees": list(degrees),
            "tc0": list(action.fixed_classes()),
            "trace": action.trace().to_json_dict(), "model": MODEL_TAG}


def cmd_trace(args):
    cat = load_category(args.category, args.data["category"])
    return {"verb": "trace", "trace": trace0(cat).to_json_dict(),
            "model": MODEL_TAG}


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
        module = enr_facthom_disk(mani, alg)
        return {"verb": "facthom", "backend": alg.ring.name,
                "dimension": module.dim}
    cat = load_category(args.category, data)
    value = facthom_set_pi0(mani, cat)
    return {"verb": "facthom", "backend": "set", "model": MODEL_TAG,
            "cardinality": len(value)}


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
    parser = argparse.ArgumentParser(
        prog="strathom",
        description="Exact factorization homology over stratified 1-manifolds")
    sub = parser.add_subparsers(dest="verb", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("hh", help="Hochschild homology of a linear category")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(fn=cmd_hh)

    p = sub.add_parser("hc", help="cyclic homology (first-quadrant)")
    p.add_argument("--algebra", required=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--negative", action="store_true",
                   help="column-truncated negative cyclic homology")
    p.add_argument("--i-max", type=int, default=3)
    p.set_defaults(fn=cmd_hc)

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
    that computes it included."""
    payload = {"verb": args.verb, "version": __version__,
               "code": _code_digest(), **texts}
    for attr in ("max_degree", "degrees", "backend", "suite", "negative",
                 "i_max"):
        if hasattr(args, attr):
            payload[attr] = getattr(args, attr)
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cache is None:
        args.cache = os.environ.get("FH_CACHE")
    cache = None if args.verb == "check" else args.cache
    try:
        for attr in ("max_degree", "i_max"):
            if getattr(args, attr, 0) < 0:
                raise SchemaError(f"--{attr.replace('_', '-')} must be >= 0")
        texts = {attr: _read_input(getattr(args, attr))
                 for attr in _INPUTS if hasattr(args, attr)}
        key = _cache_key(_input_fingerprint(args, texts)) if cache else None
        result = _cached_result(_cache_lookup(cache, key), key, args.verb)
        if result is None:
            args.data = {attr: _load_json(getattr(args, attr), text)
                         for attr, text in texts.items()}
            result = args.fn(args)
            _cache_store(cache, key, _cache_entry(key, args.verb, result))
    except ValidationFailure as exc:
        sys.stdout.write(render_json(
            {"error": {"type": "validation", "report": list(exc.report)}}))
        return 1
    except SchemaError as exc:
        sys.stdout.write(render_json(
            {"error": {"type": "schema", "message": str(exc)}}))
        return 2
    text = render_json(result) if args.out == "json" else render_table(result)
    sys.stdout.write(text)
    if args.verb == "check" and result.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
