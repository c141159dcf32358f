"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps each layer's functions at every place where a calling
module looks them up: module globals (including names imported with
`from ... import`), dicts held in module globals (such as
`checks.SUITES`), and class attributes for methods.  A wrapper opens a span
(name, start, end, parent) while the tracer is active and may add counts
computed from the call's arguments or result, outside the span.  Spans live
in flat arrays until the run ends.  A layer's self time is its spans'
durations minus the parts covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns


def _triples(cat):
    """Composable triples (h, g, f) of a finite category: what validation's
    associativity pass visits."""
    into, out_of = {}, {}
    for (s, t), ms in cat.homs.items():
        into[t] = into.get(t, 0) + len(ms)
        out_of[s] = out_of.get(s, 0) + len(ms)
    return sum(len(ms) * into.get(s, 0) * out_of.get(t, 0)
               for (s, t), ms in cat.homs.items())


def _cache_entry_exists(args):
    cache_dir, key = args[0], args[1]
    if not cache_dir:
        return {}
    hit = os.path.exists(os.path.join(cache_dir, f"{key}.json"))
    return {"cli.cache_hits" if hit else "cli.cache_misses": 1}


def _bundle_sizes(args, _result):
    bundle = args[0]
    return {"facthom.complex_dim_sum": sum(bundle.dims),
            "facthom.boundary_nnz_sum": sum(b.nnz() for b in bundle.boundaries[1:])}


# (span name, module, attribute path, counts before the call, counts after).
# The span name is the per-layer time metric its self time adds to.
LAYERS = (
    ("cli.load_s", "strathom.cli", "_load_json", None, None),
    ("cli.load_s", "strathom.cli", "load_category", None, None),
    ("cli.load_s", "strathom.cli", "load_algebra", None, None),
    ("cli.load_s", "strathom.cli", "load_manifold", None, None),
    ("cli.render_s", "strathom.cli", "render_json", None, None),
    ("cli.render_s", "strathom.cli", "render_table", None, None),
    ("cli.cache_lookup", "strathom.cli", "_cache_lookup",
     _cache_entry_exists, None),
    ("fincat.validate_s", "strathom.fincat", "validate_category",
     lambda a: {"fincat.validate_triples": _triples(a[0])}, None),
    ("cyclo.free_monoid_build_s", "strathom.cyclo", "free_monoid_category",
     None, lambda a, r: {"cyclo.compose_entries": len(r.compose_table)}),
    ("cyclo.psi_s", "strathom.cyclo", "psi_r", None, None),
    ("facthom.trace_table_s", "strathom.facthom", "thh_set_pi0", None, None),
    ("facthom.set_value_s", "strathom.facthom", "facthom_set_pi0", None, None),
    ("facthom.complex_build_s", "strathom.facthom",
     "ChainComplexBundle.__init__", None, _bundle_sizes),
    ("facthom.total_complex_s", "strathom.facthom", "_total_complex",
     None, None),
    ("enrich.validate_linear_s", "strathom.enrich", "validate_linear_category",
     None, None),
    ("exactla.rank_s", "strathom.exactla", "SparseMat.rank",
     lambda a: {"exactla.rank_calls": 1, "exactla.rank_nnz_in": a[0].nnz()},
     None),
    ("exactla.smith_s", "strathom.exactla", "smith_invariant_factors",
     lambda a: {"exactla.smith_calls": 1, "exactla.smith_nnz_in": a[0].nnz()},
     None),
    ("enrich.pushforward_s", "strathom.enrich", "corr_pushforward", None,
     lambda a, r: {"enrich.pushforward_elements":
                   sum(len(v) for v in r.values())}),
    ("enrich.index_check_s", "strathom.enrich", "corr_pushforward_index_check",
     None, None),
    ("manifold.compose_spans_s", "strathom.manifold", "compose_spans",
     None, None),
    # a generator: one span per item it yields
    ("checks.span_pairs_s", "strathom.checks", "corr_span_pairs", None,
     lambda a, item: {"checks.span_pairs": len(item[1])}),
    ("checks.suite_self_s", "strathom.checks", "suite_corr", None, None),
)


class Tracer:
    """Spans and counts of the rounds of one run.

    Spans are recorded only between `begin_round` and `end_round`, so
    set-up, output checks and oracle computations leave no trace."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.round_of = array("i")
        self.round_counts = []
        self.missing = []
        self._stack = []
        self._round = -1
        self._restore = []

    # -- recording ---------------------------------------------------------------

    @property
    def active(self):
        return self._round >= 0

    def begin_round(self):
        self.round_counts.append({})
        self._round = len(self.round_counts) - 1

    def end_round(self):
        self._round = -1

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round_of.append(self._round)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, counts):
        if self._round < 0:
            return
        acc = self.round_counts[self._round]
        for key, n in counts.items():
            acc[key] = acc.get(key, 0) + n

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.active:
                        item = next(it, _DONE)
                    else:
                        idx = tracer.open(name)
                        try:
                            item = next(it, _DONE)
                        finally:
                            tracer.close(idx)
                    if item is _DONE:
                        return
                    if after is not None:
                        tracer.count(after(args, item))
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer.count(before(args))
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.count(after(args, result))
            return result
        return wrapper

    def install(self, layers=LAYERS):
        """Wrap every layer function; a name that no longer exists is
        recorded in `missing` and skipped."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "strathom" or name.startswith("strathom."))
                   and m is not None]
        for name, modname, path, before, after in layers:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(name, fn, before, after)
            if outer:
                self._replace(owner, attr, fn, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, fn, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is fn:
                                value[k] = wrapper
                                self._restore.append((value.__setitem__, k, fn))

    def _replace(self, owner, attr, fn, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((functools.partial(setattr, owner), attr, fn))

    def uninstall(self):
        for setter, key, fn in reversed(self._restore):
            setter(key, fn)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """Per round, the self time in seconds of each span name."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = [{} for _ in self.round_counts]
        for i in range(n):
            acc = out[self.round_of[i]]
            name = self.names[self.name_id[i]]
            acc[name] = acc.get(name, 0) + (self.end[i] - self.start[i]
                                            - covered[i])
        return [{k: v / 1e9 for k, v in acc.items()} for acc in out]

    def write(self, path):
        """All spans as gzipped JSON: names, and per span [name index, start
        ns, end ns, parent index or -1, round]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            head = json.dumps({"names": self.names, "missing": self.missing,
                               "fields": ["name", "start_ns", "end_ns",
                                          "parent", "round"]})
            fh.write(head[:-1] + ',"spans":[')
            for i, row in enumerate(zip(self.name_id, self.start, self.end,
                                        self.parent, self.round_of)):
                fh.write(("," if i else "") + "[%d,%d,%d,%d,%d]" % row)
            fh.write("]}")


_DONE = object()
