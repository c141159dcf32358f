import argparse
import contextlib
import copy
import io
import itertools
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from strathom import cli
from strathom.cli import (_INPUTS, _cache_key, _input_fingerprint,
                          build_parser, main, render_table)
from strathom.checks import small_category_pool, transformation_monoid
from strathom.cyclo import (cyclic_group_table, group_category,
                            quaternion_group_table, symmetric_group_table)
from strathom.enrich import (delinearize, is_separable, linearize,
                             matrix_algebra, monoid_algebra,
                             separable_by_trace_form,
                             truncated_polynomial_algebra)
from strathom.exactla import QQ, ZZ, RingFp
from strathom.facthom import (centralizer_homology, complex_dims,
                              cyclic_homology, hochschild_homology,
                              negative_cyclic_homology)
from strathom.fincat import monoid_category

from helpers import connected_groupoid, rescaled, separability_pool


IDEM = {
    "objects": ["*"],
    "homs": {"*->*": ["id", "phi"]},
    "compose": {"id*id": "id", "id*phi": "phi", "phi*id": "phi",
                "phi*phi": "phi"},
    "units": {"*": "id"},
}

Q_ALGEBRA = {
    "ring": "Q",
    "objects": ["*"],
    "hom_dims": {"*->*": ["1"]},
    "structure_constants": {"*,*,*": {"1,1": {"1": "1"}}},
    "units": {"*": {"1": "1"}},
}

CIRCLE = {"vertices": [], "edges": [], "circles": 1}


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, data in (("idem", IDEM), ("q", Q_ALGEBRA), ("s1", CIRCLE)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_hh_verb(inputs, capsys):
    code, out = run(capsys, "hh", "--algebra", inputs["q"], "--max-degree", "4")
    assert code == 0
    data = json.loads(out)
    assert [g["rank"] for g in data["groups"]] == [1, 0, 0, 0, 0]


def test_hc_verb(inputs, capsys):
    code, out = run(capsys, "hc", "--algebra", inputs["q"], "--max-degree", "4")
    assert code == 0
    data = json.loads(out)
    assert [g["rank"] for g in data["groups"]] == [1, 0, 1, 0, 1]


def test_thh_set_verb(inputs, capsys):
    code, out = run(capsys, "thh-set", "--category", inputs["idem"])
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 2


def test_tc0_verb_with_degrees(inputs, capsys):
    code, out = run(capsys, "tc0", "--category", inputs["idem"],
                    "--degrees", "2,3,5")
    assert code == 0
    data = json.loads(out)
    assert data["tc0"] == ["id", "phi"]
    assert data["model"] == "strict-pi0"
    assert data["trace"] == {"*": "id"}


def test_trace_verb(inputs, capsys):
    code, out = run(capsys, "trace", "--category", inputs["idem"])
    assert code == 0
    assert json.loads(out)["trace"] == {"*": "id"}


def test_facthom_verb_over_circle(inputs, capsys):
    code, out = run(capsys, "facthom", "--manifold", inputs["s1"],
                    "--category", inputs["idem"])
    assert code == 0
    assert json.loads(out)["cardinality"] == 2


def _under_a_memory_cap(argv, **environ):
    """`strathom *argv` in a subprocess whose address space is capped at
    1 GiB, so that a runaway allocation fails fast instead of filling the
    machine's memory.  `environ` is added to the subprocess's environment.
    Checks that stderr is empty; returns the exit code and the parsed
    stdout."""
    import os
    import subprocess
    import sys
    import strathom
    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(strathom.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **environ)
    env.pop("FH_CACHE", None)
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "strathom.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.stderr == ""
    return proc.returncode, json.loads(proc.stdout)


def _facthom_under_a_memory_cap(inputs, tmp_path, circles, category=None,
                                edges=0, **environ):
    """`strathom facthom` on `circles` circles, beside an interval of
    `edges` edges when `edges` > 0, with the walking idempotent (or the
    category file `category`), under `_under_a_memory_cap`, so that
    enumerating the 2^(circles + edges) elements fails fast.  Returns the
    exit code, the parsed stdout and the manifold file."""
    mani = tmp_path / f"circles{circles}-edges{edges}.json"
    mani.write_text(json.dumps({
        "vertices": [f"v{i}" for i in range(edges + 1)] if edges else [],
        "edges": [{"id": f"e{i}", "src": f"v{i}", "dst": f"v{i + 1}"}
                  for i in range(edges)],
        "circles": circles}))
    code, result = _under_a_memory_cap(
        ["facthom", "--manifold", str(mani), "--category",
         category or inputs["idem"]], **environ)
    return code, result, mani


def test_facthom_counts_without_enumerating(inputs, tmp_path):
    code, result, _ = _facthom_under_a_memory_cap(inputs, tmp_path, 26)
    assert code == 0
    assert result["cardinality"] == 2 ** 26
    # with at most one trace class the count is exact for any circle count
    for homs, count in (({}, 0), ({"*->*": ["id"]}, 1)):
        category = tmp_path / "small.json"
        category.write_text(json.dumps({
            "objects": ["*"] if homs else [], "homs": homs,
            "compose": {"id*id": "id"} if homs else {},
            "units": {"*": "id"} if homs else {}}))
        code, result, _ = _facthom_under_a_memory_cap(
            inputs, tmp_path, 10 ** 19, str(category))
        assert code == 0
        assert result["cardinality"] == count


def test_facthom_counts_disk_components_without_enumerating(inputs,
                                                           tmp_path):
    # 2^26 edge decorations of a 26-edge interval; listing them took 1.25 GB
    # at 22 edges
    code, result, _ = _facthom_under_a_memory_cap(inputs, tmp_path, 0,
                                                  edges=26)
    assert (code, result["cardinality"]) == (0, 67108864)


def test_facthom_count_too_long_to_print_is_a_validation_failure(
        inputs, tmp_path, capsys):
    # 2^15000 has 4,516 decimal digits, past Python's default limit of
    # 4,300; 2^1,600,000 took 52 s to multiply out before it was reported,
    # and 10^19 copies of the circle factor did not fit in a list
    import sys
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    for circles in (15000, 1_600_000, 10 ** 19):
        code, result, mani = _facthom_under_a_memory_cap(inputs, tmp_path,
                                                         circles)
        assert code == 1
        assert result["error"]["type"] == "validation"
        assert "too many to print" in result["error"]["report"][0]
        # the capped run has ruled out a runaway allocation; time the verb
        # itself in this process, without the process start
        start = time.perf_counter()
        code, out = run(capsys, "facthom", "--manifold", str(mani),
                        "--category", inputs["idem"])
        assert time.perf_counter() - start < 1
        assert (code, json.loads(out)) == (1, result)


def test_facthom_count_past_memory_is_reported_with_the_digit_limit_off(
        inputs, tmp_path):
    # with PYTHONINTMAXSTRDIGITS=0 no digit limit bounds the count, so the
    # 3·10^18-digit count of 10^19 circles is measured against memory
    code, result, _ = _facthom_under_a_memory_cap(
        inputs, tmp_path, 10 ** 19, PYTHONINTMAXSTRDIGITS="0")
    assert code == 1
    assert "too many to print" in result["error"]["report"][0]


def test_facthom_runs_on_a_python_without_a_digit_limit(
        inputs, capsys, monkeypatch):
    # Python before 3.10.7 has no sys.get_int_max_str_digits
    import sys
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    code, out = run(capsys, "facthom", "--manifold", inputs["s1"],
                    "--category", inputs["idem"])
    assert code == 0
    assert json.loads(out)["cardinality"] == 2


def test_facthom_linear_backend(inputs, tmp_path, capsys):
    mani = tmp_path / "interval.json"
    mani.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "src": "a", "dst": "b"}], "circles": 0}))
    code, out = run(capsys, "facthom", "--manifold", str(mani),
                    "--category", inputs["q"])
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_facthom_linear_dimension_is_counted(inputs, tmp_path, capsys):
    # the walking idempotent's linearization has a 2-dimensional hom, so a
    # 40-edge interval has dimension 2^40: counted, never listed
    from strathom import (QQ, linearize, standard_interval,
                          walking_idempotent)
    alg = tmp_path / "idem-q.json"
    alg.write_text(json.dumps(
        linearize(walking_idempotent(), QQ).to_json_dict()))
    mani = tmp_path / "interval40.json"
    mani.write_text(json.dumps(standard_interval(40).to_json_dict()))
    code, out = run(capsys, "facthom", "--manifold", str(mani),
                    "--category", str(alg))
    assert (code, json.loads(out)["dimension"]) == (0, 2 ** 40)


def test_schema_error_exit_code(inputs, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "thh-set", "--category", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "schema"


def test_missing_file_is_schema_error(inputs, capsys):
    code, out = run(capsys, "thh-set", "--category", "/nonexistent.json")
    assert code == 2


def test_validation_error_exit_code(tmp_path, capsys):
    broken = dict(IDEM, compose={"id*id": "id"})
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(broken))
    code, out = run(capsys, "thh-set", "--category", str(p))
    assert code == 1
    data = json.loads(out)
    assert data["error"]["type"] == "validation"
    assert any("missing composite" in r for r in data["error"]["report"])


def test_repeated_morphism_name_is_a_validation_failure(tmp_path, capsys):
    """A hom list that repeats a name is well-formed JSON of the right types,
    so it is reported by validation, like a repeated object."""
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps(dict(IDEM, homs={"*->*": ["id", "phi", "id"]})))
    code, out = run(capsys, "thh-set", "--category", str(p))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "validation",
                                        "report": ["duplicate morphism id"]}


def test_name_repeated_across_homs_is_reported_once(tmp_path, capsys):
    p = tmp_path / "repeated.json"
    p.write_text(json.dumps({
        "objects": ["x", "y"],
        "homs": {"x->x": ["ix"], "y->y": ["iy"], "x->y": ["f"], "y->x": ["f"]},
        "compose": {"ix*ix": "ix", "iy*iy": "iy", "f*ix": "f", "iy*f": "f"},
        "units": {"x": "ix", "y": "iy"}}))
    code, out = run(capsys, "thh-set", "--category", str(p))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "validation",
                                        "report": ["duplicate morphism f"]}


D1 = {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}],
      "circles": 0}


@pytest.mark.parametrize("data, finding", [
    (dict(IDEM, objects=["*", "*"]), "duplicate object *"),
    (dict(Q_ALGEBRA, objects=["*", "*"]), "duplicate object *"),
    (dict(Q_ALGEBRA, hom_dims={"*->*": ["1", "1"]}),
     "duplicate basis element 1 in hom(*, *)"),
    (dict(Q_ALGEBRA, hom_dims={"*->*": ["1"], "*->y": ["f"]}),
     "hom (*,y) references unknown object"),
    (dict(IDEM, homs={"*->*": ["id"], "*->ghost": []}, compose={"id*id": "id"}),
     "hom (*,ghost) references unknown object"),
    (dict(IDEM, units={"*": "id", "ghost": "id"}),
     "unit for ghost references unknown object"),
    (dict(Q_ALGEBRA, structure_constants={"*,*,*": {"1,1": {"1": "1"}},
                                          "*,*,ghost": {}}),
     "structure constants at *,*,ghost reference unknown object"),
    (dict(Q_ALGEBRA, units={"*": {"1": "1"}, "ghost": {}}),
     "unit at ghost references unknown object"),
], ids=["set-object", "linear-object", "linear-basis", "linear-unknown-object",
        "set-empty-hom-unknown-object", "set-unit-unknown-object",
        "linear-structure-constants-unknown-object",
        "linear-unit-unknown-object"])
def test_repeated_or_unknown_names_are_validation_failures(tmp_path, capsys,
                                                           data, finding):
    """A repeated name used to be counted twice: `facthom` on the idempotent
    with its object listed twice gave cardinality 4 over d1, and `hh` of Q
    with a repeated object or basis element gave HH_0 of rank 2.  An empty
    hom used to be dropped before validation, so its unknown object went
    unreported and `facthom` exited 0; unit and structure-constant keys on
    an unknown object went unchecked, and `thh-set` and `hh` exited 0."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(data))
    mani = tmp_path / "d1.json"
    mani.write_text(json.dumps(D1))
    argv = (("hh", "--algebra", str(path)) if "ring" in data else
            ("facthom", "--manifold", str(mani), "--category", str(path)))
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == {"type": "validation",
                                        "report": [finding]}


@pytest.mark.parametrize("count", [-1, 100_000_000_000])
def test_hom_count_outside_its_bound_is_a_schema_error(tmp_path, capsys,
                                                       count):
    """A negative count used to be read as an empty hom, and 10^11 was
    expanded into names before anything checked it: a MemoryError traceback
    under a 1 GB cap.  No count past the number of structure-constant
    entries can pass the right unit law, so it is refused before any name
    is built."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(dict(Q_ALGEBRA, hom_dims={"*->*": count})))
    error = {"type": "schema", "message": (
        f"{path}: hom_dims['*->*'] must be a count from 0 to 1, the number "
        f"of structure-constant entries, found {count}")}
    assert _under_a_memory_cap(["hh", "--algebra", str(path)]) == (
        2, {"error": error})
    # the capped run has ruled out a runaway allocation; time the verb
    # itself in this process, without the process start
    start = time.perf_counter()
    code, out = run(capsys, "hh", "--algebra", str(path))
    assert time.perf_counter() - start < 1
    assert (code, json.loads(out)) == (2, {"error": error})


DUAL_NUMBERS = dict(Q_ALGEBRA, hom_dims={"*->*": ["1", "x"]},
                    structure_constants={"*,*,*": {
                        "1,1": {"1": "1"}, "1,x": {"x": "1"},
                        "x,1": {"x": "1"}, "x,x": {}}})


def _dual_numbers_with(pair, vec):
    table = dict(DUAL_NUMBERS["structure_constants"]["*,*,*"], **{pair: vec})
    return dict(DUAL_NUMBERS, structure_constants={"*,*,*": table})


@pytest.mark.parametrize("verb", ["hh", "hc"])
@pytest.mark.parametrize("data, finding", [
    (dict(DUAL_NUMBERS, units={"*": {"1": "1", "z": "1"}}),
     "unit at * names z, not in hom(*, *)"),
    (_dual_numbers_with("x,x", {"y": "1"}),
     "structure constant x,x at *,*,* names y, not in hom(*, *)"),
    (_dual_numbers_with("x,w", {}),
     "structure constant x,w at *,*,* is not a pair in hom(*, *) x hom(*, *)"),
], ids=["unit", "vector", "pair"])
def test_vector_naming_an_element_outside_its_hom_is_a_validation_failure(
        tmp_path, capsys, verb, data, finding):
    """The unit used to pass the unit laws, since products with z are absent
    from the table, and then `hc` ended in a KeyError traceback; the
    structure constant was reported as an associativity failure."""
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, verb, "--algebra", str(path))
    assert code == 1
    assert json.loads(out)["error"] == {"type": "validation",
                                        "report": [finding]}


def test_a_large_repetition_degree_is_answered_at_once(inputs, capsys):
    """`power` used to compose r - 1 times: 3.9 s at r = 10^7."""
    start = time.perf_counter()
    code, out = run(capsys, "tc0", "--category", inputs["idem"],
                    "--degrees", f"2,{10 ** 15}")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["tc0"] == ["id", "phi"]


@pytest.mark.parametrize("modulus, code, message", [
    (10 ** 18 + 3, 0, None),
    (10 ** 18 + 1, 2, "is not prime"),
    # a strong pseudoprime to the bases 2, 3, 5 and 7; its least factor is 151
    (3215031751, 2, "is not prime"),
    # a strong pseudoprime to every prime base up to 37
    (318665857834031151167461, 2, "is not prime"),
    (3317044064679887385961981, 2, "beyond the exact primality bound"),
])
def test_large_fp_modulus_is_decided_at_once(tmp_path, capsys, modulus, code,
                                             message):
    """Trial division up to the square root of 10^18 + 3 ran for more than
    20 s; Miller-Rabin decides every modulus below its exact bound at once,
    and a modulus above the bound is a schema error."""
    path = tmp_path / "fp.json"
    path.write_text(json.dumps(dict(Q_ALGEBRA, ring=f"Fp:{modulus}")))
    start = time.perf_counter()
    got, out = run(capsys, "hh", "--algebra", str(path))
    assert time.perf_counter() - start < 1
    assert got == code
    if message:
        assert message in json.loads(out)["error"]["message"]
    else:
        assert [g["rank"] for g in json.loads(out)["groups"]] == [1, 0, 0, 0, 0]


def test_backend_mismatch_is_validation_error(inputs, capsys):
    code, out = run(capsys, "facthom", "--manifold", inputs["s1"],
                    "--category", inputs["q"], "--backend", "set")
    assert code == 1


def _rendered(result):
    """The whole stdout `main` writes for `result`."""
    return json.dumps(result, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv, code, error", [
    (["thh-set", "--category", "{q}"], 2,
     {"type": "schema", "message": "{q}: expected a Set-enriched category, "
                                   "found a linear one (has 'ring')"}),
    (["hh", "--algebra", "{idem}"], 2,
     {"type": "schema", "message": "{idem}: linear input needs a 'ring' "
                                   "field"}),
    (["tc0", "--category", "{idem}", "--degrees", "2,x"], 2,
     {"type": "schema", "message": "bad degree list '2,x'"}),
    (["facthom", "--manifold", "{s1}", "--category", "{idem}",
      "--backend", "Q"], 1,
     {"type": "validation", "report": [
         "--backend Q given but the category file is Set-enriched"]}),
    (["facthom", "--manifold", "{s1}", "--category", "{q}"], 1,
     {"type": "validation", "report": [
         "linear factorization homology over circles is the hh verb"]}),
], ids=["thh-set-on-linear", "hh-on-set", "tc0-bad-degree",
        "facthom-linear-backend-on-set", "facthom-linear-over-a-circle"])
def test_input_contract_errors_are_the_whole_stdout(inputs, capsys, argv,
                                                    code, error):
    """Each error is the one JSON object on stdout, with nothing on stderr;
    "{q}" and the like stand for the paths of the `inputs` files."""
    assert main([arg.format(**inputs) for arg in argv]) == code
    captured = capsys.readouterr()
    error = {k: v.format(**inputs) if k == "message" else v
             for k, v in error.items()}
    assert (captured.out, captured.err) == (_rendered({"error": error}), "")


def test_check_exits_1_when_a_suite_fails(capsys, monkeypatch):
    from strathom import cli
    from strathom.checks import Report

    def failing_suite(name):
        report = Report(name)
        report.check(True, "kept")
        report.check(False, "broken")
        return report.as_dict()
    monkeypatch.setattr(cli, "run_suite", failing_suite)
    assert main(["check", "--suite", "segal"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (_rendered({
        "verb": "check", "suite": "segal", "passed": 1, "failed": 1,
        "failures": ["broken"]}), "")


def test_repeated_runs_are_byte_identical(inputs, capsys, tmp_path):
    cache = str(tmp_path / "cache")
    outs = []
    for _ in range(3):
        code, out = run(capsys, "tc0", "--category", inputs["idem"],
                        "--cache", cache)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    # the cache actually stored something
    import os
    assert os.listdir(cache)


def test_cache_hit_never_changes_result(inputs, capsys, tmp_path):
    cache = str(tmp_path / "cache")
    _, cold = run(capsys, "hh", "--algebra", inputs["q"], "--cache", cache)
    _, warm = run(capsys, "hh", "--algebra", inputs["q"], "--cache", cache)
    assert cold == warm


def test_table_output_mirrors_json(inputs, capsys):
    _, as_json = run(capsys, "tc0", "--category", inputs["idem"])
    _, as_table = run(capsys, "tc0", "--category", inputs["idem"],
                      "--out", "table")
    data = json.loads(as_json)
    # every leaf of the JSON appears in the table
    for line in render_table(data).strip().splitlines():
        assert line in as_table


def test_check_verb_runs_named_suite(capsys):
    code, out = run(capsys, "check", "--suite", "segal")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "segal"
    assert data["failed"] == 0
    assert data["passed"] > 0


def test_check_verb_rejects_unknown_suite(capsys):
    code, out = run(capsys, "check", "--suite", "nope")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "schema"


@pytest.mark.parametrize("argv, named", [
    (["tc0", "--category", "c.json", "--bogus"], "--bogus"),
    (["hh", "--algebra", "a.json", "--max-degree", "x"], "--max-degree"),
    (["check", "--suite", "nope"], "nope"),
    (["tc0"], "--category"),
    ([], "verb"),
])
def test_usage_errors_are_json_schema_errors(argv, named, capsys):
    """A bad invocation exits 2 with one JSON schema error on stdout, as a
    bad input file does, and writes no argparse usage text."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "schema" and named in error["message"]


@pytest.mark.parametrize("argv", [["--help"], ["tc0", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: strathom")


def test_env_cache_dir_is_used(inputs, capsys, tmp_path, monkeypatch):
    import os
    cache = tmp_path / "envcache"
    monkeypatch.setenv("FH_CACHE", str(cache))
    code, _ = run(capsys, "trace", "--category", inputs["idem"])
    assert code == 0
    assert os.listdir(cache)


def test_parser_is_shared_but_fh_cache_is_read_per_call(inputs, capsys,
                                                        tmp_path, monkeypatch):
    import os
    from strathom.cli import build_parser
    monkeypatch.delenv("FH_CACHE", raising=False)
    assert run(capsys, "trace", "--category", inputs["idem"])[0] == 0
    cache = tmp_path / "late"
    monkeypatch.setenv("FH_CACHE", str(cache))
    assert run(capsys, "trace", "--category", inputs["idem"])[0] == 0
    assert os.listdir(cache)
    assert build_parser() is build_parser()


def test_prime_field_backend_end_to_end(tmp_path, capsys):
    alg = {
        "ring": "Fp:5",
        "objects": ["*"],
        "hom_dims": {"*->*": ["1", "x"]},
        "structure_constants": {"*,*,*": {
            "1,1": {"1": "1"}, "1,x": {"x": "1"},
            "x,1": {"x": "1"}, "x,x": {}}},
        "units": {"*": {"1": "1"}},
    }
    path = tmp_path / "f5.json"
    path.write_text(json.dumps(alg))
    code, out = run(capsys, "hh", "--algebra", str(path), "--max-degree", "2")
    assert code == 0
    data = json.loads(out)
    assert data["ring"] == "Fp:5"
    # k[x]/x^2 over a field of characteristic not 2: HH_n has rank 1 for n=0
    # and 1 in each higher degree (the classical truncated-polynomial answer)
    assert [g["rank"] for g in data["groups"]] == [2, 1, 1]

    mani = tmp_path / "d1.json"
    mani.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "src": "a", "dst": "b"}], "circles": 0}))
    code, out = run(capsys, "facthom", "--manifold", str(mani),
                    "--category", str(path), "--backend", "Fp:5")
    assert code == 0
    assert json.loads(out)["dimension"] == 2
    code, _ = run(capsys, "facthom", "--manifold", str(mani),
                  "--category", str(path), "--backend", "Q")
    assert code == 1


def test_negative_cyclic_mode(inputs, capsys):
    code, out = run(capsys, "hc", "--algebra", inputs["q"],
                    "--max-degree", "2", "--negative", "--i-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "negative"
    assert data["truncated_at_column"] == 2
    assert data["exact"] is True
    assert data["certificate"] == "separable"
    assert data["hh_vanishes_above"] == 0
    assert [g["rank"] for g in data["groups"]] == [1, 0, 0]


def _record_engine_calls(monkeypatch):
    """The CLI's calls of `hochschild_homology`, `cyclic_homology`,
    `negative_cyclic_homology` and `centralizer_homology`, as (name, n_max)
    or (name, n_max, i_max) in a list that fills as they happen; the calls
    still run."""
    calls = []
    for engine in (hochschild_homology, cyclic_homology,
                   negative_cyclic_homology):
        def record(alg, *degrees, engine=engine):
            calls.append((engine.__name__, *degrees))
            return engine(alg, *degrees)
        monkeypatch.setattr(cli, engine.__name__, record)

    def centralizers(cat, ring, n_max):
        calls.append(("centralizer_homology", n_max))
        return centralizer_homology(cat, ring, n_max)
    monkeypatch.setattr(cli, "centralizer_homology", centralizers)
    return calls


# the most elements of the complex that a negative run may build, so that
# the full-complex oracle of every run fits in a few seconds altogether
NEGATIVE_BUDGET = 10_000


def _negative_top(alg, top, i_max):
    """The largest n_max <= top for which `hc --negative` builds at most
    NEGATIVE_BUDGET elements of the complex, to degree n_max + 2·i_max + 1,
    or None when even n_max = 0 builds more."""
    dims = list(itertools.islice(complex_dims(alg), top + 2 * i_max + 2))
    fits = [n for n in range(top + 1)
            if sum(dims[:n + 2 * i_max + 2]) <= NEGATIVE_BUDGET]
    return max(fits, default=None)


def _hh_and_hc_through_the_cli(tmp_path, capsys, monkeypatch, pool):
    """For each (name, algebra) of `pool`: the name, the top degree asked,
    per verb the engine calls the CLI made and the groups it printed, and
    per i_max in 0, 1, 2 the n_max of `_negative_top`, the calls and the
    stdout of `hc --negative` (an i_max without an n_max is left out)."""
    calls = _record_engine_calls(monkeypatch)
    for k, (name, alg) in enumerate(pool):
        top = 3 if sum(map(len, alg.hom_basis.values())) <= 4 else 2
        path = tmp_path / f"algebra{k}.json"
        path.write_text(json.dumps(alg.to_json_dict()))
        runs, negative = {}, {}
        for verb in ("hh", "hc"):
            calls.clear()
            code, out = run(capsys, verb, "--algebra", str(path),
                            "--max-degree", str(top))
            assert code == 0, name
            runs[verb] = (list(calls), json.loads(out)["groups"])
        for i_max in (0, 1, 2):
            n_max = _negative_top(alg, top, i_max)
            if n_max is None:
                continue
            calls.clear()
            code, out = run(capsys, "hc", "--negative", "--algebra",
                            str(path), "--max-degree", str(n_max),
                            "--i-max", str(i_max))
            assert code == 0, (name, i_max)
            negative[i_max] = (n_max, list(calls), out)
        yield name, alg, top, runs, negative


def test_certified_hh_and_hc_equal_the_full_complex(tmp_path, capsys,
                                                    monkeypatch):
    # on every algebra of the pools that the trace form certifies, the CLI
    # builds only the boundary C_1 -> C_0, and prints the groups that the
    # full complex gives; `hc --negative` prints, byte for byte, what the
    # library's full truncated (b, B) complex gives
    pool = [(n, a) for n, a in separability_pool()
            if separable_by_trace_form(a)]
    assert len(pool) >= 40
    columns = 0
    for name, alg, top, runs, negative in _hh_and_hc_through_the_cli(
            tmp_path, capsys, monkeypatch, pool):
        for verb, engine in (("hh", hochschild_homology),
                             ("hc", cyclic_homology)):
            calls, groups = runs[verb]
            assert calls == [("hochschild_homology", 0)], (name, verb)
            assert groups == engine(alg, top), (name, verb)
        assert {0, 1} <= set(negative), name
        for i_max, (n_max, calls, out) in negative.items():
            assert calls == [("hochschild_homology", 0)], (name, i_max)
            oracle = {"verb": "hc", "ring": alg.ring.name, "mode": "negative",
                      **negative_cyclic_homology(alg, n_max, i_max)}
            assert out == cli.render_json(oracle), (name, i_max)
            columns += i_max == 2
    assert columns >= 30


# the uncertified algebras of `separability_pool` that are groupoid algebras
UNCERTIFIED_GROUPOIDS = {"Z[Z/2]", "F_3[Z/3]", "F_2[Z/4]"}


def test_inputs_without_a_certificate_stay_on_the_complex(tmp_path, capsys,
                                                          monkeypatch):
    # Z, a radical, or a degenerate trace form over F_p: the CLI runs the
    # full complex, whatever is_separable says, except for `hh` of a
    # groupoid algebra, which its centralizers answer; `hc` and `hc
    # --negative` stay on the complex for every input
    pool = [(n, a) for n, a in separability_pool()
            if not separable_by_trace_form(a)]
    names = {name for name, _ in pool}
    assert {"Q[x]/x^2", "M_2(F_2)"} | UNCERTIFIED_GROUPOIDS <= names
    assert sum(name.startswith("random") and not is_separable(alg)
               for name, alg in pool) >= 5
    for name, alg, top, runs, negative in _hh_and_hc_through_the_cli(
            tmp_path, capsys, monkeypatch, pool):
        engine = ("centralizer_homology" if name in UNCERTIFIED_GROUPOIDS
                  else "hochschild_homology")
        assert runs["hh"][0] == [(engine, top)], name
        assert runs["hh"][1] == hochschild_homology(alg, top), name
        assert runs["hc"][0] == [("cyclic_homology", top)], name
        assert set(negative) == {0, 1, 2}, name
        for i_max, (n_max, calls, _) in negative.items():
            assert calls == [("negative_cyclic_homology", n_max, i_max)], (
                name, i_max)


def _groupoid_pool():
    """(name, Set groupoid) pairs: the groupoids of the category pool
    (discrete2 has two objects), Z/1-Z/6, S_3, Q_8, and two connected
    groupoids on two objects, with automorphism groups Z/1 and S_3."""
    pool = [(n, c) for n, c in small_category_pool()
            if n in ("discrete2", "bz2", "bz3")]
    pool += [(f"Z/{n}", monoid_category(*cyclic_group_table(n)))
             for n in range(1, 7)]
    pool += [("S_3", group_category(*symmetric_group_table(3))),
             ("Q_8", group_category(*quaternion_group_table())),
             ("pair", connected_groupoid(*cyclic_group_table(1), ("x", "y"))),
             ("S_3-pair", connected_groupoid(*symmetric_group_table(3),
                                             ("x", "y")))]
    return pool


@pytest.mark.parametrize("ring", [ZZ, RingFp(2), RingFp(3), RingFp(5)],
                         ids=["Z", "F2", "F3", "F5"])
def test_groupoid_hh_equals_the_full_complex(tmp_path, capsys, monkeypatch,
                                             ring):
    # Burghelea's theorem: HH of a groupoid algebra is the sum over trace
    # classes of its centralizers' group homologies.  The CLI answers an
    # uncertified one from the centralizers and never builds the full
    # complex, whose groups it must print byte for byte
    calls = _record_engine_calls(monkeypatch)
    routed = 0
    for k, (name, cat) in enumerate(_groupoid_pool()):
        alg = linearize(cat, ring)
        top = 3 if sum(map(len, cat.homs.values())) <= 4 else 2
        path = tmp_path / f"groupoid{k}.json"
        path.write_text(json.dumps(alg.to_json_dict()))
        calls.clear()
        code, out = run(capsys, "hh", "--algebra", str(path),
                        "--max-degree", str(top))
        assert code == 0, name
        oracle = {"verb": "hh", "ring": ring.name,
                  "groups": hochschild_homology(alg, top)}
        assert out == cli.render_json(oracle), name
        if separable_by_trace_form(alg):
            assert calls == [("hochschild_homology", 0)], name
        else:
            assert calls == [("centralizer_homology", top)], name
            routed += 1
    # over F_p the groups of order prime to p are certified (Maschke), but
    # for the pair groupoid over F_2, M_2(F_2), whose trace form is 0
    assert routed == {"Z": 13, "Fp:2": 8, "Fp:3": 5, "Fp:5": 1}[ring.name]


@pytest.mark.parametrize("name, alg", [
    ("monoid", monoid_algebra(ZZ, *transformation_monoid(2, 0))),
    ("Z[x]/x^3", truncated_polynomial_algebra(ZZ, 3)),
    ("rescaled Z[S_3]", rescaled(
        linearize(group_category(*symmetric_group_table(3)), ZZ),
        {b: (-1) ** k for k, b in enumerate(symmetric_group_table(3)[0])})),
], ids=["monoid", "poly", "rescaled"])
def test_algebras_that_are_not_groupoid_algebras_stay_on_the_complex(
        tmp_path, capsys, monkeypatch, name, alg):
    # the monoid and Z[x]/x^3 are read back as Set categories that are not
    # groupoids; the rescaled basis is not read back at all
    assert (delinearize(alg) is None) == name.startswith("rescaled")
    calls = _record_engine_calls(monkeypatch)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json_dict()))
    code, out = run(capsys, "hh", "--algebra", str(path), "--max-degree", "2")
    assert code == 0
    assert calls == [("hochschild_homology", 2)], name


def test_the_centralizer_route_bounds_its_own_complexes(tmp_path, capsys,
                                                        monkeypatch):
    # Z[S_3] to degree 3: the nerve of S_3 to degree 4 holds n·5^n
    # references in degree n, 2,930 in all, and the full complex to
    # degree 4 22,266: with room for the first alone the route answers,
    # and with less it is refused before anything is built
    alg = linearize(group_category(*symmetric_group_table(3)), ZZ)
    path = tmp_path / "z-s3.json"
    path.write_text(json.dumps(alg.to_json_dict()))
    argv = ("hh", "--algebra", str(path), "--max-degree", "3")
    calls = _record_engine_calls(monkeypatch)
    monkeypatch.setattr(cli, "_memory_bytes", lambda: 60_000)
    code, out = run(capsys, *argv)
    assert code == 0
    assert calls == [("centralizer_homology", 3)]
    assert json.loads(out)["groups"] == hochschild_homology(alg, 3)
    calls.clear()
    monkeypatch.setattr(cli, "_memory_bytes", lambda: 20_000)
    code, out = run(capsys, *argv)
    assert code == 1
    assert "bytes of memory" in json.loads(out)["error"]["report"][0]
    assert calls == []


def _oversized(tmp_path, argv):
    """`strathom *argv` under `_under_a_memory_cap`, with ALGEBRA in argv
    standing for M_2(Q), POLY for Q[x]/x^3 and GROUP for Z[S_3], timed:
    (exit code, parsed stdout, seconds)."""
    files = {}
    for key, alg in (("ALGEBRA", matrix_algebra(QQ, 2)),
                     ("POLY", truncated_polynomial_algebra(QQ, 3)),
                     ("GROUP", linearize(group_category(
                         *symmetric_group_table(3)), ZZ))):
        files[key] = tmp_path / f"{key.lower()}.json"
        files[key].write_text(json.dumps(alg.to_json_dict()))
    start = time.perf_counter()
    code, result = _under_a_memory_cap(
        [str(files.get(arg, arg)) for arg in argv])
    return code, result, time.perf_counter() - start


@pytest.mark.parametrize("argv", [
    # certified: 10^12 + 1 groups do not fit in any memory
    ("hh", "--algebra", "ALGEBRA", "--max-degree", str(10 ** 12)),
    ("hc", "--algebra", "ALGEBRA", "--max-degree", str(10 ** 12)),
    # on the complex: dim C_n = 3·2^n, past any memory by n = 60
    ("hh", "--algebra", "POLY", "--max-degree", "60"),
    ("hc", "--algebra", "POLY", "--max-degree", "60"),
    ("hc", "--negative", "--algebra", "POLY", "--max-degree", "2",
     "--i-max", "30"),
    ("hc", "--negative", "--algebra", "POLY", "--max-degree", str(10 ** 12)),
    # on the centralizers: the nerve of S_3 holds n·5^n references in
    # degree n, past any memory by n = 30
    ("hh", "--algebra", "GROUP", "--max-degree", "30"),
    ("hh", "--algebra", "GROUP", "--max-degree", str(10 ** 12)),
], ids=["hh-certified", "hc-certified", "hh-complex", "hc-complex",
        "negative-columns", "negative-degree", "hh-centralizers",
        "hh-centralizers-groups"])
def test_an_oversized_degree_is_refused_before_anything_is_built(tmp_path,
                                                                 argv):
    # under a 1 GiB cap these ran into a MemoryError traceback, and without
    # a cap --max-degree 10^8 ran past 20 s
    code, result, seconds = _oversized(tmp_path, argv)
    assert code == 1
    assert result["error"]["type"] == "validation"
    assert "bytes of memory" in result["error"]["report"][0]
    assert seconds < 2


def test_running_out_of_memory_is_a_validation_failure(tmp_path):
    # Q[x]/x^3 to degree 21 passes the memory bound's loose estimate on a
    # machine of 8 GB and then runs out of the 1 GiB cap while it builds:
    # a MemoryError, which must not end in a traceback.  A machine with
    # less memory refuses it up front, with a report of the same shape
    code, result, _ = _oversized(
        tmp_path, ("hh", "--algebra", "POLY", "--max-degree", "21"))
    assert code == 1
    assert result["error"]["type"] == "validation"
    assert "memory" in result["error"]["report"][0]


def test_a_large_degree_of_a_separable_algebra_is_answered(tmp_path):
    # M_2(Q) under the cap: the trace form certifies it, so only HH_0 is
    # built, also for the negative theory and its 2·i_max more degrees
    for argv, ranks in (
            (("hh", "--max-degree", "30"), [1] + [0] * 30),
            (("hc", "--negative", "--max-degree", "30", "--i-max", "30"),
             [1] + [0] * 30),
            (("hc", "--negative"), [1, 0, 0, 0, 0])):
        code, result, seconds = _oversized(
            tmp_path, argv + ("--algebra", "ALGEBRA"))
        assert code == 0, argv
        assert [g["rank"] for g in result["groups"]] == ranks, argv
        assert result.get("exact", True) is True, argv
        assert seconds < 2, argv


def test_unparseable_cache_entry_is_a_miss_and_is_overwritten(inputs, tmp_path,
                                                               capsys):
    cache = tmp_path / "cache"
    argv = ("tc0", "--category", inputs["idem"], "--cache", str(cache))
    _, fresh = run(capsys, *argv)
    (entry,) = cache.glob("*.json")
    stored = entry.read_text()
    entry.write_text(stored[: len(stored) // 2])
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == fresh
    assert entry.read_text() == stored


def test_deeply_nested_cache_entry_is_a_miss_and_is_overwritten(
        inputs, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ("thh-set", "--category", inputs["idem"])
    _, fresh = run(capsys, *argv)
    run(capsys, *argv, "--cache", str(cache))
    (entry,) = cache.glob("*.json")
    stored = entry.read_text()
    entry.write_text("[" * 100_000)
    code, out = run(capsys, *argv, "--cache", str(cache))
    assert code == 0
    assert out == fresh
    assert entry.read_text() == stored


FORGED = cli.render_json({"verb": "tc0", "tc0": ["forged"]})


def _stored_entry(cache):
    (entry,) = cache.glob("*.json")
    return entry, json.loads(entry.read_text())


@pytest.mark.parametrize("field,value", [("verb", "trace"), ("key", "0" * 64)])
def test_entry_for_another_verb_or_key_is_a_miss_and_is_overwritten(
        inputs, tmp_path, capsys, field, value):
    cache = tmp_path / "cache"
    argv = ("tc0", "--category", inputs["idem"], "--cache", str(cache))
    _, fresh = run(capsys, *argv)
    entry, stored = _stored_entry(cache)
    assert stored["verb"] == "tc0" and stored["key"] == entry.stem
    stored_text = entry.read_text()
    tampered = dict(stored, text=FORGED)
    tampered[field] = value
    entry.write_text(json.dumps(tampered))
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == fresh
    assert entry.read_text() == stored_text


def test_entry_made_by_other_code_is_not_served(inputs, tmp_path, capsys,
                                                monkeypatch):
    import strathom.cli as cli
    cache = tmp_path / "cache"
    argv = ("tc0", "--category", inputs["idem"], "--cache", str(cache))
    _, fresh = run(capsys, *argv[:-2])
    monkeypatch.setattr(cli, "_code_digest", lambda: "other sources")
    run(capsys, *argv)
    entry, stored = _stored_entry(cache)
    entry.write_text(json.dumps(dict(stored, text=FORGED)))
    # under its own digest the forged entry is served ...
    assert "forged" in run(capsys, *argv)[1]
    monkeypatch.undo()
    # ... but not to the current sources
    code, out = run(capsys, *argv)
    assert code == 0 and out == fresh
    assert len(list(cache.glob("*.json"))) == 2


def _caching_verbs(inputs, tmp_path):
    """An argv for each verb that caches, `hc --negative` and both
    `facthom` backends included; HH over Z of Z[Z/2] has torsion."""
    from strathom import ZZ, linearize
    from strathom.cyclo import cyclic_group_table, group_category
    z2 = tmp_path / "z-z2.json"
    z2.write_text(json.dumps(linearize(group_category(
        *cyclic_group_table(2)), ZZ).to_json_dict()))
    interval = tmp_path / "interval.json"
    interval.write_text(json.dumps(PATH2))
    return {
        "hh": ("hh", "--algebra", str(z2), "--max-degree", "3"),
        "hc": ("hc", "--algebra", str(z2), "--max-degree", "3"),
        "hc-negative": ("hc", "--negative", "--algebra", str(z2),
                        "--max-degree", "2", "--i-max", "1"),
        "thh-set": ("thh-set", "--category", inputs["idem"]),
        "tc0": ("tc0", "--category", inputs["idem"], "--degrees", "2,3"),
        "trace": ("trace", "--category", inputs["idem"]),
        "facthom-set": ("facthom", "--manifold", inputs["s1"],
                        "--category", inputs["idem"]),
        "facthom-linear": ("facthom", "--manifold", str(interval),
                           "--category", inputs["q"]),
    }


@pytest.mark.parametrize("out", ["json", "table"])
def test_a_hit_prints_the_bytes_of_the_miss(inputs, tmp_path, capsys, out):
    """On every verb that caches: an uncached run, the miss that stores the
    entry and the hit that serves it print the same bytes; the entry holds
    the JSON output, which a hit of the other format reads too."""
    for name, argv in _caching_verbs(inputs, tmp_path).items():
        cache = tmp_path / f"cache-{name}"
        argv = (*argv, "--out", out)
        runs = [run(capsys, *argv)] + [run(capsys, *argv, "--cache",
                                           str(cache)) for _ in range(2)]
        assert runs[0][0] == 0 and runs[0] == runs[1] == runs[2], name
        _, stored = _stored_entry(cache)
        assert stored["text"] == run(capsys, *argv[:-1], "json")[1], name
        other = "table" if out == "json" else "json"
        assert (run(capsys, *argv[:-1], other, "--cache", str(cache))
                == run(capsys, *argv[:-1], other)), name


@pytest.mark.parametrize("text", [["forged"], {"tc0": "forged"}, 7, None])
def test_entry_whose_text_is_not_a_str_is_a_miss_and_is_overwritten(
        inputs, tmp_path, capsys, text):
    cache = tmp_path / "cache"
    argv = ("tc0", "--category", inputs["idem"], "--cache", str(cache))
    _, fresh = run(capsys, *argv)
    entry, stored = _stored_entry(cache)
    stored_text = entry.read_text()
    entry.write_text(json.dumps(dict(stored, text=text)))
    assert run(capsys, *argv) == (0, fresh)
    assert entry.read_text() == stored_text


@pytest.mark.parametrize("text", ["{not json", "[" * 100_000, ""])
def test_table_hit_whose_text_does_not_parse_is_a_miss(inputs, tmp_path,
                                                       text):
    cache = tmp_path / "cache"
    argv = ["tc0", "--category", inputs["idem"], "--out", "table"]
    fresh = _main(argv)
    _main(argv + ["--cache", str(cache)])
    entry, stored = _stored_entry(cache)
    stored_text = entry.read_text()
    entry.write_text(json.dumps(dict(stored, text=text)))
    assert _main(argv + ["--cache", str(cache)]) == fresh
    assert fresh[0] == 0 and fresh[2] == ""
    assert entry.read_text() == stored_text


def test_the_key_follows_the_input_bytes_and_not_the_path(inputs, tmp_path,
                                                          capsys):
    """Inputs enter the key as sha256 digests of their text: the same bytes
    under another path hit the entry, and one changed byte, even one that
    parses to the same document, is another key."""
    cache = tmp_path / "cache"
    text = Path(inputs["idem"]).read_text()
    _, fresh = run(capsys, "thh-set", "--category", inputs["idem"],
                   "--cache", str(cache))
    for name, changed in (("same", text), ("space", text + " "),
                          ("name", text.replace("phi", "psi"))):
        path = tmp_path / name / "idem.json"
        path.parent.mkdir()
        path.write_text(changed)
        code, out = run(capsys, "thh-set", "--category", str(path),
                        "--cache", str(cache))
        assert code == 0 and (out == fresh) == (name != "name")
    assert len(list(cache.glob("*.json"))) == 3


def test_cache_path_naming_a_file_is_skipped(inputs, tmp_path, capsys):
    _, fresh = run(capsys, "tc0", "--category", inputs["idem"])
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code, out = run(capsys, "tc0", "--category", inputs["idem"],
                    "--cache", str(blocker))
    assert code == 0
    assert out == fresh
    assert blocker.read_text() == "not a directory"


# -- inputs are read once, and a bad input file is a schema error ---------------

def test_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    """A partial table's validation report comes in a fixed order."""
    import os
    import subprocess
    import sys
    import strathom
    from strathom.cyclo import free_monoid_category
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(free_monoid_category(2, 2).to_json_dict()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(strathom.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        env.pop("FH_CACHE", None)
        proc = subprocess.run(
            [sys.executable, "-m", "strathom.cli", "tc0", "--category",
             str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert "missing composite" in outs[0]


@pytest.mark.parametrize("case", ["directory", "not_utf8", "array"])
def test_bad_input_file_is_a_schema_error(case, tmp_path, capsys):
    path = tmp_path / "input.json"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b"\xff\xfe{}")
    else:
        path.write_text("[1, 2]")
    code, out = run(capsys, "thh-set", "--category", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "schema"
    assert error["message"].startswith(str(path))


DEEP = "[" * 100_000


def test_deeply_nested_input_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    code, out = run(capsys, "thh-set", "--category", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "schema"
    assert error["message"] == f"{path}: not valid JSON (nested too deeply)"


def test_integer_past_the_digit_limit_is_a_schema_error(tmp_path, capsys):
    import sys
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        pytest.skip("this Python parses a 5,000-digit integer")
    path = tmp_path / "long.json"
    path.write_text('{"vertices": [], "edges": [], "circles": '
                    + "9" * 5000 + "}")
    code, out = run(capsys, "facthom", "--manifold", str(path),
                    "--category", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "schema"
    assert error["message"].startswith(f"{path}: not readable JSON (")


def test_each_input_file_is_opened_once(inputs, capsys, monkeypatch):
    import builtins
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.delenv("FH_CACHE", raising=False)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, _ = run(capsys, "facthom", "--manifold", inputs["s1"],
                  "--category", inputs["idem"])
    assert code == 0
    code, _ = run(capsys, "hh", "--algebra", inputs["q"])
    assert code == 0
    assert sorted(opened) == sorted([inputs["s1"], inputs["idem"],
                                     inputs["q"]])


def test_check_is_never_cached(tmp_path, capsys, monkeypatch):
    import strathom.cli as cli
    calls = []
    real_run_suite = cli.run_suite

    def counting_run_suite(name):
        calls.append(name)
        return real_run_suite(name)

    monkeypatch.setattr(cli, "run_suite", counting_run_suite)
    cache = tmp_path / "cache"
    outs = [run(capsys, "check", "--suite", "segal", "--cache", str(cache))
            for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert calls == ["segal", "segal"]
    assert not cache.exists() or not list(cache.iterdir())


@pytest.mark.parametrize("argv", [
    ("hh", "--max-degree", "-3"),
    ("hc", "--negative", "--max-degree", "1", "--i-max", "-2"),
], ids=["max-degree", "i-max"])
def test_negative_degree_option_is_a_schema_error(inputs, capsys, argv):
    code, out = run(capsys, *argv, "--algebra", inputs["q"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "schema"
    assert error["message"] == f"--{argv[-2][2:]} must be >= 0"


# -- wrongly typed JSON fields ----------------------------------------------------

PATH2 = {"vertices": ["a", "b"], "edges": [{"id": "e", "src": "a", "dst": "b"}],
         "circles": 0}

# each verb's argv, with one valid document per input option
VERBS = {
    "hh": (("--max-degree", "1"), {"--algebra": Q_ALGEBRA}),
    "hc": (("--max-degree", "1"), {"--algebra": Q_ALGEBRA}),
    "thh-set": ((), {"--category": IDEM}),
    "tc0": (("--degrees", "2"), {"--category": IDEM}),
    "trace": ((), {"--category": IDEM}),
    "facthom": ((), {"--manifold": PATH2, "--category": IDEM}),
}


def _json_paths(node, prefix=()):
    """The path of every field and every value below the top level."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


TARGETS = [(verb, option, path) for verb, (_, docs) in VERBS.items()
           for option, doc in docs.items() for path in _json_paths(doc)]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


def _json_type(value):
    return {type(None): "null", bool: "bool", int: "number", float: "number",
            str: "string", list: "array", dict: "object"}[type(value)]


def _argv_with_inputs(directory, verb, texts=None):
    """`verb`'s argv with its valid documents written under `directory`;
    `texts` maps an option to text that replaces its document."""
    extra, docs = VERBS[verb]
    argv = [verb, *extra]
    texts = texts or {}
    for opt, doc in docs.items():
        file = directory / f"{opt[2:]}.json"
        file.write_text(texts[opt] if opt in texts else json.dumps(doc))
        argv += [opt, str(file)]
    return argv


def _main(argv):
    """(exit code, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_with_field(tmp_path, verb, option, path, value):
    """Run `verb` with the value at `path` of its `option` input replaced;
    returns (exit code, stdout, stderr)."""
    doc = copy.deepcopy(VERBS[verb][1][option])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return _main(_argv_with_inputs(tmp_path, verb, {option: json.dumps(doc)}))


def _field(verb, option, path):
    doc = VERBS[verb][1][option]
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize("verb, option, path, value", [
    ("thh-set", "--category", ("compose",), []),
    ("trace", "--category", ("compose", "id*id"), ["id"]),
    ("tc0", "--category", ("units", "*"), ["id"]),
    ("hh", "--algebra", ("structure_constants",), []),
    ("hc", "--algebra", ("ring",), 3),
    ("facthom", "--manifold", ("circles",), True),
])
def test_wrongly_typed_field_is_a_schema_error(tmp_path, monkeypatch, verb,
                                               option, path, value):
    monkeypatch.delenv("FH_CACHE", raising=False)
    code, out, _ = _run_with_field(tmp_path, verb, option, path, value)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "schema"
    assert path[0] in error["message"]


def test_vanishing_denominator_is_a_schema_error(tmp_path, monkeypatch):
    monkeypatch.delenv("FH_CACHE", raising=False)
    code, out, _ = _run_with_field(
        tmp_path, "hh", "--algebra",
        ("structure_constants", "*,*,*", "1,1", "1"), "1/0")
    assert code == 2
    assert json.loads(out)["error"]["message"].endswith(
        "bad scalar '1/0': Fraction(1, 0)")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(TARGETS), value=JSON_VALUES)
@example(target=("thh-set", "--category", ("compose",)), value=[])
@example(target=("trace", "--category", ("compose", "id*id")), value=["id"])
@example(target=("tc0", "--category", ("units", "*")), value=["id"])
@example(target=("hh", "--algebra", ("structure_constants",)), value=[])
@example(target=("hc", "--algebra", ("ring",)), value=3)
def test_a_field_of_another_type_never_tracebacks(tmp_path, monkeypatch,
                                                  target, value):
    """Any verb, any one field or value replaced by JSON of another type:
    an exit code of the contract and one JSON object on stdout.  The input
    files are rewritten for each example, so sharing `tmp_path` is safe."""
    assume(_json_type(value) != _json_type(_field(*target)))
    monkeypatch.delenv("FH_CACHE", raising=False)
    code, out, err = _run_with_field(tmp_path, *target, value)
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err


# -- malformed JSON text and bad cache paths -------------------------------------

INPUT_OPTIONS = [(verb, option) for verb, (_, docs) in VERBS.items()
                 for option in docs]

JSON_SCRAPS = st.text(alphabet='[]{}",:-+.0123456789eE ntrufals\\/\n',
                      max_size=8)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=st.sampled_from(INPUT_OPTIONS), start=st.integers(0, 250),
       length=st.integers(0, 40), scrap=st.none() | JSON_SCRAPS)
@example(target=("thh-set", "--category"), start=0, length=10 ** 6,
         scrap=DEEP)
@example(target=("hh", "--algebra"), start=1, length=0, scrap=DEEP)
@example(target=("facthom", "--manifold"), start=0, length=10 ** 6,
         scrap="9" * 5000)
def test_malformed_json_text_never_tracebacks(tmp_path, monkeypatch, target,
                                             start, length, scrap):
    """Any verb, one input's valid text cut at `start` (when `scrap` is
    None) or with `length` characters at `start` replaced by `scrap`: an
    exit code of the contract and one JSON object on stdout.  The input
    files are rewritten for each example, so sharing `tmp_path` is safe."""
    verb, option = target
    text = json.dumps(VERBS[verb][1][option])
    start = min(start, len(text))
    text = (text[:start] if scrap is None
            else text[:start] + scrap + text[start + length:])
    monkeypatch.delenv("FH_CACHE", raising=False)
    code, out, err = _main(_argv_with_inputs(tmp_path, verb, {option: text}))
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err


def _other_value(action):
    """A value for `action` other than its default."""
    if action.nargs == 0:
        return None
    if action.choices:
        return next(c for c in action.choices if c != action.default)
    if action.type is int:
        return str(action.default + 1)
    return "5"


def test_every_option_but_out_and_cache_reaches_the_cache_key(inputs,
                                                              tmp_path):
    """A cache hit must not return a result computed for other options, so
    every parsed option changes the key, and only --out and --cache do
    not."""
    paths = {"algebra": inputs["q"], "category": inputs["idem"],
             "manifold": inputs["s1"]}
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices

    def key(argv):
        args = build_parser().parse_args(argv)
        texts = {attr: Path(getattr(args, attr)).read_text()
                 for attr in _INPUTS if hasattr(args, attr)}
        return _cache_key(_input_fingerprint(args, texts))

    changed = []
    for verb, sub in verbs.items():
        base = [verb]
        for attr in _INPUTS:
            if attr in {a.dest for a in sub._actions}:
                base += [f"--{attr}", paths[attr]]
        plain = key(base)
        assert key(base + ["--out", "table"]) == plain
        assert key(base + ["--cache", str(tmp_path)]) == plain
        for action in sub._actions:
            if (not action.option_strings or action.dest in _INPUTS
                    or action.dest in ("help", "out", "cache")):
                continue
            value = _other_value(action)
            extra = [action.option_strings[0]] + ([] if value is None
                                                  else [value])
            assert key(base + extra) != plain, (verb, extra)
            changed.append((verb, extra[0]))
    assert ("hc", "--negative") in changed and ("check", "--suite") in changed


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verb=st.sampled_from(sorted(VERBS)),
       fault=st.sampled_from(["file for directory", "directory for entry",
                              "truncated entry"]),
       cut=st.integers(0, 400))
def test_a_bad_cache_path_is_passed_over(tmp_path, monkeypatch, verb, fault,
                                         cut):
    """A regular file where the cache directory should be, a directory
    where the entry should be, or an entry cut at `cut`: exit 0 and the
    stdout of an uncached run.  A read-only cache directory is not among
    the faults: a process running as root writes to it all the same."""
    monkeypatch.delenv("FH_CACHE", raising=False)
    home = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = _argv_with_inputs(home, verb)
    fresh = _main(argv)
    assert fresh[0] == 0
    cache = home / "cache"
    if fault == "file for directory":
        cache.write_text("not a directory")
    else:
        _main(argv + ["--cache", str(cache)])
        (entry,) = cache.glob("*.json")
        if fault == "directory for entry":
            entry.unlink()
            entry.mkdir()
        else:
            entry.write_text(entry.read_text()[:cut])
    assert _main(argv + ["--cache", str(cache)]) == fresh
