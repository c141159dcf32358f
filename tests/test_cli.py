import json

import pytest

from strathom.cli import main, render_table


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


def test_facthom_linear_backend(inputs, tmp_path, capsys):
    mani = tmp_path / "interval.json"
    mani.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "src": "a", "dst": "b"}], "circles": 0}))
    code, out = run(capsys, "facthom", "--manifold", str(mani),
                    "--category", inputs["q"])
    assert code == 0
    assert json.loads(out)["dimension"] == 1


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


def test_backend_mismatch_is_validation_error(inputs, capsys):
    code, out = run(capsys, "facthom", "--manifold", inputs["s1"],
                    "--category", inputs["q"], "--backend", "set")
    assert code == 1


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
    with pytest.raises(SystemExit):
        main(["check", "--suite", "nope"])


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
