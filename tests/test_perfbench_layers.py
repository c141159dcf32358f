"""The benchmark's per-layer tracer wraps library functions by name; a
renamed function would only print "traced function ... is missing" there.
This reads the tracer's `LAYERS` table from its source, without importing
the benchmark, and checks that every name still resolves."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layer_targets():
    """(module, attribute path) of each row of `LAYERS`, in order."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["LAYERS"]):
            return [(row.elts[1].value, row.elts[2].value)
                    for row in node.value.elts]
    raise AssertionError(f"no LAYERS table in {TRACER}")


def test_every_traced_layer_resolves():
    targets = _layer_targets()
    assert len(targets) > 20
    for modname, path in targets:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            assert hasattr(owner, part), f"{modname}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{path} is not callable"
