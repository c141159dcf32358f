"""The benchmark's per-layer tracer wraps library functions by name, and its
workloads and oracles call the library directly; a renamed function would
only show in the benchmark's own runs.  This reads the tracer's `LAYERS`
table and the names the workloads and oracles use from their sources,
without importing the benchmark, and checks that every name resolves."""

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


def _direct_uses(path):
    """(module, attribute) of every `strathom` name that a perfbench file
    uses: from-imports, and `module.attr` on modules it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(
                ".")[0] == "strathom":
            for alias in node.names:
                uses.append((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                modules[alias.asname or alias.name] = full
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "strathom":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.append((modules[node.value.id], node.attr))
    return uses


def test_every_direct_perfbench_call_resolves():
    """Workloads and oracles call the library directly too; a removed name
    there should fail here, not only in the benchmark's own runs."""
    bench = TRACER.parent
    uses = [use for name in ("workloads.py", "oracles.py")
            for use in _direct_uses(bench / name)]
    assert len(uses) > 20
    for modname, attr in uses:
        owner = importlib.import_module(modname)
        if not hasattr(owner, attr) and hasattr(owner, "__path__"):
            importlib.import_module(f"{modname}.{attr}")  # a submodule
        assert hasattr(owner, attr), f"{modname}.{attr} is missing"
