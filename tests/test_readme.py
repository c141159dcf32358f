"""The README's Oracles table names library functions and the tests that
compare them; a rename or a deletion would leave it stale without failing
anything else.  This reads the table and checks that every name in it
resolves: each backticked `module.name` in `strathom`, each
`test_*.py::test_name` among the functions defined under `tests/`."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULE_NAME = re.compile(r"`([a-z_]+)\.([A-Za-z_]\w*)`")
TEST_NAME = re.compile(r"(test_\w+\.py)?::(test_\w+)")


def _oracle_rows():
    """The cells of each body row of the table under "### Oracles"."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("### Oracles")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[2:]   # past the header and its rule


def _tests_defined(filename):
    tree = ast.parse((ROOT / "tests" / filename).read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_every_oracle_row_names_functions_that_exist():
    rows = _oracle_rows()
    assert len(rows) >= 9
    for oracle, checks, compared_in in rows:
        names = MODULE_NAME.findall(oracle + checks)
        assert names, f"no `module.name` in the row of {oracle}"
        for module, name in names:
            owner = importlib.import_module(f"strathom.{module}")
            assert hasattr(owner, name), f"strathom.{module}.{name} is missing"
        tests = TEST_NAME.findall(compared_in)
        assert tests, f"no test named in the row of {oracle}"
        filename = None
        for given, name in tests:
            filename = given or filename   # "::name" continues the file
            assert name in _tests_defined(filename), \
                f"{filename}::{name} is not defined"
