"""`src/` keeps only code that something reaches.  Code that only the tests
call, or that nothing calls, belongs beside the tests or nowhere; left in
the library it hides among the code that runs.

An AST scan lists every top-level function and class of
`src/strathom/*.py`, and every method whose name is not a dunder.  Each
must be reached in one of four ways:
  - referenced in `src/strathom` as a name, an attribute or an import
    alias, outside its own definition (so recursion does not count);
  - exported from `__init__.py` (an import alias there);
  - named in the oracle column of the README's Oracles table;
  - listed in `ALLOWLIST` below, with its reason.
References are matched by bare name, so a method counts as reached when
any attribute of that name is read anywhere in the package."""

import ast
import textwrap
from pathlib import Path

from test_readme import MODULE_NAME, _oracle_rows

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "strathom"

# qualified name -> why it stays although nothing in src/ reaches it
ALLOWLIST = {
    "checks.enumerate_multigraphs":
        "acceptance criterion 6 evaluates disks over every multigraph it "
        "enumerates (tests/test_acceptance.py)",
    "cli._Parser.error":
        "argparse calls it on every usage error, which `main` then reports "
        "as a JSON schema error (tests/test_cli.py)",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, node) for each top-level function and class, and
    each method of such a class whose name is not a dunder."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((f"{module}.{node.name}", node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{module}.{node.name}.{item.name}", item)
                      for item in node.body
                      if isinstance(item, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and not _is_dunder(item.name)]
    return found


def _references(tree):
    """(name, definitions enclosing the reference) for every `Name`,
    `Attribute` and import alias in `tree`."""
    found = []

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                found.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                found.append((child.attr, enclosing))
            elif isinstance(child, ast.alias):
                found.append((child.name.rsplit(".", 1)[-1], enclosing))
                if child.asname:
                    found.append((child.asname, enclosing))
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = enclosing | {child}
            walk(child, inner)

    walk(tree, frozenset())
    return found


def unreached(sources, oracles, allowlist):
    """The qualified names, sorted, of the definitions in `sources` (module
    name -> source text, `__init__` included) that no reference outside
    their own definition, no oracle name and no allowlist entry reaches."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    enclosing_by_name = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            enclosing_by_name.setdefault(name, []).append(enclosing)
    return sorted(
        qualname
        for module, tree in trees.items()
        for qualname, node in _definitions(module, tree)
        if qualname not in oracles and qualname not in allowlist
        and all(node in enclosing
                for enclosing in enclosing_by_name.get(node.name, ())))


def _package_sources():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def _readme_oracles():
    """`module.name` for each name in the oracle column of the README's
    Oracles table."""
    return {f"{module}.{name}" for oracle, _, _ in _oracle_rows()
            for module, name in MODULE_NAME.findall(oracle)}


def test_every_definition_in_src_is_reached():
    left = unreached(_package_sources(), _readme_oracles(), ALLOWLIST)
    assert left == [], (
        f"reached by nothing in src/: {left}; delete it, move it beside the "
        "tests that use it, label it in the README's Oracles table, or add "
        "it to ALLOWLIST in tests/test_reachability.py with its reason")


def test_allowlist_entries_are_needed_and_give_a_reason():
    sources = _package_sources()
    defined = {qualname for module, text in sources.items()
               for qualname, _ in _definitions(module, ast.parse(text))}
    assert ALLOWLIST.keys() <= defined
    # every entry must be unreached without the allowlist
    assert ALLOWLIST.keys() <= set(unreached(sources, _readme_oracles(), {}))
    assert all(reason.strip() for reason in ALLOWLIST.values())


SYNTHETIC = {
    "__init__": "from .mod import exported\n",
    "mod": textwrap.dedent("""
        def exported():
            pass

        def oracle():
            pass

        def allowed():
            pass

        def dead():
            pass

        def recursive(n):
            return recursive(n - 1) if n else 0

        def helper():
            pass

        def entry():
            return helper(), Box().used()

        class Box:
            def used(self):
                return len(self)

            def unused(self):
                return self.unused()

            def __len__(self):
                return 0
        """),
}


def test_scanner_reports_what_nothing_or_only_itself_reaches():
    # `entry` is the synthetic module's root: nothing calls it
    assert unreached(SYNTHETIC, {"mod.oracle"}, {"mod.allowed": "kept"}) == [
        "mod.Box.unused", "mod.dead", "mod.entry", "mod.recursive"]


def test_scanner_accepts_an_export_an_oracle_row_and_an_allowlist_entry():
    bare = set(unreached(SYNTHETIC, set(), {}))
    assert {"mod.oracle", "mod.allowed"} <= bare
    assert "mod.exported" not in bare
    without_init = {"mod": SYNTHETIC["mod"]}
    assert "mod.exported" in unreached(without_init, set(), {})
    assert "mod.oracle" not in unreached(SYNTHETIC, {"mod.oracle"}, {})
    assert "mod.allowed" not in unreached(SYNTHETIC, set(),
                                          {"mod.allowed": "kept"})
