"""Every public top-level function and class of `src/lsaf` has a reader
outside the tests: a name referenced in the package itself, in
`perfbench/`, in `tools/` or in a README Python example. Code that only the
tests call belongs in `tests/`."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lsaf"


def referenced_names(tree: ast.AST) -> set:
    """Names read, attributes looked up, and names imported in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def reader_trees() -> list:
    paths = [*SRC.glob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
             *(ROOT / "tools").rglob("*.py")]
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return trees


def public_definitions() -> list:
    """(module, name) of every public top-level function and class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                found.append((path.stem, node.name))
    return found


def test_every_public_definition_has_a_reader_outside_the_tests():
    read = set().union(*map(referenced_names, reader_trees()))
    unread = [f"{module}.{name}" for module, name in public_definitions() if name not in read]
    assert unread == [], f"only tests read these; move them into tests/: {unread}"


def test_the_scan_sees_the_package():
    definitions = public_definitions()
    assert ("tensor", "MapWindows") in definitions and ("model", "LsafModel") in definitions
