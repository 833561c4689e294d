"""Every public top-level function and class of `src/lsaf`, and every public
method of a public class, has a reader outside the tests: a name referenced
in the package itself, in `perfbench/`, in `tools/` or in a README Python
example. Code that only the tests call belongs in `tests/`."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public(nodes, kinds) -> list:
    """The nodes of `kinds` among `nodes` whose names do not start with `_`."""
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def public_definitions() -> list:
    """(module, name) of every public top-level function and class, and
    (module, "Class.method") of every public method of a public class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in public(ast.parse(path.read_text()).body, FUNCTIONS + (ast.ClassDef,)):
            found.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(path.stem, f"{node.name}.{method.name}")
                          for method in public(node.body, FUNCTIONS)]
    return found


def test_every_public_definition_has_a_reader_outside_the_tests():
    read = set().union(*map(referenced_names, reader_trees()))
    unread = [f"{module}.{name}" for module, name in public_definitions()
              if name.rpartition(".")[2] not in read]
    assert unread == [], f"only tests read these; move them into tests/: {unread}"


def test_the_scan_sees_the_package():
    definitions = public_definitions()
    assert ("tensor", "MapWindows") in definitions and ("model", "LsafModel") in definitions
    assert ("tensor", "Tensor.backward") in definitions
    assert ("model", "Module.tensors") in definitions
