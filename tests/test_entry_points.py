"""Every public function and class in ``src/calib_il``, and every public
method of a public class, is reached by the package's own code.

A module-level def, or a method, whose name no code in the package
references is an entry point that only tests call; its oracle belongs in
``tests/oracles``. A reference is a ``Name`` or an ``Attribute`` anywhere
in the package outside the def itself, or an import from another module;
a docstring's mention is not one. A method is matched by its name alone.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "calib_il"

# Public names that no code in the package reaches, each with its reason.
ALLOWED: set[str] = set()


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_defs(tree: ast.Module):
    """(qualified name, node) of each public module-level def and class,
    and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, FUNCTIONS) and not item.name.startswith("_"))


def referenced_names(nodes, skip=None) -> set[str]:
    """The names that ``nodes`` reference, outside the node ``skip``."""
    names, todo = set(), list(nodes)
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names


def unreached_entry_points() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    unreached = set()
    for module, tree in trees.items():
        elsewhere = referenced_names(other for name, other in trees.items() if name != module)
        for qualified, node in public_defs(tree):
            # Within its own module a def counts only from outside its body.
            if node.name not in elsewhere | referenced_names([tree], skip=node):
                unreached.add(f"{module}.{qualified}")
    return unreached


def test_every_public_def_is_reached_by_the_package():
    unreached = unreached_entry_points() - ALLOWED
    assert not unreached, (f"public defs that no code in src/calib_il reaches: "
                           f"{sorted(unreached)}; move test-only oracles to tests/oracles.py")


def test_allowlist_is_not_stale():
    assert ALLOWED <= unreached_entry_points(), "an allowed name is now reached or gone"
