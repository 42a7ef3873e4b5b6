"""Every public function and class in ``src/calib_il``, and every public
method of a public class, is reached by the package's own code; so is
every private module-level def and constant, and every imported name.

A module-level def, or a method, whose name no code in the package
references is an entry point that only tests call; its oracle belongs in
``tests/oracles``. A private one (``_name``) is a leftover that nothing
runs, and so is a private constant that nothing reads. A reference is a
``Name`` or an ``Attribute`` anywhere in the package outside the def or
the assignment itself, or an import from another module; a docstring's
mention is not one. A method is matched by its name alone. An import, at
module or function level, must bind a name that its module reads: a
``Name`` anywhere in the module, annotations (written or quoted) included.
``from __future__`` imports are exempt.
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


def private_defs(tree: ast.Module):
    """(name, node) of each private module-level def, class and constant;
    a constant's node is the statement that assigns it."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_")
                    and not name.startswith("__"))


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
        for name, node in private_defs(tree):
            if name not in elsewhere | referenced_names([tree], skip=node):
                unreached.add(f"{module}.{name}")
    return unreached


def bound_imports(tree: ast.Module):
    """Each name that an import statement anywhere in ``tree`` binds,
    except those of ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def read_names(tree: ast.Module) -> set[str]:
    """The names that ``tree`` reads, with those of quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = ([node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else
                       [node.returns] if isinstance(node, FUNCTIONS) else [])
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
    return names


def unused_imports() -> set[str]:
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = read_names(tree)
        unused |= {f"{path.stem}.{name}" for name in bound_imports(tree) if name not in read}
    return unused


def test_every_public_def_is_reached_by_the_package():
    unreached = unreached_entry_points() - ALLOWED
    assert not unreached, (f"defs that no code in src/calib_il reaches: {sorted(unreached)}; "
                           f"move test-only oracles to tests/oracles.py and delete leftovers")


def test_an_unread_private_def_or_constant_is_caught():
    """The walk flags a private def and a private constant that nothing
    reads, but neither a private def that a public one calls nor a
    constant that a def reads."""
    tree = ast.parse("_LIMIT = 3\n_UNUSED: int = 4\n"
                     "def _helper():\n    return _LIMIT\n"
                     "def _leftover():\n    return 1\n"
                     "def entry():\n    return _helper()\n")
    unreached = {name for name, node in private_defs(tree)
                 if name not in referenced_names([tree], skip=node)}
    assert unreached == {"_UNUSED", "_leftover"}


def test_every_import_is_read():
    unused = unused_imports()
    assert not unused, f"imports that nothing reads: {sorted(unused)}"


def test_an_unread_import_is_caught():
    """An import read nowhere is caught, at module or function level; one
    read in a quoted annotation or under ``if TYPE_CHECKING`` is not, nor
    is ``from __future__``."""
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path as osp\nfrom typing import TYPE_CHECKING\n"
                     "from itertools import chain, groupby\n"
                     "if TYPE_CHECKING:\n    from pathlib import Path\n"
                     "def f(p: 'Path', q: 'list[Deque]') -> int:\n"
                     "    import json\n    from collections import deque as Deque\n"
                     "    return os.sep, chain\n")
    read = read_names(tree)
    assert {name for name in bound_imports(tree) if name not in read} == {
        "osp", "groupby", "json"}


def test_allowlist_is_not_stale():
    assert ALLOWED <= unreached_entry_points(), "an allowed name is now reached or gone"
