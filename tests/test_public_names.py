"""Every public name the package defines is reached by the program or
documented: a module-level ``def`` or ``class`` whose name does not start with
an underscore must be used by package code outside its own definition (in
another module, or elsewhere in its own, as an error class is where it is
raised), or be named in README.md. A name only its own tests call is dead
weight: README says why it stays, or it goes.

``fixtures`` is exempt: it exists to feed the tests, the README examples and
the benchmark, none of which is package code.

Every module also uses each name it imports: no linter runs offline, so an
import a change leaves behind is caught here.
"""

import ast
import re
from pathlib import Path

import odd_assure

SRC = Path(odd_assure.__file__).resolve().parent
README = SRC.parents[1] / "README.md"
EXEMPT = {"fixtures"}


def names_used(node) -> set[str]:
    """Every name and attribute read anywhere in ``node``."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_public_name_is_reached_or_documented():
    # each module's top-level statements, with the names each one uses
    modules = {path.stem: [(node, names_used(node)) for node in ast.parse(
        path.read_text(encoding="utf-8")).body] for path in SRC.glob("*.py")}
    readme = README.read_text(encoding="utf-8")
    unreached = []
    for module, statements in sorted(modules.items()):
        if module in EXEMPT:
            continue
        in_others = set().union(*(used for name, other in modules.items() if name != module
                                  for _, used in other))
        for node, _ in statements:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            in_module = set().union(*(used for other, used in statements if other is not node))
            if (node.name not in in_others | in_module
                    and not re.search(rf"\b{node.name}\b", readme)):
                unreached.append(f"{module}.{node.name}")
    assert unreached == []


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.stem}: {alias.asname or alias.name}" for alias in node.names
                           if (alias.asname or alias.name).partition(".")[0] not in read]
    assert unused == []
