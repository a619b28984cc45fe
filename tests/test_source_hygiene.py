"""Every module-level import in ``src/`` is read by the module that makes it.

An import nothing reads is dead weight that outlives the code it served; a
refactor that deletes a caller leaves one behind.  The check uses only
``ast``: a name counts as read where the module loads it, or names it inside
a string that parses as an expression (a quoted annotation such as
``Optional["CostingBasis"]``).  ``__init__`` modules re-export by importing
and are not checked; neither is ``from __future__``.  An import whose
statement carries ``# noqa: F401`` is a deliberate re-export.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _names_read(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            read.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return read


def unread_imports(path):
    """``(line, name)`` of each module-level import of ``path`` its module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = _names_read(tree)
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unread.append((node.lineno, name))
    return unread


def test_every_module_level_import_is_read():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 50
    unread = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in modules
        for line, name in unread_imports(path)
    ]
    assert not unread, unread


def test_the_check_sees_an_unread_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Dict, List, Optional\n"
        "def f(x: Optional['List[int]']) -> None:\n"
        "    return None\n"
    )
    assert unread_imports(module) == [(2, "os"), (4, "Dict")]
