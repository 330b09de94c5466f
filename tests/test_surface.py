"""The package defines nothing that only the tests use.

Every module-level function and class of ``src/wsnlife``, and every method
of those classes, is referenced in the package outside its own definition,
in the benchmark under ``bench/``, or exported in ``wsnlife.__all__``.  A
reference is a name, or an attribute of that name, so the check is by name,
not by type.  Methods named with two leading underscores are left out: Python
calls the dunders itself.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import wsnlife

ROOT = Path(__file__).resolve().parent.parent


def _names(node) -> Counter:
    """How many times each name is read or written, as a name or as an attribute, under ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used_outside_the_tests():
    references = Counter()
    definitions = []
    for path in sorted((ROOT / "src" / "wsnlife").glob("*.py")):
        tree = ast.parse(path.read_text())
        references += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, node))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (path.name, method)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
                )
    bench = set(re.findall(r"\w+", "".join(p.read_text() for p in (ROOT / "bench").glob("*.py"))))
    unused = [
        f"{module}: {node.name}"
        for module, node in definitions
        if references[node.name] == _names(node)[node.name]
        and node.name not in bench
        and node.name not in wsnlife.__all__
    ]
    assert unused == []
