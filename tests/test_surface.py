"""Guard on the public surface: no public name in src/ that only tests call.

A public function or method of a ``crepant`` layer module must be named
somewhere in ``src/``, ``scripts/`` or ``perfbench/`` besides its own
``def``.  A helper that only tests need belongs in ``tests/support.py``.
The scan is by name, so a name shared with any other call site counts as
used; it can miss a dead name, never invent one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "scripts", "perfbench")

# public names that nothing outside tests calls, kept on purpose
ALLOWED = {
    "quiver.compose": "the product of two paths in the path algebra",
    "reps.check_relations": "whether a module satisfies the relations of a"
                            " potential",
    "reps.rep_to_json": "writes the module JSON that rep_from_json reads"
                        " for stability --rep",
    "reps.subrep_dimension_vectors": "the dimension vectors of the"
                                     " submodules that is_semistable weighs",
    "vertex.vertex": "the amplitude at any rotation of its arguments; the"
                     " glue takes the least rotation itself",
}


def _public_defs():
    """(qualified name, name) of every public module-level function and
    public method of a module-level class in src/crepant."""
    for path in sorted((ROOT / "src" / "crepant").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _names_used():
    """Every name read, attribute taken or name imported from a module in
    the calling directories."""
    used = set()
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_caller_outside_tests():
    used = _names_used()
    unused = {qualified for qualified, name in _public_defs()
              if not name.startswith("_") and name not in used}
    assert sorted(unused - set(ALLOWED)) == [], \
        "public names only tests call: move them to tests/support.py"
    assert sorted(set(ALLOWED) - unused) == [], \
        "allowed names that are gone or have callers now: drop them here"
