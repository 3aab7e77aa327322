"""The mutation registry stays applicable: each old text is still in its
file exactly once, and each test it names is still defined.
``tests/run_mutants.py`` runs the mutants themselves."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined_functions(path: Path) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_each_mutant_applies_to_exactly_one_place():
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["file"].startswith("src/") and m["old"] != m["new"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]
        for test in m["tests"]:
            path, _, name = test.partition("::")
            assert (ROOT / path).is_file(), (m["id"], test)
            if name:  # a parametrized id names its function before the "["
                assert name.split("[")[0] in _defined_functions(ROOT / path), \
                    (m["id"], test)
        assert m["reason"]
