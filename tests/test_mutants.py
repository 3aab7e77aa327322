"""The mutation registry stays applicable: each old text is still in its
file exactly once.  ``tests/run_mutants.py`` runs the mutants themselves."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_each_mutant_applies_to_exactly_one_place():
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    assert len({m["id"] for m in mutants}) == len(mutants)
    for m in mutants:
        assert m["file"].startswith("src/") and m["old"] != m["new"]
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["id"]
        for test in m["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), (m["id"], test)
        assert m["reason"]
