#!/usr/bin/env python3
"""Run the mutation registry, tests/mutants.json.

usage: python3 tests/run_mutants.py [ID ...]

Each entry names a file under src/, an exact old text found once in it, its
replacement, and the tests expected to fail on the change.  Every mutant
(or each ID given) is applied alone to a fresh temporary copy of the
repository, and its tests run there with ``pytest -x``, one process at a
time.  The tests are first run once on an unmutated copy, so a failure
they have there is not counted as a kill.  Prints one line per mutant and
exits 1 if any mutant survives.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REGISTRY = ROOT / "tests" / "mutants.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", "_work")


def load(ids=()) -> list[dict]:
    mutants = json.loads(REGISTRY.read_text())
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        raise SystemExit(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    return [m for m in mutants if not ids or m["id"] in ids]


def run_tests(tests, mutant: dict | None = None) -> int:
    """pytest's exit code for ``tests`` in a copy of the repository, with
    ``mutant`` applied to it when given."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        if mutant is not None:
            path = copy / mutant["file"]
            text = path.read_text()
            if text.count(mutant["old"]) != 1:
                raise SystemExit(f"{mutant['id']}: the old text does not"
                                 f" occur exactly once in {mutant['file']}")
            path.write_text(text.replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode


def main(ids) -> int:
    mutants = load(ids)
    tests = sorted({t for m in mutants for t in m["tests"]})
    if run_tests(tests) != 0:
        print("the registry's tests fail on the unmutated copy")
        return 2
    survivors = 0
    for mutant in mutants:
        code = run_tests(mutant["tests"], mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
        survivors += code != 1
        print(f"{verdict:9} {mutant['id']}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
