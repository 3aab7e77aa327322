"""Every benchmark op prints the bytes recorded in perfbench/digests.json,
and the stability-sweep population is the one the benchmark was recorded on.

The ops, their digests and the population belong to the benchmark harness;
these tests only read them, replay each op in-process through
``crepant.cli.main`` and rebuild the population for seeds 1 and 2.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from crepant.cli import main
from crepant.reps import rep_to_json

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import sweep  # noqa: E402
import workloads  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
OPS = workloads.all_ops()


@pytest.fixture(scope="module")
def rep_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("rep") / "rep.json"
    path.write_text(workloads.REP_JSON)
    return str(path)


def test_every_op_has_a_digest():
    assert {op.key() for op in OPS} == set(DIGESTS)


@pytest.mark.parametrize("op", OPS, ids=[op.key() for op in OPS])
def test_op_stdout_matches_recorded_digest(op, rep_file):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([a.replace("{rep}", rep_file) for a in op.args])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[op.key()]


# sha256 of the concatenated rep_to_json of every module in the population
POPULATION_DIGESTS = {
    1: "6c7427835f758919708672026aa0ec6732ba864aa358196de683361be4d42f78",
    2: "f5efa43d8c15abe11fcdc814270849a1f81be2a28d004ef0a3b314206d6ed018",
}


@pytest.mark.parametrize("seed", sorted(POPULATION_DIGESTS))
def test_sweep_population_matches_recorded_digest(seed):
    mods = sweep.population(seed)
    assert len(mods) == 4320
    text = "".join(rep_to_json(m) for m in mods)
    assert hashlib.sha256(text.encode()).hexdigest() == POPULATION_DIGESTS[seed]
