"""Every benchmark op prints the bytes recorded in perfbench/digests.json,
the stability-sweep population is the one the benchmark was recorded on, and
every script in scripts/ prints the bytes recorded here.

The ops, their digests and the population belong to the benchmark harness;
these tests only read them, replay each op in-process through
``crepant.cli.main`` and rebuild the population for seeds 1 and 2.  The
scripts run as they would from a checkout, one process each.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from crepant.cli import main
from crepant.reps import rep_to_json

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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


# sha256 of the stdout of output modes no benchmark op runs, recorded before
# the gluing kept half its packed products; "{rep}" is UNSTABLE_REP's file
OUTPUT_MODE_DIGESTS = {
    ("roots", "--cartan", "[[2,-2],[-2,2]]", "--height", "7", "--json"):
        "735da43eeb2bde90eb0cbe3238df52f7e9e0104c2115561565180aa1befa3bd1",
    ("roots", "--mckay", "3:1,1,1", "--height", "5", "--json"):
        "1d50d51e29af43b91091390772f1dc1dd7633a0b413056345f2b30c26220218e",
    ("triangulate", "--triangle2", "--json"):
        "0fe00f5e516a9b35d55d27e5473e981695852f95d5076bac7bb380fe0c3f108a",
    ("triangulate", "--trapezoid", "2,1", "--json"):
        "0ea97be61c1583159741a64a32a2d24f263054993294967abdd71f3c68214f09",
    ("stability", "--builtin", "conifold", "--rep", "{rep}",
     "--theta", "0=-1,1=1"):
        "cad3659ac4c1c17f9101c66d88e6689d0e661acff82571624c4fef4c49d843b0",
}
# a conifold chain b0 -A-> b1 -C-> b2 -B-> b3, unstable at theta (-1, 1)
# with the violating subset {b3}
UNSTABLE_REP = json.dumps({
    "basis": [{"id": f"b{i}", "vertex": str(i % 2)} for i in range(4)],
    "actions": [{"arrow": "A", "pairs": [["b0", "b1"]]},
                {"arrow": "C", "pairs": [["b1", "b2"]]},
                {"arrow": "B", "pairs": [["b2", "b3"]]}]})


@pytest.mark.parametrize("argv", OUTPUT_MODE_DIGESTS,
                         ids=[" ".join(a) for a in OUTPUT_MODE_DIGESTS])
def test_output_mode_matches_recorded_digest(argv, tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(UNSTABLE_REP)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([a.replace("{rep}", str(rep)) for a in argv])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        OUTPUT_MODE_DIGESTS[argv]


# sha256 of each script's stdout, recorded with the list-convolution vertex
# kernels that the packed-integer ones replaced
SCRIPT_DIGESTS = {
    "conifold_side_by_side.py":
        "1c3728d7ab418d8eaf7936eddf5025240d1cdedf9a9fc7bf54e9ee7e8c2a6f01",
    "laufer_report.py":
        "90460c53f38212d540e73219becd437820eb91e9ac6f5ffc131217f16658b65e",
    "local_p2_invariants.py":
        "091ee3043c4e8e6fac87eca25df29c5637e07e1fcd57d5db97e99d089dbdf2bc",
    "pyramid_counts.py":
        "217e6099602540b3b71a852dfccef0b083ac0f18300042c3e7fd2092fb1fcec2",
}


def test_every_script_has_a_digest():
    assert {p.name for p in (ROOT / "scripts").glob("*.py")} == \
        set(SCRIPT_DIGESTS)


@pytest.mark.parametrize("name", sorted(SCRIPT_DIGESTS))
def test_script_stdout_matches_recorded_digest(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          cwd=ROOT, capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == SCRIPT_DIGESTS[name]
