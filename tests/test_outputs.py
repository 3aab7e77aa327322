"""Every benchmark op prints the bytes recorded in perfbench/digests.json.

The ops and their digests belong to the benchmark harness; this test only
reads them and replays each op in-process through ``crepant.cli.main``.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from crepant.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
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
