"""CLI behaviour: outputs, schemas, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from crepant.series import FormalSeries

BASE = [sys.executable, "-m", "crepant"]


def run(*args, check=True):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"{args} failed: {proc.stderr}")
    return proc


def test_mckay_emits_quiver_json_with_potential():
    out = run("mckay", "3:1,1,1", "--potential").stdout
    data = json.loads(out)
    assert len(data["vertices"]) == 3
    assert len(data["arrows"]) == 9
    assert len(data["potential"]) == 6
    assert {abs(t["coeff"]) for t in data["potential"]} == {1}


def test_ncdt_c3_order_6_series_text():
    out = run("ncdt", "c3", "--order", "6").stdout
    series = FormalSeries.from_text(out)
    assert [series.coefficient((d,)) for d in range(7)] == [1, 1, 3, 6, 13, 24, 48]


def test_triangulate_square_lists_two():
    out = run("triangulate", "--square").stdout
    assert out.startswith("2 triangulations")
    data = json.loads(run("triangulate", "--square", "--json").stdout)
    assert data["count"] == 2


def test_relations_builtin_conifold():
    out = run("relations", "--builtin", "conifold").stdout.strip().splitlines()
    assert len(out) == 4
    data = json.loads(run("relations", "--builtin", "conifold", "--json").stdout)
    assert len(data) == 4


def test_frame_output_counts():
    data = json.loads(run("frame", "--builtin", "conifold", "--v0", "0").stdout)
    assert len(data["vertices"]) == 3
    assert len(data["arrows"]) == 5
    assert data["base_vertex"] == "0"


def test_roots_and_walls():
    out = run("roots", "--cartan", "[[2,-2],[-2,2]]", "--height", "9").stdout
    lines = [l for l in out.splitlines() if l]
    assert "1 1\timaginary" in lines
    data = json.loads(run("walls", "--cartan", "[[2,-2],[-2,2]]",
                          "--height", "6", "--theta1=1,-1",
                          "--theta2=-1,1").stdout)
    assert data["separating"]
    assert all(r["kind"] == "real" for r in data["separating"])


def test_gv_p2_table():
    data = json.loads(run("gv", "--p2", "--order", "3", "--t-order", "26",
                          "--json").stdout)
    table = {(row["genus"], row["degree"]): row["n"] for row in data}
    assert table[(0, 1)] == 3 and table[(0, 2)] == -6 and table[(0, 3)] == 27


def test_stability_subcommand(tmp_path):
    rep = {
        "basis": [{"id": "b0", "vertex": "0"}, {"id": "b1", "vertex": "1"}],
        "actions": [{"arrow": "A", "pairs": [["b0", "b1"]]}],
    }
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    out = run("stability", "--builtin", "conifold", "--rep", str(path),
              "--theta", "0=1,1=-1").stdout
    data = json.loads(out)
    assert data["classification"] in ("stable", "semistable", "unstable")


def test_compare_json_reparses():
    out = run("compare", "conifold", "--order", "2", "--theta", "0=-1,1=-2",
              "--map", "q0=-Q0*t,q1=Q0", "--json").stdout
    data = json.loads(out)
    assert data["geometry"] == "conifold"
    FormalSeries.from_text(data["ncdt"])


def test_usage_errors_exit_2():
    proc = run("ncdt", "c3", check=False)  # missing --order
    assert proc.returncode == 2
    proc = run("frobnicate", check=False)
    assert proc.returncode == 2
    proc = run("ncdt", "c3", "--order", "3", "--bogus-flag", check=False)
    assert proc.returncode == 2


def test_domain_errors_exit_1():
    proc = run("mckay", "3:1,1,2", check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    proc = run("ncdt", "nosuch", "--order", "2", check=False)
    assert proc.returncode == 1


@pytest.mark.parametrize("args", [
    ("mckay", "3:1,1,1", "--potential"),
    ("ncdt", "conifold", "--order", "4"),
    ("triangulate", "--triangle2", "--json"),
    ("flops", "--triangle2"),
    ("web", "--p2"),
    ("gw", "--square", "--order", "3", "--t-order", "12"),
    ("roots", "--cartan", "[[2,-2],[-2,2]]", "--height", "7"),
    ("--seed", "5", "verify-geometry", "laufer1", "--k", "2", "--trials", "10"),
    ("compare", "conifold", "--order", "2", "--theta", "0=-1,1=-2", "--json"),
])
def test_fixed_seed_outputs_are_byte_identical(args):
    a = run(*args).stdout
    b = run(*args).stdout
    assert a == b


def test_jobs_flag_leaves_geometry_reports_unchanged():
    args = ("verify-geometry", "laufer2", "--n", "1", "--trials", "8",
            "--report-only")
    serial = run("--seed", "2", *args).stdout
    assert run("--seed", "2", "--jobs", "2", *args).stdout == serial


@pytest.mark.parametrize("code,args", [
    (1, ("web", "--square", "--index", "5")),
    (1, ("gw", "--square", "--order", "2", "--index", "9")),
    (2, ("walls", "--cartan", "[[2,-2],[-2,2]]", "--theta1=a,b",
         "--theta2=1,2")),
    (2, ("compare", "conifold", "--order", "2", "--theta", "0=x,1=2")),
    (2, ("roots", "--cartan", "[[2", "--height", "3")),
    (2, ("triangulate", "--trapezoid", "a,b")),
    (2, ("compare", "conifold", "--order", "2", "--theta", "0=-1,1=-2",
         "--map", "q0=Q0^x")),
    (1, ("verify-geometry", "conifold", "--override", "v1_xy=sin(x)")),
])
def test_bad_input_exits_without_traceback(code, args):
    proc = run(*args, check=False)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


def test_import_leaves_sympy_unloaded():
    probe = ("import sys, crepant, crepant.cli; "
             "assert 'sympy' not in sys.modules, 'sympy imported'")
    subprocess.run([sys.executable, "-c", probe], check=True)


def test_package_attributes_are_the_modules():
    import types

    import crepant
    assert isinstance(crepant.vertex, types.ModuleType)
    assert isinstance(crepant.compare, types.ModuleType)
