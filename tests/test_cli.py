"""CLI behaviour: outputs, schemas, exit codes, determinism."""

import ast
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import formal_series_from_text

from crepant import cli
from crepant.cli import main
from crepant.quiver import conifold_quiver, quiver_to_json
from crepant.vertex import GWSeries, TSeries

BASE = [sys.executable, "-m", "crepant"]


def run(*args, check=True):
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"{args} failed: {proc.stderr}")
    return proc


def run_main(argv):
    """``crepant.cli.main`` in-process: (exit code, stdout, stderr).

    Only argparse's usage exit (2) is caught; any other exception escapes.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_mckay_emits_quiver_json_with_potential():
    out = run("mckay", "3:1,1,1", "--potential").stdout
    data = json.loads(out)
    assert len(data["vertices"]) == 3
    assert len(data["arrows"]) == 9
    assert len(data["potential"]) == 6
    assert {abs(t["coeff"]) for t in data["potential"]} == {1}


def test_ncdt_c3_order_6_series_text():
    out = run("ncdt", "c3", "--order", "6").stdout
    series = formal_series_from_text(out)
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


def _limit_address_space_400mb():
    resource.setrlimit(resource.RLIMIT_AS, (400 * 2 ** 20, 400 * 2 ** 20))


def test_stability_on_a_large_rep_streams_its_subsets(tmp_path):
    """24 basis elements and no arrows: all 2**24 subsets are closed.  The
    scan meets them one at a time, so the first violating one, the single
    element b00 of weight 1 at mask 2**12, ends it within 400 MB of
    address space for the command; a list of every closed mask does not
    fit there."""
    basis = [{"id": f"{tag}{i:02}", "vertex": vertex}
             for tag, vertex in (("a", "0"), ("b", "1")) for i in range(12)]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"basis": basis, "actions": []}))
    proc = subprocess.run(
        BASE + ["stability", "--builtin", "conifold", "--rep", str(path),
                "--theta", "0=-1,1=1"],
        capture_output=True, text=True, timeout=30,
        preexec_fn=_limit_address_space_400mb)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"classification": "unstable",
                                       "violating_subset": ["b00"]}


_CONIFOLD_BASIS = [{"id": "b0", "vertex": "0"}, {"id": "b1", "vertex": "1"}]


@pytest.mark.parametrize("rep,message", [
    ({"basis": _CONIFOLD_BASIS + [{"id": "b0", "vertex": "1"}],
      "actions": []},
     "duplicate basis id 'b0'"),
    ({"basis": _CONIFOLD_BASIS,
      "actions": [{"arrow": "A", "pairs": [["b0", "b1"]]},
                  {"arrow": "A", "pairs": []}]},
     "arrow A is listed twice in actions"),
    ({"basis": _CONIFOLD_BASIS + [{"id": "b2", "vertex": "1"}],
      "actions": [{"arrow": "A", "pairs": [["b0", "b1"], ["b0", "b2"]]}]},
     "arrow A maps 'b0' twice"),
])
def test_stability_rep_with_a_duplicate_is_one_error_line(tmp_path, rep,
                                                          message):
    """A repeated basis id, arrow or source is named, never overwritten by
    the later one."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    proc = run("stability", "--builtin", "conifold", "--rep", str(path),
               "--theta", "0=1,1=-1", check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", f"error: {message}\n")


def test_theta_naming_a_vertex_twice_is_a_usage_error():
    code, out, err = run_main(["stability", "--builtin", "conifold", "--rep",
                               "rep.json", "--theta", "0=1,1=-1,0=-1"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "error: argument --theta: theta gives vertex '0' twice")


def test_map_naming_a_variable_twice_is_a_usage_error():
    code, out, err = run_main(["compare", "conifold", "--order", "2",
                               "--theta", "0=-1,1=-2",
                               "--map", "q0=-Q0*t,q1=Q0,q0=Q0"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "error: argument --map: map gives variable 'q0' twice")


def test_map_naming_a_variable_the_series_lacks_is_one_error_line():
    proc = run("compare", "conifold", "--order", "2", "--theta", "0=-1,1=-2",
               "--map", "q0=Q0,q1=Q0,q2=Q0", check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (1, "", "error: variable map names ['q2'], which the crystal series"
                " lacks\n")


def test_compare_json_reparses():
    out = run("compare", "conifold", "--order", "2", "--theta", "0=-1,1=-2",
              "--map", "q0=-Q0*t,q1=Q0", "--json").stdout
    data = json.loads(out)
    assert data["geometry"] == "conifold"
    formal_series_from_text(data["ncdt"])


@pytest.mark.parametrize("geometry,stderr", [
    ("mckay:x", "error: bad action descriptor 'x'\n"),
    ("nosuch", "error: unknown crystal family 'nosuch'\n"),
    ("mckay:3:1,1", "error: bad action descriptor '3:1,1'\n"),
])
def test_compare_names_an_unknown_geometry(geometry, stderr):
    proc = run("compare", geometry, "--order", "1", "--theta", "0=-1",
               check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", stderr)


def test_usage_errors_exit_2():
    proc = run("ncdt", "c3", check=False)  # missing --order
    assert proc.returncode == 2
    proc = run("frobnicate", check=False)
    assert proc.returncode == 2
    proc = run("ncdt", "c3", "--order", "3", "--bogus-flag", check=False)
    assert proc.returncode == 2
    # two selectors of one family: polygons, quiver sources, and quiver
    # sources with --cartan
    for args in [("triangulate", "--square", "--p2"),
                 ("gw", "--zn", "2", "--trapezoid", "2,1", "--order", "1"),
                 ("relations", "--builtin", "c3", "--mckay", "3:1,1,1"),
                 ("roots", "--builtin", "c3", "--cartan", "[[2]]",
                  "--height", "2")]:
        proc = run(*args, check=False)
        assert proc.returncode == 2, args
        assert "not allowed with argument" in proc.stderr, args
        assert "Traceback" not in proc.stderr, args


@pytest.mark.parametrize("args, message", [
    (("relations", "--builtin", "c3", "--n", "5"), "--n"),
    (("relations", "--n", "2"), "--n"),
    (("frame", "--mckay", "3:1,1,1", "--n", "2", "--v0", "0"), "--n"),
    (("roots", "--builtin", "c3", "--n", "4", "--height", "1"), "--n"),
    (("walls", "--cartan", "[[2]]", "--n", "1", "--theta1", "1",
      "--theta2", "-1"), "--n"),
    (("verify-geometry", "conifold", "--k", "3", "--trials", "2"),
     "conifold takes no --k"),
    (("verify-geometry", "conifold", "--n", "1", "--trials", "2"),
     "conifold takes no --n"),
    (("verify-geometry", "laufer1", "--k", "2", "--n", "1", "--trials", "2"),
     "laufer1 takes no --n"),
    (("verify-geometry", "laufer2", "--n", "1", "--k", "4", "--trials", "2"),
     "laufer2 takes no --k"),
])
def test_a_parameter_the_source_does_not_take_exits_2(args, message):
    """--n belongs to --builtin laufer alone among quiver sources, and
    verify-geometry takes --k for laufer1 and --n for laufer2 only."""
    if message == "--n":
        message = "--n applies only to --builtin laufer"
    assert run_main(list(args)) == (2, "", f"error: {message}\n")


def test_a_foreign_parameter_exits_2_from_the_command_line():
    proc = run("relations", "--builtin", "c3", "--n", "5", check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: --n applies only to --builtin laufer\n")
    assert run("relations", "--builtin", "laufer", "--n", "2").stdout


def test_domain_errors_exit_1():
    proc = run("mckay", "3:1,1,2", check=False)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    proc = run("ncdt", "nosuch", "--order", "2", check=False)
    assert proc.returncode == 1
    assert proc.stderr == "error: unknown crystal family 'nosuch'\n"
    for args in [("relations", "--builtin", "laufer", "--n", "0"),
                 ("frame", "--builtin", "laufer", "--n", "0", "--v0", "0")]:
        proc = run(*args, check=False)
        assert proc.returncode == 1, args
        assert proc.stderr == \
            "error: loop-term exponent parameter must be >= 1\n", args


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
    (1, ("walls", "--cartan", "[[2,-2],[-2,2]]", "--theta1=1,2,3",
         "--theta2=1,2")),
    (2, ("gv", "--square", "--order", "2", "--genus", "-1")),
])
def test_bad_input_exits_without_traceback(code, args):
    proc = run(*args, check=False)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("args,flag", [
    (("ncdt", "c3", "--order", "600"), "--order 600"),
    (("gw", "--square", "--order", "3", "--t-order", "100000000"),
     "--t-order 100000000"),
])
def test_sizes_past_the_stack_or_memory_are_one_error_line(args, flag):
    """A recursion too deep or an allocation too large ends in one error
    line naming the argument to lower, with 1 GiB of address space for the
    command alone."""
    proc = subprocess.run(BASE + list(args), capture_output=True, text=True,
                          timeout=30, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1 and flag in proc.stderr


def test_ncdt_on_a_large_mckay_quiver_is_linear_in_its_arrows():
    """Order 20000 builds a 20000-vertex, 60000-arrow quiver twice (plain
    and framed); a vertex check that scans the vertex list per arrow made
    this take about half a minute."""
    proc = subprocess.run(BASE + ["ncdt", "mckay:20000:1,1,19998",
                                  "--order", "2"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.split("\n", 1)[0]
    assert header == " ".join(f"q{i}" for i in range(20000)) + "\t2"


def test_relations_on_a_large_mckay_quiver_is_one_pass():
    """6000 arrows and 4000 cubic words; one cyclic derivative per arrow,
    each rescanning every word, made this take about half a minute."""
    proc = subprocess.run(BASE + ["relations", "--mckay", "2000:1,1,1998"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("\n") == 6000


@pytest.mark.parametrize("mckay,height,lines", [
    ("200:1,1,198", "2", 600), ("1200:1,1,1198", "1", 1200)])
def test_roots_on_a_large_mckay_quiver_skip_the_lattice_scan(mckay, height,
                                                             lines):
    """Listing the fundamental set by scanning every vector of height <= 2
    and pairing each one densely took about 20 s at rank 200; at rank 1200
    the scan's recursion ran out of stack."""
    proc = subprocess.run(BASE + ["roots", "--mckay", mckay,
                                  "--height", height],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "error:" not in proc.stderr
    assert proc.stdout.count("\n") == lines


def test_roots_at_rank_3000_reads_rows_through_neighbour_lists():
    """3000 simple roots, each a 3000-vector: every reflection pairing a
    dense row with the root and every K bound read from an n x n suffix
    table took about 11 s.  Each row of the Cartan matrix holds only its
    nonzero entries, built from the arrows in one pass, so what is left is
    the orbit over each row's entries and the printed output."""
    proc = subprocess.run(BASE + ["roots", "--mckay", "3000:1,1,2998",
                                  "--height", "1"],
                          capture_output=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(b"\n") == 3000
    assert hashlib.md5(proc.stdout).hexdigest() == \
        "facf34416933fa852bfcdefb0cb5ce07"


def test_walls_at_rank_400_prints_the_recorded_bytes():
    """theta1 = (1^200, -1^200) against -theta1 over every root of height
    at most 2 of the rank-400 McKay quiver."""
    theta1 = ",".join(["1"] * 200 + ["-1"] * 200)
    theta2 = ",".join(["-1"] * 200 + ["1"] * 200)
    code, out, err = run_main(["walls", "--mckay", "400:1,1,398",
                               "--height", "2", f"--theta1={theta1}",
                               f"--theta2={theta2}"])
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == \
        "69316e7b9dd918f27121b09f86cb72db"


@pytest.mark.parametrize("args,limit", [
    (("roots", "--mckay", "12000:1,1,11998", "--height", "1"), 2 ** 29),
    (("walls", "--mckay", "12000:1,1,11998", "--height", "1",
      "--theta1=1", "--theta2=1"), 2 ** 29),
    (("roots", "--mckay", "20000:1,1,19998", "--height", "1"), 2 ** 30),
])
def test_a_rank_past_memory_names_mckay(args, limit):
    """The roots at height 1 are the rank's simple roots, rank**2
    coordinates in all, so a rank past memory is one error line naming
    ``--mckay``; ``--height`` is already at its least value."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(BASE + list(args), capture_output=True, text=True,
                          timeout=30, preexec_fn=cap)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("error:") == 1
    assert proc.stderr.count("\n") == 1
    assert f"--mckay {args[2]}" in proc.stderr


def test_insufficient_precision_names_the_t_order():
    code, out, err = run_main(["gv", "--p2", "--order", "6"])
    assert (code, out) == (1, "")
    assert err.startswith("error: insufficient t-precision at degree 6")
    assert err.count("\n") == 1
    assert "at --t-order 24; a larger --t-order reaches it" in err


def test_gv_below_every_degree_names_the_t_order():
    """At a t-order too low to show degree 1 at all, gv is one error line,
    not a table read off a series truncated to nothing."""
    code, out, err = run_main(["gv", "--p2", "--order", "1", "--t-order",
                               "-8"])
    assert (code, out) == (1, "")
    assert err.startswith("error: insufficient t-precision at degree 1")
    assert err.count("\n") == 1
    assert "at --t-order -8; a larger --t-order reaches it" in err


def _gv_at_low_t_order(web, order, t_order):
    """(exit code, stdout, stderr) of gv at ``t_order``, the stdout gv
    prints at --t-order 60, and whether the run is what a low t-order may
    give: one error line naming the t-order, or the bytes at t-order 60."""
    argv = ["gv", *web, "--order", str(order), "--t-order"]
    want = run_main(argv + ["60"])
    assert want[0] == 0
    got = run_main(argv + [str(t_order)])
    hint = f"at --t-order {t_order}; a larger --t-order reaches it"
    ok = got == want or (got[:2] == (1, "") and got[2].count("\n") == 1
                         and got[2].startswith("error: ") and hint in got[2])
    return got, want[1], ok


# gv lines the glue gets wrong until summands that truncate to zero bound
# their Q-degree's cutoff (ROADMAP item 1): both print 0 2 -3, not -6
GV_WRONG_UNTIL_ITEM_1 = [(("--p2",), 2, -5), (("--zn", "1"), 2, -5)]


def test_gv_at_low_t_orders_errs_or_prints_the_high_t_order_table():
    """On local P2, the square and --zn 1 at orders 1-3 and --zn 2 at
    orders 1-4, at t-orders -12..4, gv either names the t-order in one
    error line or prints what it prints at --t-order 60 (the lines ROADMAP
    item 1 must mend aside).  Below -8 the working cutoff is negative and
    the glued series has no terms, its constant term included."""
    webs = [(web, order) for web in (("--p2",), ("--square",), ("--zn", "1"))
            for order in range(1, 4)]
    webs += [(("--zn", "2"), order) for order in range(1, 5)]
    for web, order in webs:
        for t_order in range(-12, 5):
            if (web, order, t_order) in GV_WRONG_UNTIL_ITEM_1:
                continue
            got, want, ok = _gv_at_low_t_order(web, order, t_order)
            assert ok, (web, order, t_order, got, want)


@pytest.mark.parametrize("argv", [
    ["--zn", "2", "--order", "3", "--genus", "1", "--t-order", "15"],
    ["--zn", "2", "--order", "2", "--t-order", "0"]])
def test_gv_names_the_t_order_when_a_genus_lies_past_the_cutoff(argv):
    """A genus whose top term lies past the cutoff shows as a valuation
    below the peel's reach: gv names the t-order in one error line, where
    it used to blame the series ("not a genus expansion", "not polynomial
    in the genus kernel")."""
    code, out, err = run_main(["gv", *argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: insufficient t-precision at degree")
    assert err.count("\n") == 1
    assert f"at --t-order {argv[-1]}; a larger --t-order reaches it" in err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a summand that"
                   " truncates to zero does not bound its Q-degree's cutoff")
def test_gv_lines_wrong_until_the_glue_drop_rule_is_mended():
    for web, order, t_order in GV_WRONG_UNTIL_ITEM_1:
        got, want, ok = _gv_at_low_t_order(web, order, t_order)
        assert ok, (web, order, t_order, got, want)


def test_gv_json_prints_no_truncated_invariant(monkeypatch):
    """``gv --json`` prints the ints gv_extract found; a series whose
    invariant is not an integer (n[1,2] = 1/2 for Z = 1 + Q^2/2) is one
    error line and no JSON, never a truncated int(1/2) = 0."""
    code, out, err = run_main(["gv", "--p2", "--order", "3", "--t-order",
                               "26", "--json"])
    assert (code, err) == (0, "")
    assert all(type(row["n"]) is int for row in json.loads(out))
    half = GWSeries(("Q",), 2, {(0,): TSeries({0: 1}, 20),
                                (2,): TSeries({0: Fraction(1, 2)}, 20)})
    monkeypatch.setattr(cli, "gw_partition_function", lambda *a, **k: half)
    code, out, err = run_main(["gv", "--square", "--order", "2", "--json"])
    assert (code, out) == (1, "")
    assert err == "error: GV invariant n[1,2] = 1/2 is not an integer\n"


# stdlib modules that only the ops reading JSON or taking rationals, or an
# expression error's message, may load
_LOADED_ON_USE = ("json", "fractions", "decimal", "numbers", "ast", "typing")


def test_import_leaves_sympy_unloaded():
    """Neither sympy nor ``dataclasses`` (with the ``inspect`` it pulls in)
    is loaded by the import or by a crystal count or a geometry check.

    Against the modules the interpreter had loaded before the probe, the
    import, the text ops (gv, gw and ncdt), the same ops printing JSON and
    both geometry checks load none of ``_LOADED_ON_USE``: JSON is written
    without ``json``, and expressions are parsed without ``ast``."""
    ops = [["gv", "--p2", "--order", "2", "--t-order", "16"],
           ["gw", "--square", "--order", "2"],
           ["ncdt", "c3", "--order", "2"],
           ["gv", "--p2", "--order", "2", "--t-order", "16", "--json"],
           ["ncdt", "conifold", "--order", "3", "--sign", "dimension",
            "--json"],
           ["verify-geometry", "conifold", "--trials", "2"],
           ["verify-geometry", "laufer2", "--n", "1", "--trials", "2",
            "--report-only", "--override",
            "v4_wz=w**2*z1*z2 - z2**3 - w*z1**(n+1)"]]
    probe = f"""
import sys
base = set(sys.modules)

def check():
    loaded = {{'sympy', 'dataclasses', 'inspect'}} & set(sys.modules)
    assert not loaded, loaded
    added = (set(sys.modules) - base) & set({_LOADED_ON_USE!r})
    assert not added, added

import crepant
check()
import crepant.cli
check()
for argv in {ops!r}:
    assert crepant.cli.main(argv) == 0, argv
    check()
"""
    subprocess.run([sys.executable, "-c", probe], check=True,
                   stdout=subprocess.DEVNULL)


def _import_sites(name: str) -> list:
    """(file, enclosing function, the statement after the import) for each
    import of the stdlib module ``name`` in crepant's source."""
    sites = []
    for path in sorted((Path(cli.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
        for node in ast.walk(tree):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if name not in {n.split(".")[0] for n in names if n}:
                continue
            block = next(v for v in vars(parent[node]).values()
                         if isinstance(v, list) and node in v)
            owner = parent[node]
            while not isinstance(owner, (ast.FunctionDef, ast.Module)):
                owner = parent[owner]
            sites.append((path.name, getattr(owner, "name", None),
                          type(block[block.index(node) + 1]).__name__))
    return sites


def test_json_and_ast_are_imported_only_where_they_are_needed():
    """``json`` only by ``json_object``, the one reader; ``ast`` only on
    the two error branches whose message ``ast.unparse`` phrases."""
    assert _import_sites("json") == [("errors.py", "json_object", "Try")]
    assert _import_sites("ast") == [("geometry.py", "_walk", "Raise")] * 2


def test_override_text_is_never_executed(tmp_path):
    probe = tmp_path / "probe"
    text = f"v1_xy=__import__('pathlib').Path({str(probe)!r}).touch()"
    code, out, err = run_main(["verify-geometry", "conifold",
                               "--override", text])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not probe.exists()


def test_the_package_names_only_modules():
    """The package re-exports nothing: ``import crepant`` loads only
    ``crepant.reps`` and the layers it imports (the benchmark's stability
    sweep reads ``crepant.reps`` after a bare import), and once the CLI
    has loaded every layer, each public attribute of the package is a
    module.  A fresh process, because this one has imported the layers
    already."""
    probe = (
        "import json, sys, types\n"
        "import crepant\n"
        "bare = sorted(n for n in sys.modules if n.startswith('crepant'))\n"
        "import crepant.cli\n"
        "names = [n for n in dir(crepant) if not n.startswith('_')]\n"
        "print(json.dumps({'bare': bare, 'names': names, 'not_modules': [\n"
        "    n for n in names\n"
        "    if not isinstance(getattr(crepant, n), types.ModuleType)]}))\n")
    got = json.loads(subprocess.run([sys.executable, "-c", probe],
                                    capture_output=True, text=True,
                                    check=True).stdout)
    assert got["bare"] == ["crepant", "crepant.errors", "crepant.quiver",
                           "crepant.reps"]
    assert {"cli", "compare", "vertex"} <= set(got["names"])
    assert got["not_modules"] == []


# The process entry and the parser it builds

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "cli_pins.json").read_text())


def test_the_named_command_is_the_first_word_past_seed_and_jobs():
    named = cli._named_command
    assert named(["ncdt", "c3"]) == "ncdt"
    assert named(["--seed", "x", "--jobs=2", "gv", "--p2"]) == "gv"
    assert named(["--seed=3", "--jobs", "2", "verify-geometry"]) == \
        "verify-geometry"
    # --help before the command prints the top-level help: all are built
    for argv in ([], ["--seed"], ["nosuch", "ncdt"], ["--help", "ncdt"],
                 ["--se", "3", "ncdt"], ["--", "ncdt"]):
        assert named(argv) is None, argv


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_one_subparser_prints_what_all_of_them_print(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parser in (cli.build_parser(), cli.build_parser([command])):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        texts.append(out.getvalue())
    assert texts[0].startswith(f"usage: crepant {command} ")
    assert texts[1] == texts[0]


@pytest.mark.skipif(f"{sys.version_info[0]}.{sys.version_info[1]}"
                    != PINS["python"],
                    reason="argparse's layout differs between Python versions")
@pytest.mark.parametrize("case", PINS["cases"],
                         ids=lambda case: " ".join(case["argv"]) or "bare")
def test_usage_and_help_keep_their_bytes(case, monkeypatch):
    """Top-level usage, help and errors, with the subcommand named after
    --seed or --jobs and without one, as the full parser printed them."""
    monkeypatch.setenv("COLUMNS", str(PINS["columns"]))
    assert run_main(case["argv"]) == \
        (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("code,args", [
    (0, ["ncdt", "c3", "--order", "2"]),
    (1, ["ncdt", "nosuch", "--order", "3"]),
    (2, ["gv", "--p2", "--order", "2", "--genus", "-1"]),
    (0, ["gw", "--p2", "--order", "6", "--t-order", "50"]),
])
def test_the_process_prints_what_main_returns(code, args, monkeypatch):
    """Through ``python -m crepant`` and its pipes, the exit code, stdout
    and stderr of in-process ``cli.main``; the gw op's stdout is over
    64 KiB, past any pipe or stdio buffer."""
    monkeypatch.setenv("COLUMNS", "80")
    proc = run(*args, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_main(args)
    assert proc.returncode == code
    if args[0] == "gw":
        assert len(proc.stdout) > 64 * 1024


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("sink", ["full", "closed pipe"])
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [["ncdt", "c3", "--order", "6"],
                                  ["gw", "--p2", "--order", "6",
                                   "--t-order", "50"],
                                  ["--help"], ["ncdt", "--help"]])
def test_a_failed_stdout_write_is_one_error_line(args, unbuffered, sink):
    """stdout on a full device or a pipe no one reads: exit 1 and one
    ``error:`` line, whether the write fails inside the command or
    argparse's help (unbuffered, or output past the buffer) or at the final
    flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "full":
        with open("/dev/full", "wb") as out:
            proc = subprocess.run(BASE + args, stdout=out, env=env,
                                  stderr=subprocess.PIPE, text=True)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(BASE + args, stdout=write, env=env,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: [Errno ")


def test_the_installed_script_runs_the_module_entry():
    """``[project.scripts]`` names the function ``python -m crepant``
    calls, so both processes end the same way."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    body = ast.parse((ROOT / "src" / "crepant" / "__main__.py").read_text())
    imported = {alias.name for node in body.body
                if isinstance(node, ast.ImportFrom) and node.module == "cli"
                for alias in node.names}
    called = [ast.unparse(node.value.func) for node in body.body
              if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    assert len(called) == 1 and called[0] in imported
    assert scripts == {"crepant": f"crepant.cli:{called[0]}"}


def _file_argv(flag, path):
    return {"--polygon": ["triangulate", "--polygon", path],
            "--quiver": ["relations", "--quiver", path],
            "--rep": ["stability", "--builtin", "conifold", "--rep", path,
                      "--theta", "0=1,1=-1"]}[flag]


@pytest.mark.parametrize("flag", ["--polygon", "--quiver", "--rep"])
@pytest.mark.parametrize("text,fault", [
    ("{", "is not valid JSON"),
    ("[[0, 0], [1, 0], [0, 1]]", "must be a JSON object"),
    ('{"unrelated": 1}', "lacks the key"),
    ('{"vertices": 5, "arrows": 5, "basis": 5, "actions": []}', "malformed"),
])
def test_malformed_input_file_is_a_one_line_domain_error(tmp_path, flag,
                                                         text, fault):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_main(_file_argv(flag, str(path)))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fault in err


@pytest.mark.parametrize("coordinate", ["1.9", '"1"', "true"])
def test_polygon_coordinates_must_be_json_integers(tmp_path, coordinate):
    """A float, string or boolean coordinate is an error, not the unit
    triangle its truncation would give."""
    path = tmp_path / "polygon.json"
    path.write_text(f'{{"vertices": [[0, 0], [{coordinate}, 0], [0, 1]]}}')
    code, out, err = run_main(["triangulate", "--polygon", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: polygon JSON coordinates must be integers\n"


@pytest.mark.parametrize("coeff", ["1.5", '"1"', "true"])
def test_quiver_coefficients_must_be_json_integers(tmp_path, coeff):
    """A float, string or boolean potential coefficient is an error, not
    the integer its truncation would give."""
    path = tmp_path / "quiver.json"
    data = json.loads(quiver_to_json(*conifold_quiver()))
    data["potential"][0]["coeff"] = json.loads(coeff)
    path.write_text(json.dumps(data))
    code, out, err = run_main(["relations", "--quiver", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: quiver JSON coefficients must be integers\n"


# A small alphabet of valid and broken tokens per subcommand, sized so that
# every drawn command runs in well under a second.  Each entry is a flag
# (None for a positional) with the values drawn for it; "@" values name the
# input files written by the ``fuzz_files`` fixture.
ORDERS = ["-1", "0", "1", "2", "4", "6", "x"]
THETAS = ["0=1,1=-1", "0=-1,1=-2", "0=-1,1=-2,2=3", "0=x", "0", "0=1/0"]
VECTORS = ["1,-1", "-1,1", "1/2,-1/2", "1,2,3", "1", "a,b"]
CARTANS = ["[[2,-2],[-2,2]]", "[[2,-1],[-1,2]]", "[[0]]", "[[-2]]", "[[3]]",
           "[[2,1],[1,2]]", "[[2,-1],[-1]]", "[[2", "[]"]
FILES = ["@polygon", "@quiver", "@rep", "@broken", "@nokey", "@list",
         "@missing"]
QUIVER_SOURCE = [("--builtin", ["conifold", "c3", "p2", "laufer", "bogus"]),
                 ("--mckay", ["3:1,1,1", "2:1,1,0", "3:1,1,2", "x"]),
                 ("--quiver", FILES), ("--n", ["-1", "1", "2", "x"])]
POLYGON = [("--square", None), ("--triangle", None), ("--triangle2", None),
           ("--p2", None), ("--trapezoid", ["1,2", "0,0", "-1,2", "a,b"]),
           ("--zn", ["-1", "0", "2", "3", "x"]), ("--polygon", FILES)]
SMALL = ["-1", "0", "1", "2", "x"]
FUZZ_COMMANDS = {
    "mckay": ([(None, ["3:1,1,1", "5:1,1,3", "3:1,1,2", "0:1,1,1", "3:1,1",
                       "x"])],
              [("--potential", None)]),
    "relations": ([], QUIVER_SOURCE + [("--json", None)]),
    "frame": ([("--v0", ["0", "1", "z"])], QUIVER_SOURCE),
    "stability": ([("--rep", FILES), ("--theta", THETAS)],
                  QUIVER_SOURCE + [("--framed-v0", ["0", "1", "z"])]),
    "roots": ([("--height", ["-1", "0", "1", "3", "6", "x"])],
              QUIVER_SOURCE + [("--cartan", CARTANS), ("--json", None)]),
    "walls": ([("--theta1", VECTORS), ("--theta2", VECTORS)],
              QUIVER_SOURCE + [("--cartan", CARTANS),
                               ("--height", ["-1", "0", "3", "6"])]),
    "ncdt": ([(None, ["c3", "conifold", "mckay:3:1,1,1", "mckay:2:1,1,0",
                      "mckay:3:1,1,2", "mckay:x", "nosuch"]),
              ("--order", ORDERS)],
             [("--sign", ["unsigned", "dimension", "bogus"]),
              ("--json", None)]),
    "triangulate": ([], POLYGON + [("--json", None)]),
    "flops": ([], POLYGON),
    "web": ([], POLYGON + [("--index", ["-1", "0", "1", "9", "x"])]),
    "gw": ([("--order", SMALL)],
           POLYGON + [("--index", SMALL), ("--t-order", ["-1", "0", "8"])]),
    "gv": ([("--order", SMALL)],
           POLYGON + [("--index", SMALL), ("--t-order", ["-1", "0", "8"]),
                      ("--genus", SMALL), ("--json", None)]),
    "verify-geometry": ([(None, ["conifold", "laufer1", "laufer2", "nosuch"]),
                         ("--trials", ["-1", "0", "1", "3", "x"])],
                        [("--k", SMALL), ("--n", SMALL),
                         ("--override", ["v1_xy=x", "v1_xy=sin(x)", "bogus",
                                         "nosuch=1", "v1_xy=1/0"]),
                         ("--report-only", None)]),
    "compare": ([(None, ["c3", "conifold", "mckay:3:1,1,1", "mckay:x"]),
                 ("--order", SMALL), ("--theta", THETAS)],
                [("--map", ["q0=-Q0*t,q1=Q0", "q0=Q0^x", "q0", "q9=Q0"]),
                 ("--t-order", ["-1", "0", "6"]),
                 ("--sign", ["unsigned", "dimension"]),
                 ("--wall-radius", ["-1", "0", "2", "x"]), ("--json", None)]),
}
JUNK = ["--bogus", "", "-", "--order", "x"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "polygon": '{"vertices": [[0, 0], [1, 0], [0, 1]]}',
        "quiver": quiver_to_json(*conifold_quiver()),
        "rep": json.dumps({"basis": [{"id": "b0", "vertex": "0"},
                                     {"id": "b1", "vertex": "1"}],
                           "actions": [{"arrow": "A",
                                        "pairs": [["b0", "b1"]]}]}),
        "broken": "{",
        "nokey": '{"unrelated": 1}',
        "list": "[1, 2]",
    }
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text)
    return {f"@{name}": str(root / f"{name}.json")
            for name in list(texts) + ["missing"]}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_exit_cleanly(fuzz_files, data):
    def token(values):
        value = data.draw(st.sampled_from(values))
        return fuzz_files.get(value, value)

    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    argv = [command]
    for flag, values in required + data.draw(
            st.lists(st.sampled_from(optional), max_size=4)):
        argv += [flag] if flag else []
        argv += [token(values)] if values else []
    if data.draw(st.booleans()):
        argv.insert(data.draw(st.integers(0, len(argv))), token(JUNK))
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), argv
    if code == 1 and not out:
        assert err.startswith("error: "), argv
