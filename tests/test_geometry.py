"""Exact chart verification for the built-in geometries."""

import json
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from support import (Poly, fraction_compile, fraction_reports,
                     generic_point, generic_verdicts)

from crepant.cli import build_parser
from crepant.errors import CrepantError
from crepant.geometry import (_MAX_BITS, _MAX_DEPTH, CHART1, CHART2, V_COORDS,
                              _compile, _points, _rational, _text,
                              builtin_geometry, verify_contraction,
                              verify_equivariance, verify_transition)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def as_fraction(pair):
    """A (num, den) value of the pair evaluator as a Fraction."""
    return Fraction(*pair)


def test_unknown_geometry_and_bad_parameters():
    with pytest.raises(CrepantError):
        builtin_geometry("sphere")
    with pytest.raises(CrepantError):
        builtin_geometry("laufer1")
    with pytest.raises(CrepantError):
        builtin_geometry("laufer2", n=0)


def test_conifold_all_identities_hold():
    geo = builtin_geometry("conifold")
    assert verify_transition(geo, 50, seed=3).holds()
    report = verify_contraction(geo, 50, seed=3)
    assert report.holds()
    names = [r.name for r in report.identities]
    assert names == ["v1_chart_agreement", "v2_chart_agreement",
                     "v3_chart_agreement", "v4_chart_agreement",
                     "equation_chart1", "equation_chart2"]


def test_conifold_has_no_action_data():
    geo = builtin_geometry("conifold")
    with pytest.raises(CrepantError):
        verify_equivariance(geo, 5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_laufer1_holds(k):
    geo = builtin_geometry("laufer1", k=k)
    assert verify_transition(geo, 30, seed=k).holds()
    assert verify_contraction(geo, 30, seed=k).holds()
    assert verify_equivariance(geo, 30, seed=k).holds()


def test_laufer2_flags_printed_inconsistencies():
    geo = builtin_geometry("laufer2", n=1)
    assert verify_transition(geo, 20, seed=5).holds()
    report = verify_contraction(geo, 20, seed=5)
    status = {r.name: r.status for r in report.identities}
    assert status["v1_chart_agreement"] == "fails"
    assert status["v4_chart_agreement"] == "fails"
    assert status["v2_chart_agreement"] == "holds"
    assert status["v3_chart_agreement"] == "holds"
    failing = report.identity("v1_chart_agreement")
    assert failing.failures == 20
    assert failing.counterexamples  # sample points with residuals recorded
    assert verify_equivariance(geo, 20, seed=5).holds()


def test_laufer2_v4_override_repairs_the_chart_agreement():
    geo = builtin_geometry(
        "laufer2", n=1,
        overrides={"v4_wz": "w**2*z1*z2 - z2**3 - w*z1**(n+1)"})
    report = verify_contraction(geo, 20, seed=5)
    status = {r.name: r.status for r in report.identities}
    assert status["v4_chart_agreement"] == "holds"
    assert status["v1_chart_agreement"] == "fails"  # stored as printed


def test_laufer2_fully_corrected_variant_verifies_on_chart2():
    geo = builtin_geometry(
        "laufer2", n=2,
        overrides={
            "v4_wz": "w**2*z1*z2 - z2**3 - w*z1**(n+1)",
            "equation": "v4**2 + v2**3 - v1*v3**2 - v1**(2*n+1)*v2",
        })
    report = verify_contraction(geo, 20, seed=5)
    assert report.identity("equation_chart2").status == "holds"


def test_bad_override_key_rejected():
    with pytest.raises(CrepantError):
        builtin_geometry("conifold", overrides={"v9_wz": "w"})
    with pytest.raises(CrepantError):
        builtin_geometry("conifold", overrides={"v1_wz": "this is not math ("})


def test_reports_are_deterministic_and_seed_sensitive():
    geo = builtin_geometry("laufer1", k=2)
    a = verify_contraction(geo, 10, seed=11).to_json()
    b = verify_contraction(geo, 10, seed=11).to_json()
    assert a == b
    c = verify_transition(geo, 10, seed=11)
    d = verify_transition(geo, 10, seed=12)
    assert c.to_json() != d.to_json() or c.holds() and d.holds()


@pytest.mark.parametrize("nonzero", [False, True])
def test_rational_draws_what_randint_draws(nonzero):
    rejected = 0
    for seed in range(50):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            num = slow.randint(-10 ** 4, 10 ** 4)
            while nonzero and num == 0:
                rejected += 1
                num = slow.randint(-10 ** 4, 10 ** 4)
            assert _rational(fast, nonzero) == (num, slow.randint(1, 10 ** 4))
        assert fast.getstate() == slow.getstate()
    assert rejected or not nonzero


def test_pair_text_is_the_fraction_text():
    """A counterexample's value is printed as ``str(Fraction(num, den))``
    prints it, on pairs of either sign, zero numerators and common
    factors."""
    rng = random.Random(7)
    pairs = [(0, 1), (0, -5), (6, 3), (-6, 3), (6, -3), (-6, -4), (1, -1)]
    for _ in range(5000):
        g = rng.choice((1, 1, 2, 6, 97, 10 ** 6))
        den = rng.randint(1, 10 ** 4) * rng.choice((1, -1)) * g
        pairs.append((rng.randint(-10 ** 4, 10 ** 4) * g, den))
    for pair in pairs:
        assert _text(pair) == str(Fraction(*pair)), pair


def test_zero_trials_rejected():
    """Each verifier checks its trial count first: the conifold carries no
    torus action, and equivariance still names the trial count."""
    geo = builtin_geometry("conifold")
    for verify in (verify_transition, verify_contraction, verify_equivariance):
        with pytest.raises(CrepantError, match="^need at least one trial$"):
            verify(geo, 0)


def sympy_parse(geo, text):
    """The stored text as a sympy object: the independent parse."""
    params = {name: sp.Integer(value)
              for name, value in (("k", geo.k), ("n", geo.n))
              if value is not None}
    return sp.sympify(text, locals=params)


def test_conifold_stored_chart1_contraction():
    geo = builtin_geometry("conifold")
    x, y1, y2 = sp.symbols("x y1 y2")
    assert [sympy_parse(geo, t) for t in geo.v_chart1] == [x * y1, x * y2,
                                                            y1, y2]


def sympy_oracle(expr, point):
    """The substitution route: exact sympy arithmetic at a rational point."""
    return sp.together(expr.xreplace(point))


README_OVERRIDES = {"v4_wz": "w**2*z1*z2 - z2**3 - w*z1**(n+1)",
                    "equation": "v4**2 + v2**3 - v1*v3**2 - v1**(2*n+1)*v2"}


@pytest.mark.parametrize("name,kw", [
    ("conifold", {}), ("laufer1", {"k": 1}), ("laufer1", {"k": 2}),
    ("laufer1", {"k": 3}), ("laufer2", {"n": 1}), ("laufer2", {"n": 2}),
    ("laufer2", {"n": 1, "overrides": README_OVERRIDES})])
def test_compiled_evaluation_matches_sympy_substitution(name, kw):
    geo = builtin_geometry(name, **kw)
    slots = [(geo.forward + geo.v_chart1, CHART1, (CHART1[0],)),
             (geo.backward + geo.v_chart2, CHART2, (CHART2[0],)),
             ((geo.equation,), V_COORDS, ())]
    rng = random.Random(7)
    for texts, coords, nonzero in slots:
        for values in _points(rng, coords, 10, nonzero=nonzero):
            point = {sp.Symbol(s): sp.Rational(*v)
                     for s, v in zip(coords, values)}
            for text in texts:
                expected = sympy_oracle(sympy_parse(geo, text), point)
                value = _compile(text, coords, geo.k, geo.n)(values)
                assert as_fraction(value) == expected


POINT = ((3, 1), (5, 1), (7, 1))  # (x, y1, y2) = (3, 5, 7) as pairs
REJECTED = ["sin(x)", "0.5*x", "x**y1", "x**(1/2)", "w*z1", "True", "", "(",
            "2 x", "1/0", "k", "x**n"]


# the override grammar: accepted texts with their value at POINT, and the
# texts rejected when the geometry is built
GRAMMAR = [
    ("conifold", {}, "x^2+1", Fraction(10)),
    ("conifold", {}, "x**(4/2)", Fraction(9)),
    ("conifold", {}, "x**-1", Fraction(1, 3)),
    ("conifold", {}, "-x**2", Fraction(-9)),
    ("conifold", {}, "+x*+2", Fraction(6)),
    ("conifold", {}, "x/2", Fraction(3, 2)),
    ("conifold", {}, " x + 1\n", Fraction(4)),
    ("laufer2", {"n": 1}, "n", Fraction(1)),
    *[("conifold", {}, text, CrepantError) for text in REJECTED],
]


@pytest.mark.parametrize("name,kw,text,expected", GRAMMAR,
                         ids=[f"{case[0]}-{case[2]!r}" for case in GRAMMAR])
def test_override_grammar(name, kw, text, expected):
    if expected is CrepantError:
        with pytest.raises(CrepantError):
            builtin_geometry(name, overrides={"v1_xy": text}, **kw)
        return
    geo = builtin_geometry(name, overrides={"v1_xy": text}, **kw)
    value = as_fraction(_compile(geo.v_chart1[0], CHART1, geo.k, geo.n)(POINT))
    assert type(value) is Fraction and value == expected


@pytest.mark.parametrize("text,expected", [
    ("(" * 300 + "x" + ")" * 300, Fraction(3)),
    ("+".join(["x"] * 5000), Fraction(15000)),
    ("+".join(["x"] * 150), Fraction(450)),
    ("+".join(["x"] * 500), Fraction(1500)),
    ("-" * 300 + "x", Fraction(3)),
], ids=["parens-300", "sum-5000", "sum-150", "sum-500", "minus-300"])
def test_deep_override_gives_a_value_or_a_domain_error(text, expected):
    try:
        geo = builtin_geometry("conifold", overrides={"v1_xy": text})
    except CrepantError as exc:
        assert "\n" not in str(exc)
        return
    assert as_fraction(_compile(geo.v_chart1[0], CHART1)(POINT)) == expected


def test_division_by_zero_is_a_failed_trial():
    # each equals y1 wherever it is defined; seed 501 samples y1 = 0 once,
    # and a text is evaluated as written, without cancelling y1/y1
    for text in ["(y1**2 + x*y1)/y1 - x", "y1*(y1/y1)"]:
        geo = builtin_geometry("conifold", overrides={"v3_xy": text})
        result = verify_contraction(geo, 100, seed=501).identity(
            "v3_chart_agreement")
        assert result.failures == 1
        (point, residual), = result.counterexamples
        assert dict(point)["y1"] == "0" and residual == ["zoo"]


def near_depth_sum(terms):
    """x/y1 + y2 + x/y1 + ... with ``terms`` terms, nested to the left:
    the denominators keep changing all the way down."""
    return "+".join((["x/y1", "y2"] * terms)[:terms])


def test_near_depth_sum_is_legal_just_below_the_limit():
    builtin_geometry("conifold", overrides={"v1_xy": near_depth_sum(480)})
    with pytest.raises(CrepantError):
        builtin_geometry("conifold",
                         overrides={"v1_xy": near_depth_sum(_MAX_DEPTH + 2)})


# every built-in geometry, the README overrides, the texts of the
# division-by-zero test, a legal sum nested near _MAX_DEPTH and texts whose
# constant subexpressions fold
ORACLE_GEOMETRIES = [
    ("conifold", {}), *[("laufer1", {"k": k}) for k in (1, 2, 3, 4)],
    *[("laufer2", {"n": n}) for n in (1, 2, 3)],
    ("laufer2", {"n": 1, "overrides": README_OVERRIDES}),
    ("conifold", {"overrides": {"v3_xy": "y1*(y1/y1)",
                                "v4_xy": "(y1**2 + x*y1)/y1 - x"}}),
    ("conifold", {"overrides": {"v1_xy": near_depth_sum(480)}}),
    ("conifold", {"overrides": {"v1_xy": "x**(4/2)", "v2_xy": "x**(4/-2)",
                                "v3_xy": "x**(-6/-3)", "v4_xy": "(1/2)**2*x",
                                "z1": "x*(3/4 - 3/4)"}}),
]


@pytest.mark.parametrize("text,message", [
    ("x**(3/-2)", "the exponent is not an integer"),
    ("1/(2-2)", "divides by zero"),
    ("0**-1*x", "divides by zero"),
])
def test_constant_folding_rejects_what_the_fraction_oracle_rejects(text,
                                                                   message):
    for compile_text in (_compile, fraction_compile):
        with pytest.raises(CrepantError, match=message):
            compile_text(text, CHART1)


def _value_or_error(fn, values):
    try:
        return fn(values)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("name,kw", ORACLE_GEOMETRIES,
                         ids=[f"{name}-{i}" for i, (name, _) in
                              enumerate(ORACLE_GEOMETRIES)])
def test_pair_evaluator_matches_fraction_oracle(name, kw):
    """Every text, at 200 seeded points and at the first 25 of them with
    each coordinate set to 0 in turn: equal values, and ZeroDivisionError
    at exactly the same points."""
    geo = builtin_geometry(name, **kw)
    slots = [(geo.forward + geo.v_chart1, CHART1),
             (geo.backward + geo.v_chart2, CHART2),
             ((geo.equation,), V_COORDS)]
    rng = random.Random(20)
    divisions_by_zero = 0
    for texts, coords in slots:
        points = _points(rng, coords, 200)
        points += [p[:i] + ((0, 1),) + p[i + 1:]
                   for p in points[:25] for i in range(len(coords))]
        for text in texts:
            pair_fn = _compile(text, coords, geo.k, geo.n)
            fraction_fn = fraction_compile(text, coords, geo.k, geo.n)
            for point in points:
                got = _value_or_error(pair_fn, point)
                want = _value_or_error(fraction_fn, tuple(map(as_fraction,
                                                            point)))
                if want is ZeroDivisionError:
                    divisions_by_zero += 1
                    assert got is ZeroDivisionError, (text, point)
                else:
                    assert got is not ZeroDivisionError, (text, point)
                    assert as_fraction(got) == want, (text, point)
    assert divisions_by_zero  # 1/x or 1/w at x = 0 or w = 0, at least


def _benchmark_geometry_ops():
    """The distinct verify-geometry ops of the benchmark, as parsed
    arguments; the ``--jobs 2`` twin is its serial op again."""
    parser, ops = build_parser(), {}
    for op in workloads.verify_geometry(lambda: 0):
        args = parser.parse_args(op.args)
        args.jobs = None
        ops.setdefault(str(vars(args)), args)
    return list(ops.values())


@pytest.mark.parametrize("args", _benchmark_geometry_ops(),
                         ids=lambda a: f"{a.geometry}-k{a.k}-n{a.n}"
                                       f"-{len(a.override or ())}overrides")
def test_reports_match_fraction_oracle_route(args):
    """Each benchmark op's geometry at seeds 0-7: the pair route and the
    Fraction route give equal reports, so equal failure counts and equal
    first counterexamples."""
    overrides = dict(item.split("=", 1) for item in args.override or ())
    geo = builtin_geometry(args.geometry, k=args.k, n=args.n,
                           overrides=overrides or None)
    for seed in range(8):
        reports = [verify_transition(geo, args.trials, seed=seed),
                   verify_contraction(geo, args.trials, seed=seed)]
        if geo.action is not None:
            reports.append(verify_equivariance(geo, args.trials, seed=seed))
        assert reports == fraction_reports(geo, args.trials, seed)


@pytest.mark.parametrize("text", [
    "x\\", "1.5*x", "sin(x)", "x if x else y1", "x**y1", "x**(1/2)",
    "1/(2-2)", "+".join(["x"] * 600)],
    ids=["backslash", "float", "call", "ifexp", "symbolic-exponent",
         "fractional-exponent", "zero-division", "sum-600"])
def test_compile_errors_match_the_ast_parse_route(text):
    """``_compile`` parses with the builtin ``compile`` and the Fraction
    oracle with ``ast.parse``: the same ``CrepantError`` text either way."""
    messages = []
    for compile_text in (_compile, fraction_compile):
        with pytest.raises(CrepantError) as exc:
            compile_text(text, CHART1)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("legal,refused", [
    (f"x**{_MAX_BITS // 15}", f"x**{_MAX_BITS // 15 + 1}"),
    (f"2**{(_MAX_BITS - 15) // 2}*x", f"2**{(_MAX_BITS - 15) // 2 + 1}*x"),
    (f"y1**-{_MAX_BITS // 15}", f"y1**-{_MAX_BITS // 15 + 1}"),
    (f"x**{_MAX_BITS // 30}*y1**{_MAX_BITS // 30}",
     f"x**{_MAX_BITS // 30}*y1**{_MAX_BITS // 30 + 1}"),
    ("x**100", "x**100000"),
])
def test_size_gate_at_its_cap(legal, refused):
    """The bound multiplies by an exponent and adds across a product: an
    override at the cap is accepted, one step past it is refused before
    any constant folds."""
    builtin_geometry("conifold", overrides={"v1_xy": legal})
    with pytest.raises(CrepantError, match="too large to evaluate"):
        builtin_geometry("conifold", overrides={"v1_xy": refused})


def test_size_gate_leaves_built_in_texts_uncapped():
    """laufer2's chart-1 v4 raises its gluing to the power n + 1, so at
    n = 63 its bound passes the cap; the built-in geometry still verifies
    there, and the same text as an override is refused."""
    geo = builtin_geometry("laufer2", n=63)
    with pytest.raises(CrepantError, match="too large to evaluate"):
        builtin_geometry("laufer2", n=63, overrides={"v4_xy": geo.v_chart1[3]})
    proc = subprocess.run(
        [sys.executable, "-m", "crepant", "verify-geometry", "laufer2",
         "--n", "63", "--trials", "1"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, "")
    fails = {"v1_chart_agreement", "v4_chart_agreement", "equation_chart1",
             "equation_chart2"}  # as at every n: see the geometry's notes
    assert [(r["identity"], r["status"])
            for r in json.loads(proc.stdout)["identities"]] == [
        (name, "fails" if name in fails else "holds")
        for name in ("transition_roundtrip", "v1_chart_agreement",
                     "v2_chart_agreement", "v3_chart_agreement",
                     "v4_chart_agreement", "equation_chart1",
                     "equation_chart2", "equivariance")]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))


@pytest.mark.parametrize("text", ["x**10000000", "2**99999999999*x",
                                  "x**(10**10)", "x**100000"])
def test_powers_past_the_size_cap_are_one_error_line(text):
    """Each ran past 10 s before the gate; now one line naming the text,
    with 2 GiB of address space for the command alone."""
    proc = subprocess.run(
        [sys.executable, "-m", "crepant", "verify-geometry", "conifold",
         "--trials", "3", "--override", f"v1_xy={text}"],
        capture_output=True, text=True, timeout=10,
        preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: {text!r} is too large to evaluate: its"
                           f" values may need more than {_MAX_BITS} bits\n")


def test_long_counterexamples_print_exactly():
    """A residual with more digits than ``str(int)`` converts by default
    is printed in full, not a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "crepant", "verify-geometry", "conifold",
         "--trials", "3", "--override", "v1_xy=x**2000"],
        capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (1, "")
    result, = [r for r in json.loads(proc.stdout)["identities"]
               if r["identity"] == "v1_chart_agreement"]
    assert result["failures"] == 3
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for example in result["counterexamples"]:
            x, y1 = (Fraction(example["point"][s]) for s in ("x", "y1"))
            residual, = example["residual"]
            assert len(residual) > limit
            assert residual == str(x * y1 - x ** 2000)  # z1 - v1 at x, y1
    finally:
        sys.set_int_max_str_digits(limit)


def test_generic_point_arithmetic():
    x, y = (v for v, _ in generic_point(2))
    assert (x + 1) ** 2 - (x * x + 2 * x + 1) == 0
    assert not (x - y) * (x + y) - (x ** 2 - y ** 2)
    assert 1 - x != 0 and 3 == x - x + 3 and x ** 0 == 1
    assert (x * y - y * x).terms == {} and isinstance(2 * x, Poly)


# every built-in geometry, and every override the README and scripts/ use
GENERIC_CASES = [
    ("conifold", {}), *[("laufer1", {"k": k}) for k in (1, 2, 3, 4)],
    *[("laufer2", {"n": n}) for n in (1, 2, 3)],
    *[("laufer2", {"n": n, "overrides": README_OVERRIDES}) for n in (1, 2)],
    ("laufer2", {"n": 1, "overrides": {"v4_wz": README_OVERRIDES["v4_wz"]}}),
]


@pytest.mark.parametrize("name,kw", GENERIC_CASES,
                         ids=[f"{name}-{i}" for i, (name, _) in
                              enumerate(GENERIC_CASES)])
def test_sampled_status_is_the_generic_point_status(name, kw):
    """100 sampled points decide each identity as the generic point proves
    it: a zero numerator there is a proof that it holds."""
    geo = builtin_geometry(name, **kw)
    reports = [verify_transition(geo, 100), verify_contraction(geo, 100)]
    if geo.action is not None:
        reports.append(verify_equivariance(geo, 100))
    sampled = [(r.name, r.status) for rep in reports for r in rep.identities]
    assert sampled == generic_verdicts(geo)
