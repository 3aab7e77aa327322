"""Exact chart verification for the built-in geometries."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from crepant.errors import CrepantError
from crepant.geometry import (CHART1, CHART2, V_COORDS, _compile, _points,
                              builtin_geometry, verify_contraction,
                              verify_equivariance, verify_transition)


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


def test_zero_trials_rejected():
    geo = builtin_geometry("conifold")
    with pytest.raises(CrepantError):
        verify_transition(geo, 0)


def test_conifold_stored_chart1_contraction():
    import sympy as sp

    geo = builtin_geometry("conifold")
    x, y1, y2 = sp.symbols("x y1 y2")
    assert list(geo.v_chart1) == [x * y1, x * y2, y1, y2]


def sympy_oracle(expr, point):
    """The substitution route: exact sympy arithmetic at a rational point."""
    return sp.together(expr.xreplace(point))


@pytest.mark.parametrize("name,kw", [
    ("conifold", {}), ("laufer1", {"k": 1}), ("laufer1", {"k": 2}),
    ("laufer1", {"k": 3}), ("laufer2", {"n": 1}), ("laufer2", {"n": 2})])
def test_compiled_evaluation_matches_sympy_substitution(name, kw):
    geo = builtin_geometry(name, **kw)
    slots = [(geo.forward + geo.v_chart1, CHART1, (CHART1[0],)),
             (geo.backward + geo.v_chart2, CHART2, (CHART2[0],)),
             ((geo.equation,), V_COORDS, ())]
    rng = random.Random(7)
    for exprs, coords, nonzero in slots:
        for values in _points(rng, coords, 10, nonzero=nonzero):
            point = {s: sp.Rational(v.numerator, v.denominator)
                     for s, v in zip(coords, values)}
            for expr in exprs:
                assert _compile(expr, coords)(values) == sympy_oracle(expr, point)


@pytest.mark.parametrize("text", ["sin(x)", "0.5*x", "x**y1", "w*z1"])
def test_non_rational_overrides_rejected(text):
    with pytest.raises(CrepantError):
        builtin_geometry("conifold", overrides={"v1_xy": text})


def test_rational_override_evaluates_exactly():
    geo = builtin_geometry("conifold", overrides={"v1_xy": "x/2"})
    value = _compile(geo.v_chart1[0], CHART1)((Fraction(3), Fraction(0),
                                                Fraction(0)))
    assert type(value) is Fraction and value == Fraction(3, 2)


def test_division_by_zero_is_a_failed_trial():
    # equal to y1 wherever it is defined; seed 501 samples y1 = 0 once
    geo = builtin_geometry(
        "conifold", overrides={"v3_xy": "(y1**2 + x*y1)/y1 - x"})
    result = verify_contraction(geo, 100, seed=501,
                                only=["v3_chart_agreement"]).identities[0]
    assert result.failures == 1
    (point, residual), = result.counterexamples
    assert dict(point)["y1"] == "0" and residual == ["zoo"]
