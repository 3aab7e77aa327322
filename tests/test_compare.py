"""The side-by-side sheet and chamber certificates."""

from fractions import Fraction

import pytest

from crepant.compare import chamber_certificate, compare
from crepant.errors import CrepantError
from crepant.mckay import AbelianAction
from crepant.roots import CartanMatrix, positive_roots
from crepant.series import FormalSeries

AFFINE_A1_ROOTS = positive_roots(CartanMatrix(("0", "1"), ((2, -2), (-2, 2))), 9)


def test_certificate_signs_and_scaling():
    cert = chamber_certificate((-1, -2), AFFINE_A1_ROOTS, 5)
    scaled = chamber_certificate((-3, -6), AFFINE_A1_ROOTS, 5)
    assert cert.signs == scaled.signs
    flipped = chamber_certificate((1, 2), AFFINE_A1_ROOTS, 5)
    assert [s for _, _, s in flipped.signs] == [-s for _, _, s in cert.signs]


def test_certificate_rejects_walls():
    with pytest.raises(CrepantError):
        chamber_certificate((1, 0), AFFINE_A1_ROOTS, 5)  # kills root (0,1)
    with pytest.raises(CrepantError):
        # theta with theta0 + theta1 = 0 lies on the imaginary (k,k) walls
        chamber_certificate((1, -1), AFFINE_A1_ROOTS, 5)


def test_conifold_sheet_truncation_zero():
    sheet = compare("conifold", 0, {"0": -1, "1": -2},
                    variable_map={"q0": (1, {}), "q1": (1, {})})
    assert sheet.ncdt == FormalSeries.one(sheet.ncdt.vars, 0)
    assert sheet.gw.coefficient((0,)).coeffs == {0: 1}
    assert sheet.diff == ()


def test_conifold_sheet_generic_map_has_nonempty_diff():
    sheet = compare("conifold", 3, {"0": -1, "1": -2},
                    variable_map={"q0": (1, {"Q0": 1}), "q1": (1, {"Q0": 1})})
    assert sheet.diff
    text = sheet.to_text()
    assert "diff" in text
    json_text = sheet.to_json()
    assert "certificate" in json_text


def test_sheet_is_deterministic():
    kwargs = dict(variable_map={"q0": (-1, {"Q0": 1, "t": 1}),
                                "q1": (1, {"Q0": 1, "t": -1})})
    a = compare("conifold", 2, {"0": -1, "1": -2}, **kwargs)
    b = compare("conifold", 2, {"0": -1, "1": -2}, **kwargs)
    assert a.to_json() == b.to_json()


def test_scaled_theta_changes_only_the_recorded_theta():
    a = compare("conifold", 2, {"0": -1, "1": -2})
    b = compare("conifold", 2, {"0": -3, "1": -6})
    assert a.certificate.signs == b.certificate.signs
    assert a.ncdt == b.ncdt
    assert a.theta != b.theta


def test_wall_theta_rejected_by_name():
    with pytest.raises(CrepantError) as err:
        compare("conifold", 2, {"0": 1, "1": -1})
    assert "wall" in str(err.value)


def test_c3_sheet_shows_the_degree_zero_excess():
    sheet = compare("c3", 3, {"0": -1}, variable_map={"q0": (1, {})})
    # vertex side is the empty-web series 1; crystal side counts box stacks,
    # so the diff is exactly the positive-size crystal terms
    assert sheet.gw.coefficient(()).coeffs == {0: 1}
    assert sheet.diff
    diff_total = sum(c for _, c in sheet.diff)
    assert diff_total == 1 + 3 + 6  # sizes 1..3 of the one-colour count


def test_z3_sheet_computes_both_sides():
    act = AbelianAction.cyclic(3, (1, 1, 1))
    sheet = compare(act, 1, {"0": -1, "1": -2, "2": Fraction(-1, 2)},
                    t_cutoff=8)
    assert sheet.ncdt.coefficient((1, 0, 0)) == 1
    assert sheet.gw.vars == ("Q0", "Q1", "Q2")


def test_unsupported_action_has_no_polygon():
    act = AbelianAction.cyclic(5, (1, 2, 2))
    with pytest.raises(CrepantError):
        compare(act, 1, {str(v): -(v + 1) for v in range(5)})


def test_variable_map_must_cover_all_variables():
    with pytest.raises(CrepantError):
        compare("conifold", 1, {"0": -1, "1": -2},
                variable_map={"q0": (1, {"Q0": 1})})
    with pytest.raises(CrepantError):
        compare("conifold", 1, {"0": -1, "1": -2},
                variable_map={"q0": (1, {"Q9": 1}), "q1": (1, {})})
