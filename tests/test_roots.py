"""Cartan matrices, positive roots, and walls."""

from fractions import Fraction

import pytest
from support import brute_affine_a1_roots, tits

from crepant.errors import CrepantError
from crepant.mckay import AbelianAction, mckay_quiver
from crepant.quiver import c3_quiver, conifold_quiver, local_p2_quiver
from crepant.roots import CartanMatrix, cartan_matrix, positive_roots, walls_between


def test_cartan_examples():
    q, _ = conifold_quiver()
    assert cartan_matrix(q).rows == ((2, -4), (-4, 2))
    q3, _ = c3_quiver()
    assert cartan_matrix(q3).rows == ((-4,),)
    p2, _ = local_p2_quiver()
    assert cartan_matrix(p2).rows == ((2, -3, -3), (-3, 2, -3), (-3, -3, 2))


def test_cartan_matrix_validation():
    with pytest.raises(CrepantError):
        CartanMatrix(("0", "1"), ((2, -1), (-2, 2)))  # not symmetric
    with pytest.raises(CrepantError):
        CartanMatrix(("0",), ((3,),))  # diagonal too large
    with pytest.raises(CrepantError):
        CartanMatrix(("0", "1"), ((2, 1), (1, 2)))  # positive off-diagonal


def test_a2_roots():
    cm = CartanMatrix(("0", "1"), ((2, -1), (-1, 2)))
    roots = positive_roots(cm, 3)
    assert {(r.vector, r.kind) for r in roots} == {
        ((1, 0), "real"), ((0, 1), "real"), ((1, 1), "real")}


def test_affine_a1_roots_against_reflection_oracle():
    cm = CartanMatrix(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 9)
    reals = {r.vector for r in roots if r.kind == "real"}
    imags = {r.vector for r in roots if r.kind == "imaginary"}
    oracle_reals, oracle_imags = brute_affine_a1_roots(9)
    assert reals == oracle_reals
    assert imags == oracle_imags
    assert reals == {(k, k + 1) for k in range(5)} | {(k + 1, k) for k in range(5)}
    assert imags == {(k, k) for k in range(1, 5)}


def test_real_roots_have_tits_two_and_reflection_closure():
    cm = CartanMatrix(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 9)
    vectors = {r.vector for r in roots}
    for r in roots:
        if r.kind == "real":
            assert tits(cm, r.vector) == 2
        else:
            assert tits(cm, r.vector) <= 0
        for i in cm.loop_free():
            w = cm.reflect(r.vector, i)
            if min(w) >= 0 and 0 < sum(w) <= 9:
                assert w in vectors


def test_conifold_imaginary_root():
    q, _ = conifold_quiver()
    cm = cartan_matrix(q)
    roots = positive_roots(cm, 6)
    kinds = {r.vector: r.kind for r in roots}
    assert kinds[(1, 0)] == "real" and kinds[(0, 1)] == "real"
    assert kinds[(1, 1)] == "imaginary"
    assert tits(cm, (1, 1)) == -4


def test_loop_vertex_multiples_are_imaginary():
    q, _ = c3_quiver()
    roots = positive_roots(cartan_matrix(q), 4)
    assert [(r.vector, r.kind) for r in roots] == \
        [((k,), "imaginary") for k in (1, 2, 3, 4)]


def test_mckay_quiver_roots_exist():
    q = mckay_quiver(AbelianAction.cyclic(3, (1, 1, 1)))
    roots = positive_roots(cartan_matrix(q), 3)
    assert ((1, 1, 1) in {r.vector for r in roots})


def test_walls_between_examples():
    cm = CartanMatrix(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 9)
    same = walls_between((1, -1), (1, -1), roots)
    assert same.separating == ()

    report = walls_between((1, -1), (-1, 1), roots)
    sep = {r.vector for r in report.separating}
    assert sep == {r.vector for r in roots if r.kind == "real"}
    assert {r.vector for r in report.on_wall} == \
        {r.vector for r in roots if r.kind == "imaginary"}

    on = walls_between((1, 0), (2, -1), roots)
    assert (0, 1) in {r.vector for r in on.on_wall}


def test_walls_with_fractions():
    cm = CartanMatrix(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 5)
    report = walls_between((Fraction(1, 3), Fraction(-1, 2)),
                           (Fraction(-1, 3), Fraction(1, 2)), roots)
    assert report.separating


def test_walls_reject_theta_of_the_wrong_length():
    roots = positive_roots(CartanMatrix(("0", "1"), ((2, -2), (-2, 2))), 4)
    with pytest.raises(CrepantError, match="theta1 has 3 entries, expected 2"):
        walls_between((1, 2, 3), (1, 2), roots)
    with pytest.raises(CrepantError, match="theta2 has 1 entries, expected 2"):
        walls_between((1, -1), (1,), roots)
    with pytest.raises(CrepantError, match="theta2 has 1 entries, expected 2"):
        walls_between((1, -1), (1,), [])
