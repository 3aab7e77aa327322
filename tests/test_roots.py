"""Cartan matrices, positive roots, and walls."""

import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (brute_affine_a1_roots, dense_cartan_rows, dense_orbit,
                     fraction_certificate_signs, fraction_walls_between,
                     loop_count_cartan_matrix, reduction_positive_roots,
                     reflect, scan_fundamental_set, small_quivers, tits)

from crepant.compare import AFFINE_A1, chamber_certificate
from crepant.errors import CrepantError
from crepant.mckay import AbelianAction, mckay_quiver, parse_action
from crepant.quiver import (Quiver, c3_quiver, conifold_quiver, laufer_quiver,
                            local_p2_quiver)
from crepant.roots import (CartanMatrix, _fundamental_set, _orbit,
                           cartan_matrix, positive_roots, walls_between)


def test_cartan_examples():
    q, _ = conifold_quiver()
    assert cartan_matrix(q).rows == ({0: 2, 1: -4}, {0: -4, 1: 2})
    q3, _ = c3_quiver()
    assert cartan_matrix(q3).rows == ({0: -4},)
    p2, _ = local_p2_quiver()
    assert cartan_matrix(p2).rows == ({0: 2, 1: -3, 2: -3},
                                      {0: -3, 1: 2, 2: -3},
                                      {0: -3, 1: -3, 2: 2})


def test_cartan_matrix_matches_the_loop_count_formula():
    """One pass over the arrows, a loop taking 2 off its diagonal entry,
    gives the 2 - 2(loops) matrix."""
    quivers = [q for _, q, _ in small_quivers()] + [Quiver(
        ("0", "1"), [("x", "0", "0"), ("y", "0", "0"), ("z", "0", "0"),
                     ("a", "0", "1"), ("b", "1", "0"), ("c", "0", "1")])]
    assert cartan_matrix(quivers[-1]).rows == ({0: -4, 1: -3}, {0: -3, 1: 2})
    for q in quivers:
        built = cartan_matrix(q)
        assert built == loop_count_cartan_matrix(q), q
        assert all(list(row) == sorted(row) for row in built.rows), q


def test_a_rank_20000_cartan_matrix_fits_in_256_mib():
    """Each row holds its nonzero entries only, so the McKay quiver's
    Cartan matrix at rank 20000 builds where a square one (4e8 entries)
    cannot."""
    limit = 2 ** 28

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    code = ("from crepant.mckay import mckay_quiver, parse_action\n"
            "from crepant.roots import cartan_matrix\n"
            "q = mckay_quiver(parse_action('20000:1,1,19998'))\n"
            "assert cartan_matrix(q).size == 20000\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr


@st.composite
def dense_matrices(draw):
    """(vertices, rows): n <= 5 with entries -3..3 and diagonals up to 3;
    symmetric with nonpositive off-diagonal entries, then up to two entries
    redrawn, alone (asymmetric) or with their transposes (positive), and
    sometimes an entry or a row dropped or added, or a vertex too many or
    too few."""
    n = draw(st.integers(0, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 0))
    if n:
        for _ in range(draw(st.integers(0, 2))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = draw(st.integers(-3, 3))
            if draw(st.booleans()):
                rows[j][i] = rows[i][j]
    ragged = draw(st.sampled_from(["", "", "", "", "", "entry", "row",
                                   "vertex"]))
    if ragged == "entry" and n:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(st.integers(-3, 3)))
    elif ragged == "row":
        if n and draw(st.booleans()):
            rows.pop()
        else:
            rows.append([draw(st.integers(-3, 3)) for _ in range(n)])
    elif ragged == "vertex":
        n += draw(st.sampled_from([-1, 1])) if n else 1
    return tuple(map(str, range(n))), rows


@settings(max_examples=400, deadline=None)
@given(dense_matrices())
def test_from_dense_keeps_what_the_dense_validator_keeps(matrix):
    """``CartanMatrix.from_dense`` raises the dense validator's message, or
    stores exactly its nonzero entries, as ints, in increasing columns."""
    vertices, rows = matrix
    try:
        dense = dense_cartan_rows(vertices, rows)
    except CrepantError as exc:
        with pytest.raises(CrepantError) as err:
            CartanMatrix.from_dense(vertices, rows)
        assert str(err.value) == str(exc)
        return
    cm = CartanMatrix.from_dense(vertices, rows)
    assert [list(row.items()) for row in cm.rows] == \
        [[(j, a) for j, a in enumerate(row) if a] for row in dense]
    assert all(type(a) is int for row in cm.rows for a in row.values())


def test_cartan_matrix_validation():
    with pytest.raises(CrepantError):  # not symmetric
        CartanMatrix.from_dense(("0", "1"), ((2, -1), (-2, 2)))
    with pytest.raises(CrepantError):  # diagonal too large
        CartanMatrix.from_dense(("0",), ((3,),))
    with pytest.raises(CrepantError):  # positive off-diagonal
        CartanMatrix.from_dense(("0", "1"), ((2, 1), (1, 2)))


def test_a2_roots():
    cm = CartanMatrix.from_dense(("0", "1"), ((2, -1), (-1, 2)))
    roots = positive_roots(cm, 3)
    assert {(r.vector, r.kind) for r in roots} == {
        ((1, 0), "real"), ((0, 1), "real"), ((1, 1), "real")}


def test_affine_a1_roots_against_reflection_oracle():
    cm = CartanMatrix.from_dense(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 9)
    reals = {r.vector for r in roots if r.kind == "real"}
    imags = {r.vector for r in roots if r.kind == "imaginary"}
    oracle_reals, oracle_imags = brute_affine_a1_roots(9)
    assert reals == oracle_reals
    assert imags == oracle_imags
    assert reals == {(k, k + 1) for k in range(5)} | {(k + 1, k) for k in range(5)}
    assert imags == {(k, k) for k in range(1, 5)}


def test_real_roots_have_tits_two_and_reflection_closure():
    cm = CartanMatrix.from_dense(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 9)
    vectors = {r.vector for r in roots}
    for r in roots:
        if r.kind == "real":
            assert tits(cm, r.vector) == 2
        else:
            assert tits(cm, r.vector) <= 0
        for i in cm.loop_free():
            w = reflect(cm, r.vector, i)
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


@st.composite
def cartan_matrices(draw):
    """Symmetric, n <= 4, diagonal 2, 0 or -2, off-diagonal 0 to -3."""
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from([2, 0, -2]))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = -draw(st.integers(0, 3))
    return CartanMatrix.from_dense(tuple(map(str, range(n))), rows)


@settings(max_examples=200, deadline=None)
@given(cartan_matrices(), st.integers(1, 7))
def test_orbits_match_the_reduction_route(cartan, height):
    assert positive_roots(cartan, height) == \
        reduction_positive_roots(cartan, height)


def _test_cartan_matrices():
    """The Cartan matrices of the built-in quivers, of the McKay quivers the
    tests use, and compare's affine A1."""
    yield "conifold", cartan_matrix(conifold_quiver()[0])
    yield "c3", cartan_matrix(c3_quiver()[0])
    yield "p2", cartan_matrix(local_p2_quiver()[0])
    for n in (1, 2, 3):
        yield f"laufer{n}", cartan_matrix(laufer_quiver(n)[0])
    for d in ["2:1,1,0", "3:1,1,1", "5:1,1,3", "5:1,2,2", "5:1,4,0",
              "7:1,1,5"]:
        yield f"mckay{d}", cartan_matrix(mckay_quiver(parse_action(d)))
    yield "z2xz2", cartan_matrix(mckay_quiver(
        AbelianAction((2, 2), ((1, 0), (0, 1), (1, 1)))))
    yield "affine-a1", AFFINE_A1


@pytest.mark.parametrize("cartan", [pytest.param(c, id=name)
                                    for name, c in _test_cartan_matrices()])
def test_quiver_roots_match_the_reduction_route(cartan):
    for height in range(1, 11):
        assert positive_roots(cartan, height) == \
            reduction_positive_roots(cartan, height), height


@settings(max_examples=300, deadline=None)
@given(cartan_matrices(), st.integers(1, 8))
def test_walk_lists_the_fundamental_set_the_scan_lists(cartan, height):
    assert _fundamental_set(cartan, height) == \
        scan_fundamental_set(cartan, height)


@pytest.mark.parametrize("cartan", [pytest.param(c, id=name)
                                    for name, c in _test_cartan_matrices()])
def test_quiver_fundamental_sets_match_the_scan(cartan):
    for height in range(1, 13):
        assert _fundamental_set(cartan, height) == \
            scan_fundamental_set(cartan, height), height


def _orbits_match_the_dense_orbits(cartan, height):
    """``_orbit`` over each row's nonzero entries (the neighbours with
    their entries) reaches what the dense orbit reaches, from the loop-free
    simple roots and from the fundamental set."""
    n = cartan.size
    simple = [tuple(int(j == i) for j in range(n)) for i in cartan.loop_free()]
    fundamental = _fundamental_set(cartan, height)
    for seeds in (simple, fundamental):
        assert _orbit(cartan, seeds, height) == \
            dense_orbit(cartan, seeds, height), (seeds, height)


@settings(max_examples=200, deadline=None)
@given(cartan_matrices(), st.integers(1, 8))
def test_neighbour_orbits_match_the_dense_orbits(cartan, height):
    _orbits_match_the_dense_orbits(cartan, height)


@pytest.mark.parametrize("cartan", [pytest.param(c, id=name)
                                    for name, c in _test_cartan_matrices()])
def test_quiver_neighbour_orbits_match_the_dense_orbits(cartan):
    for height in range(1, 11):
        _orbits_match_the_dense_orbits(cartan, height)


def test_mckay_60_neighbour_orbits_match_the_dense_orbits():
    cartan = cartan_matrix(mckay_quiver(parse_action("60:1,1,58")))
    for height in (1, 2, 3):
        _orbits_match_the_dense_orbits(cartan, height)


@pytest.mark.parametrize("height", [400, 10000])
def test_affine_a1_orbits_reach_height(height):
    half = height // 2
    roots = positive_roots(AFFINE_A1, height)
    reals = {r.vector for r in roots if r.kind == "real"}
    imags = {r.vector for r in roots if r.kind == "imaginary"}
    assert reals == {(a, a + 1) for a in range(half)} | \
        {(a + 1, a) for a in range(half)}
    assert imags == {(m, m) for m in range(1, half + 1)}
    assert len(roots) == 3 * half


def test_walls_between_examples():
    cm = CartanMatrix.from_dense(("0", "1"), ((2, -2), (-2, 2)))
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
    cm = CartanMatrix.from_dense(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 5)
    report = walls_between((Fraction(1, 3), Fraction(-1, 2)),
                           (Fraction(-1, 3), Fraction(1, 2)), roots)
    assert report.separating


def test_walls_reject_theta_of_the_wrong_length():
    roots = positive_roots(AFFINE_A1, 4)
    with pytest.raises(CrepantError, match="theta1 has 3 entries, expected 2"):
        walls_between((1, 2, 3), (1, 2), roots)
    with pytest.raises(CrepantError, match="theta2 has 1 entries, expected 2"):
        walls_between((1, -1), (1,), roots)
    with pytest.raises(CrepantError, match="theta2 has 1 entries, expected 2"):
        walls_between((1, -1), (1,), [])


# zeros and entries of equal numerators over the denominators 2, 3, 4 and 6
# put parameters on walls and make bare numerators give other signs
WALL_ENTRIES = (0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4),
                Fraction(-1, 6), Fraction(5, 6), "-2/3", "3/4")
WALL_CARTANS = (AFFINE_A1, cartan_matrix(local_p2_quiver()[0]),
                cartan_matrix(mckay_quiver(parse_action("5:1,1,3"))))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(WALL_CARTANS), st.integers(1, 6), st.data())
def test_int_pairings_match_the_fraction_dot(cartan, height, data):
    """``walls_between`` and ``chamber_certificate`` pair scaled ints with
    each root; on rational parameters with mixed denominators they give the
    reports the ``Fraction`` pairing gives, and a parameter on a wall names
    the root the ``Fraction`` route stops at."""
    roots = positive_roots(cartan, height)
    entries = st.lists(st.sampled_from(WALL_ENTRIES), min_size=cartan.size,
                       max_size=cartan.size)
    theta1, theta2 = data.draw(entries), data.draw(entries)
    report = walls_between(theta1, theta2, roots)
    assert (report.separating, report.on_wall) == \
        fraction_walls_between(theta1, theta2, roots)

    def signs_or_error(certify):
        try:
            return certify(theta1, roots, height)
        except CrepantError as exc:
            return str(exc)

    got = signs_or_error(chamber_certificate)
    if not isinstance(got, str):
        assert got.theta == tuple(map(Fraction, theta1))
        got = got.signs
    assert got == signs_or_error(fraction_certificate_signs)
