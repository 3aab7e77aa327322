"""The namedtuple value records against the frozen dataclasses they replaced.

Each record's repr, equality and hash must be what a frozen dataclass with
the same name, fields and defaults gives, and the records must stay
immutable.  The five classes that validate their input raise the same
messages and store the same normalised values as before.
"""

import itertools

import pytest

from support import area2, dataclass_twin, framed_conifold_modules

from crepant.compare import AFFINE_A1, ChamberCertificate, ComparisonSheet, compare
from crepant.errors import CrepantError
from crepant.geometry import (GluedThreefold, IdentityResult, TorusAction,
                              VerificationReport, builtin_geometry,
                              verify_contraction, verify_equivariance)
from crepant.mckay import AbelianAction, parse_action
from crepant.quiver import (Arrow, CyclicWord, FramedQuiver, Path, Quiver,
                            c3_quiver, conifold_quiver, frame, local_p2_quiver)
from crepant.reps import StabilityReport, framed_theta, is_semistable
from crepant.roots import (CartanMatrix, Root, WallReport, cartan_matrix,
                           positive_roots, walls_between)
from crepant.toric import (DualWeb, LatticePolygon, UnitTriangulation, WebEdge,
                           WebLeg, dual_web, p2_triangle, trapezoid,
                           unit_square, unit_triangulations)


def _stability_reports():
    reports = []
    for rep in itertools.islice(framed_conifold_modules(1), 6):
        alpha = rep.dimension_vector()
        for sign in (-1, 1):
            gauge = {v: sign for v in rep.quiver.vertices
                     if v != rep.framed.framing_vertex}
            theta = framed_theta(gauge, alpha, rep.framed.framing_vertex)
            reports.append(is_semistable(rep, theta))
    return reports


def _samples():
    quivers = [c3_quiver(), conifold_quiver(), local_p2_quiver()]
    q, w = quivers[1]
    polygons = [unit_square(), p2_triangle(), trapezoid(2, 1)]
    tris = [t for poly in polygons for t in unit_triangulations(poly)]
    webs = [dual_web(t) for t in tris]
    roots = positive_roots(AFFINE_A1, 6) + \
        positive_roots(cartan_matrix(quivers[2][0]), 3)
    geos = [builtin_geometry("conifold"), builtin_geometry("laufer1", k=2),
            builtin_geometry("laufer2", n=1, overrides={"v4_wz": "z1"})]
    reports = [verify_contraction(geo, 3, seed=1) for geo in geos] + \
        [verify_equivariance(geo, 2) for geo in geos[1:]]
    sheets = [compare("conifold", 2, {"0": -1, "1": -2}),
              compare("c3", 2, {"0": -1},
                      variable_map={"q0": (-1, {"t": 1})})]
    return {
        Arrow: [a for qw in quivers for a in qw[0].arrows],
        Path: [q.path(["A", "C"]), q.path(["B", "D", "A"]), q.path([], at="1")],
        CyclicWord: [t for qw in quivers for t in qw[1].terms],
        FramedQuiver: [frame(q, w, "0"), frame(q, w, "1"),
                       frame(*quivers[0], "0")],
        AbelianAction: [parse_action("3:1,1,1"), parse_action("5:1,1,3"),
                        AbelianAction((2, 2), ((1, 0), (0, 1), (1, 1)))],
        StabilityReport: _stability_reports(),
        CartanMatrix: [AFFINE_A1] + [cartan_matrix(qw[0]) for qw in quivers],
        Root: roots,
        WallReport: [walls_between((3, -1), (-3, 1), roots[:8]),
                     walls_between((1, 1), (2, 1), roots[:8])],
        LatticePolygon: polygons,
        UnitTriangulation: tris,
        WebEdge: [e for web in webs for e in web.edges],
        WebLeg: [leg for web in webs for leg in web.legs],
        DualWeb: webs,
        TorusAction: [geo.action for geo in geos if geo.action is not None],
        GluedThreefold: geos,
        IdentityResult: [r for report in reports for r in report.identities],
        VerificationReport: reports,
        ChamberCertificate: [sheet.certificate for sheet in sheets],
        ComparisonSheet: sheets,
    }


SAMPLES = _samples()


def test_all_twenty_records_are_sampled():
    assert len(SAMPLES) == 20
    for cls, items in SAMPLES.items():
        assert items and all(type(x) is cls for x in items), cls.__name__
        assert len(set(map(repr, items))) > 1, cls.__name__


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_repr_eq_and_hash_match_the_dataclass(cls):
    twin = dataclass_twin(cls)
    items = SAMPLES[cls]
    twins = [twin(*x) for x in items]
    for x, t in zip(items, twins):
        assert repr(x) == repr(t)
        assert cls(*x) == x
        if _hashable(t):
            assert hash(x) == hash(t)
        else:
            with pytest.raises(TypeError):
                hash(x)
    for (x, tx), (y, ty) in itertools.product(zip(items, twins), repeat=2):
        assert (x == y) == (tx == ty)
        assert (x != y) == (tx != ty)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    x = SAMPLES[cls][0]
    with pytest.raises(AttributeError):
        setattr(x, cls._fields[0], None)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")


def test_defaults_match_the_dataclass_fields():
    assert StabilityReport("stable") == ("stable", None)
    geo = builtin_geometry("conifold")
    bare = GluedThreefold(*geo[:7])
    assert (bare.action, bare.notes, bare.k, bare.n) == (None, (), None, None)
    assert IdentityResult("v1", "holds", 3, 0).counterexamples == ()


def test_override_replaces_fields_and_keeps_the_rest():
    geo = builtin_geometry("laufer2", n=1)
    new = builtin_geometry("laufer2", n=1, overrides={"v4_wz": "z1",
                                                      "equation": "v1"})
    assert new.v_chart2 == geo.v_chart2[:3] + ("z1",)
    assert new.equation == "v1"
    assert new.notes == geo.notes + ("override v4_wz = z1",
                                     "override equation = v1")
    assert new._replace(v_chart2=geo.v_chart2, equation=geo.equation,
                        notes=geo.notes) == geo


# ---------------------------------------------------------------------------
# the five validating constructors

_Q, _W = conifold_quiver()
_FRAMED = frame(_Q, _W, "0")
_INTO_INF = Quiver(_FRAMED.quiver.vertices,
                   _FRAMED.quiver.arrows + (Arrow("back", "0", "inf"),))


@pytest.mark.parametrize("build,message", [
    (lambda: AbelianAction((), ((), (), ())), "group orders must be positive"),
    (lambda: AbelianAction((0,), ((0,), (0,), (0,))),
     "group orders must be positive"),
    (lambda: AbelianAction((3,), ((1,), (2,))),
     "need three weight vectors matching the orders"),
    (lambda: AbelianAction((3,), ((1,), (1,), ())),
     "need three weight vectors matching the orders"),
    (lambda: AbelianAction((3,), ((1,), (1,), (1, 0))),
     "need three weight vectors matching the orders"),
    (lambda: AbelianAction((3,), ((1,), (1,), (2,))),
     "weights must sum to zero (determinant-one action)"),
    (lambda: CyclicWord((), 1), "cyclic word must be nonempty"),
    (lambda: FramedQuiver(_INTO_INF, _W, "inf", "fr", "0"),
     "framing vertex must have no incoming arrows"),
    (lambda: FramedQuiver(_FRAMED.quiver, _W, "inf", "fr", "1"),
     "framing vertex must have the single framing arrow"),
    (lambda: FramedQuiver(_FRAMED.quiver, _W, "inf", "A", "0"),
     "framing vertex must have the single framing arrow"),
    (lambda: CartanMatrix.from_dense(("0", "1"), ((2, -2),)),
     "Cartan matrix shape does not match the vertices"),
    (lambda: CartanMatrix.from_dense(("0",), ((3,),)),
     "diagonal Cartan entries must be at most 2"),
    (lambda: CartanMatrix.from_dense(("0", "1"), ((2, -1), (-2, 2))),
     "Cartan matrix must be symmetric"),
    (lambda: CartanMatrix.from_dense(("0", "1"), ((2, 1), (1, 2))),
     "off-diagonal Cartan entries must be <= 0"),
    # two faults: the diagonal is checked before symmetry
    (lambda: CartanMatrix.from_dense(("0", "1"), ((2, -1), (-2, 3))),
     "diagonal Cartan entries must be at most 2"),
    # the stored form: a column past the vertices is a shape fault
    (lambda: CartanMatrix(("0", "1"), ({0: 2, 2: -1}, {1: 2})),
     "Cartan matrix shape does not match the vertices"),
    (lambda: LatticePolygon(((0, 0), (1, 0))),
     "polygon needs at least three distinct vertices"),
    (lambda: LatticePolygon(((0, 0), (1, 0), (1, 0), (0, 1))),
     "polygon needs at least three distinct vertices"),
    (lambda: LatticePolygon(((0, 0), (0, 1), (1, 0))),
     "vertices must be strictly convex in counterclockwise order"),
])
def test_validators_raise_the_same_messages(build, message):
    with pytest.raises(CrepantError) as err:
        build()
    assert str(err.value) == message


def test_validators_normalise_as_before():
    act = AbelianAction(orders=["5"], weights=[[6], [-1], [-5]])
    assert act == AbelianAction.cyclic(5, (1, 4, 0))
    assert act.orders == (5,) and act.weights == ((1,), (4,), (0,))
    assert all(type(n) is int for n in act.orders)

    cw = CyclicWord(["z", "x", "y"], 2)
    assert cw.word == ("x", "y", "z") and cw.coeff == 2 and len(cw) == 3

    fq = FramedQuiver(_FRAMED.quiver, _W, "inf", "fr", "0")
    assert fq == _FRAMED and fq.gauge_vertices() == ("0", "1")

    cm = CartanMatrix.from_dense(("0", "1"), [[2.0, -2], [True - 3, 2]])
    assert cm.rows == ({0: 2, 1: -2}, {0: -2, 1: 2}) and cm == AFFINE_A1
    assert all(type(x) is int for row in cm.rows for x in row.values())

    poly = LatticePolygon([[0, 0], [1.0, 0], [1, 1], ["0", 1]])
    assert poly.vertices == ((0, 0), (1, 0), (1, 1), (0, 1))
    assert poly == unit_square() and area2(poly) == 2
    assert len(unit_triangulations(poly)[0]) == 2
