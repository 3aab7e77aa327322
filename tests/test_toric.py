"""Polygons, unit triangulations, flops, and dual webs."""

import pytest
from support import area2

from crepant.errors import CrepantError
from crepant.toric import (LatticePolygon, double_triangle, dual_web,
                           flop_adjacent, p2_triangle, trapezoid,
                           unit_square, unit_triangle, unit_triangulations,
                           zn_triangle)


def test_polygon_validation():
    with pytest.raises(CrepantError):
        LatticePolygon(((0, 0), (1, 0)))
    with pytest.raises(CrepantError):
        LatticePolygon(((0, 0), (1, 1), (1, 0)))  # clockwise
    with pytest.raises(CrepantError):
        LatticePolygon(((0, 0), (1, 0), (2, 0), (0, 1)))  # collinear corner


def test_polygon_json_round_trip():
    p = trapezoid(3, 2)
    assert LatticePolygon.from_json(p.to_json()) == p


@pytest.mark.parametrize("polygon,count", [
    (unit_square(), 2),
    (double_triangle(), 4),
    (unit_triangle(), 1),
    (p2_triangle(), 1),
])
def test_triangulation_counts(polygon, count):
    tris = unit_triangulations(polygon)
    assert len(tris) == count
    assert len(set(t.triangles for t in tris)) == count


def test_triangle_count_is_twice_area():
    for polygon in (unit_square(), double_triangle(), p2_triangle(),
                    trapezoid(3, 1), zn_triangle(2)):
        for tri in unit_triangulations(polygon):
            assert len(tri) == area2(polygon)


def test_all_triangles_are_unit():
    for tri in unit_triangulations(double_triangle()):
        for (a, b, c) in tri.sorted_triangles():
            det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert abs(det) == 1


def test_square_flop():
    t1, t2 = unit_triangulations(unit_square())
    assert flop_adjacent(t1, t2)
    assert flop_adjacent(t2, t1)
    assert not flop_adjacent(t1, t1)


def test_flop_needs_same_polygon():
    t1 = unit_triangulations(unit_square())[0]
    t2 = unit_triangulations(double_triangle())[0]
    with pytest.raises(CrepantError):
        flop_adjacent(t1, t2)


def test_double_triangle_flop_graph_connected():
    tris = unit_triangulations(double_triangle())
    assert len(tris) == 4
    adj = {i: set() for i in range(4)}
    for i in range(4):
        for j in range(4):
            if i != j and flop_adjacent(tris[i], tris[j]):
                adj[i].add(j)
    # irreflexive and symmetric by construction; connectivity by search
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert seen == {0, 1, 2, 3}
    # simultaneous double flops are not adjacent
    doubles = [(i, j) for i in range(4) for j in range(4)
               if i < j and not flop_adjacent(tris[i], tris[j])]
    assert doubles


def test_dual_web_shapes():
    c3 = dual_web(unit_triangulations(unit_triangle())[0])
    assert (len(c3.nodes), len(c3.edges), len(c3.legs)) == (1, 0, 3)

    for tri in unit_triangulations(unit_square()):
        web = dual_web(tri)
        assert (len(web.nodes), len(web.edges), len(web.legs)) == (2, 1, 4)
        assert web.edges[0].framing == 0

    p2 = dual_web(unit_triangulations(p2_triangle())[0])
    assert (len(p2.nodes), len(p2.edges), len(p2.legs)) == (3, 3, 3)
    assert sorted(abs(e.framing) for e in p2.edges) == [2, 2, 2]
    # the three nodes form a cycle
    pairs = {tuple(sorted(e.nodes)) for e in p2.edges}
    assert pairs == {(0, 1), (0, 2), (1, 2)}


def test_webs_balance():
    for polygon in (unit_square(), double_triangle(), p2_triangle(),
                    trapezoid(4, 2), zn_triangle(3)):
        for tri in unit_triangulations(polygon):
            web = dual_web(tri)
            assert web.is_balanced()
            for i in range(len(web.nodes)):
                assert len(web.directions_at(i)) == 3


def test_web_json_lists_edges_and_framings():
    import json
    web = dual_web(unit_triangulations(p2_triangle())[0])
    data = json.loads(web.to_json())
    assert {e["var"] for e in data["edges"]} == {"Q0", "Q1", "Q2"}
    assert all("framing" in e and "direction" in e for e in data["edges"])


def test_trapezoid_family():
    assert len(unit_triangulations(trapezoid(1, 1))) == 2  # the unit square
    with pytest.raises(CrepantError):
        trapezoid(1, 2)
    tris = unit_triangulations(trapezoid(2, 1))
    assert all(len(t) == area2(trapezoid(2, 1)) for t in tris)
