"""Lattice polygons, unit triangulations, flops, and dual webs.

A unit triangulation tiles a convex lattice polygon by triangles of area
1/2; such a tiling necessarily uses every lattice point of the polygon and
has exactly twice-the-area triangles.  Enumeration walks a frontier of
directed boundary edges: the least frontier edge is always covered by a
unique triangle of any tiling, so each tiling is produced exactly once and
an empty frontier certifies an exact tiling.

The dual web has one trivalent node per triangle; each edge carries the
primitive normal of the shared side, so the three directions at a node sum
to zero.  Internal edges also carry the lattice framing integer n defined
by r1 + r2 = p + q + n (q - p), where (p, q) is the shared side oriented so
that its counterclockwise rotation points from the first node's triangle
into the second, and r1, r2 are the opposite vertices.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import CrepantError, json_object

Point = tuple[int, int]


def _cross(u: Point, v: Point) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _sub(u: Point, v: Point) -> Point:
    return (u[0] - v[0], u[1] - v[1])


def _rot90(v: Point) -> Point:
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


class LatticePolygon(namedtuple("LatticePolygon", "vertices")):
    """A convex polygon with integral vertices in counterclockwise order."""

    __slots__ = ()

    def __new__(cls, vertices):
        vs = tuple((int(x), int(y)) for x, y in vertices)
        if len(vs) < 3 or len(set(vs)) != len(vs):
            raise CrepantError("polygon needs at least three distinct vertices")
        n = len(vs)
        for i in range(n):
            a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            if _cross(_sub(b, a), _sub(c, b)) <= 0:
                raise CrepantError(
                    "vertices must be strictly convex in counterclockwise order")
        return super().__new__(cls, vs)

    def contains(self, p: Point) -> bool:
        n = len(self.vertices)
        return all(_cross(_sub(self.vertices[(i + 1) % n], self.vertices[i]),
                          _sub(p, self.vertices[i])) >= 0 for i in range(n))

    def lattice_points(self) -> tuple[Point, ...]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        points = []
        for x in range(min(xs), max(xs) + 1):
            for y in range(min(ys), max(ys) + 1):
                if self.contains((x, y)):
                    points.append((x, y))
        return tuple(sorted(points))

    def boundary_segments(self) -> tuple[tuple[Point, Point], ...]:
        """Primitive directed boundary steps, counterclockwise."""
        steps = []
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            d = _sub(b, a)
            g = math.gcd(abs(d[0]), abs(d[1]))
            step = (d[0] // g, d[1] // g)
            for k in range(g):
                p = (a[0] + k * step[0], a[1] + k * step[1])
                steps.append((p, (p[0] + step[0], p[1] + step[1])))
        return tuple(steps)

    def to_json(self) -> str:
        return json.dumps({"vertices": [list(v) for v in self.vertices]},
                          sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "LatticePolygon":
        """The polygon ``{"vertices": [[x, y], ...]}``; every coordinate must
        be a JSON integer, where the constructor would coerce it."""
        with json_object(text, "polygon JSON") as data:
            vertices = tuple(tuple(v) for v in data["vertices"])
            if not all(type(x) is int for v in vertices for x in v):
                raise CrepantError("polygon JSON coordinates must be integers")
            return cls(vertices)


Triangle = tuple[Point, Point, Point]  # vertices sorted lexicographically


def _norm_triangle(a: Point, b: Point, c: Point) -> Triangle:
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


class UnitTriangulation(namedtuple("UnitTriangulation", "polygon triangles")):
    """``len`` counts triangles, not fields, so ``_make``/``_replace`` do not
    apply."""

    __slots__ = ()

    def sorted_triangles(self) -> list[Triangle]:
        return sorted(self.triangles)

    def __len__(self):
        return len(self.triangles)


def unit_triangulations(polygon: LatticePolygon) -> list[UnitTriangulation]:
    """All tilings of the polygon into lattice triangles of area 1/2.

    Deterministic order; duplicate-free by construction.
    """
    points = polygon.lattice_points()
    results: list[frozenset] = []
    initial = frozenset(polygon.boundary_segments())

    def extend(frontier: frozenset, placed: frozenset):
        if not frontier:
            results.append(placed)
            return
        q, qp = min(frontier)
        side = _sub(qp, q)
        for w in points:
            if _cross(side, _sub(w, q)) != 1:
                continue
            new = set(frontier)
            ok = True
            for u, v in ((q, qp), (qp, w), (w, q)):
                if (u, v) in new:
                    new.remove((u, v))
                elif (v, u) in new:
                    ok = False  # triangle would sit outside the region
                    break
                else:
                    new.add((v, u))
            if ok:
                extend(frozenset(new), placed | {_norm_triangle(q, qp, w)})

    extend(initial, frozenset())
    results.sort(key=lambda tri_set: sorted(tri_set))
    return [UnitTriangulation(polygon, t) for t in results]


def _shared_edge(t1: Triangle, t2: Triangle):
    common = set(t1) & set(t2)
    return tuple(sorted(common)) if len(common) == 2 else None


def flop_adjacent(t1: UnitTriangulation, t2: UnitTriangulation) -> bool:
    """True iff the two tilings differ by one diagonal of a unit parallelogram."""
    if t1.polygon != t2.polygon:
        raise CrepantError("triangulations live on different polygons")
    d1 = t1.triangles - t2.triangles
    d2 = t2.triangles - t1.triangles
    if len(d1) != 2 or len(d2) != 2:
        return False
    a, b = sorted(d1)
    edge = _shared_edge(a, b)
    if edge is None:
        return False
    p, q = edge
    others = sorted((set(a) | set(b)) - {p, q})
    if len(others) != 2:
        return False
    r, s = others
    # the quadrilateral p,q,r,s is a parallelogram iff its diagonals bisect
    if (p[0] + q[0], p[1] + q[1]) != (r[0] + s[0], r[1] + s[1]):
        return False
    return d2 == {_norm_triangle(r, s, p), _norm_triangle(r, s, q)}


class WebEdge(namedtuple("WebEdge", "var nodes direction framing")):
    """Internal web edge between two nodes, with its Kaehler variable.

    ``direction`` is outgoing at ``nodes[0]``; the reverse at ``nodes[1]``.
    """

    __slots__ = ()


class WebLeg(namedtuple("WebLeg", "node direction")):
    __slots__ = ()


class DualWeb(namedtuple("DualWeb", "nodes edges legs")):
    """Triangles (one per node), internal ``WebEdge``s and external
    ``WebLeg``s."""

    __slots__ = ()

    def directions_at(self, node: int) -> list[Point]:
        return [d for _, _, d in self.slots_at(node)]

    def is_balanced(self) -> bool:
        for i in range(len(self.nodes)):
            dirs = self.directions_at(i)
            if len(dirs) != 3:
                return False
            if sum(d[0] for d in dirs) or sum(d[1] for d in dirs):
                return False
        return True

    def slots_at(self, node: int) -> list[tuple[str, object, Point]]:
        """Incident slots ("edge"/"leg", payload, outgoing direction)."""
        slots: list[tuple[str, object, Point]] = []
        for e in self.edges:
            if e.nodes[0] == node:
                slots.append(("edge", e, e.direction))
            elif e.nodes[1] == node:
                slots.append(("edge", e, (-e.direction[0], -e.direction[1])))
        for leg in self.legs:
            if leg.node == node:
                slots.append(("leg", leg, leg.direction))
        return slots

    def to_json(self) -> str:
        data = {
            "nodes": [{"id": i, "triangle": [list(p) for p in t]}
                      for i, t in enumerate(self.nodes)],
            "edges": [{"var": e.var, "nodes": list(e.nodes),
                       "direction": list(e.direction), "framing": e.framing}
                      for e in self.edges],
            "legs": [{"node": leg.node, "direction": list(leg.direction)}
                     for leg in self.legs],
        }
        return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _outward_normal(side: tuple[Point, Point], opposite: Point) -> Point:
    u, v = side
    d = _sub(v, u)
    n = _rot90(d)
    if _cross(d, _sub(opposite, u)) > 0:
        n = (-n[0], -n[1])
    return n


def dual_web(tri: UnitTriangulation) -> DualWeb:
    """Trivalent web dual to a unit triangulation."""
    triangles = tri.sorted_triangles()
    index = {t: i for i, t in enumerate(triangles)}
    by_side: dict[tuple[Point, Point], list[Triangle]] = {}
    for t in triangles:
        for i in range(3):
            side = tuple(sorted((t[i], t[(i + 1) % 3])))
            by_side.setdefault(side, []).append(t)

    edges, legs = [], []
    internal = sorted(side for side, ts in by_side.items() if len(ts) == 2)
    for k, side in enumerate(internal):
        ta, tb = sorted(by_side[side], key=index.get)
        ra = next(p for p in ta if p not in side)
        rb = next(p for p in tb if p not in side)
        d = _outward_normal(side, ra)
        # orient the side so its ccw rotation is the direction out of node a
        p, q = side
        if _rot90(_sub(q, p)) != d:
            p, q = q, p
        assert _rot90(_sub(q, p)) == d
        rsum = (ra[0] + rb[0] - p[0] - q[0], ra[1] + rb[1] - p[1] - q[1])
        step = _sub(q, p)
        if step[0]:
            n = rsum[0] // step[0]
        else:
            n = rsum[1] // step[1]
        if (n * step[0], n * step[1]) != rsum:
            raise CrepantError("shared side with non-lattice framing")
        edges.append(WebEdge(f"Q{k}", (index[ta], index[tb]), d, n))
    for side, ts in sorted(by_side.items()):
        if len(ts) == 1:
            t = ts[0]
            opposite = next(p for p in t if p not in side)
            legs.append(WebLeg(index[t], _outward_normal(side, opposite)))

    web = DualWeb(tuple(triangles), tuple(edges), tuple(legs))
    if not web.is_balanced():
        raise CrepantError("constructed web is not balanced")
    return web


# ---------------------------------------------------------------------------
# Built-in polygons

def unit_square() -> LatticePolygon:
    return LatticePolygon(((0, 0), (1, 0), (1, 1), (0, 1)))


def unit_triangle() -> LatticePolygon:
    return LatticePolygon(((0, 0), (1, 0), (0, 1)))


def double_triangle() -> LatticePolygon:
    return LatticePolygon(((0, 0), (2, 0), (0, 2)))


def p2_triangle() -> LatticePolygon:
    return LatticePolygon(((1, 0), (0, 1), (-1, -1)))


def zn_triangle(n: int) -> LatticePolygon:
    """The polygon of the order-(2n+1) cyclic geometry with weights (1,1,-2)."""
    if n < 1:
        raise CrepantError("need n >= 1")
    return LatticePolygon(((1, 0), (0, 1), (-n, -n)))


def trapezoid(n0: int, n1: int) -> LatticePolygon:
    if not (n0 >= n1 > 0):
        raise CrepantError("trapezoid needs N0 >= N1 > 0")
    return LatticePolygon(((0, 0), (n0, 0), (n1, 1), (0, 1)))


BUILTIN_POLYGONS = {
    "square": unit_square,
    "triangle": unit_triangle,
    "triangle2": double_triangle,
    "p2": p2_triangle,
}
