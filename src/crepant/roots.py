"""Cartan matrices of quivers, positive roots, and stability walls.

The Cartan matrix is symmetric with diagonal 2 - 2(loops) and off-diagonal
minus the number of arrows between the two vertices in either direction.
Simple reflections act only at loop-free vertices, and both kinds of root
are orbits of the Weyl group W they generate (Kac, LNM 996): the real
roots are W applied to the loop-free simple roots, the imaginary roots W
applied to the fundamental set K of positive vectors with connected support
pairing nonpositively with every loop-free simple root.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CrepantError
from .quiver import Quiver


class CartanMatrix(namedtuple("CartanMatrix", "vertices rows")):
    __slots__ = ()

    def __new__(cls, vertices, rows):
        n = len(vertices)
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise CrepantError("Cartan matrix shape does not match the vertices")
        for i in range(n):
            if rows[i][i] > 2:
                raise CrepantError("diagonal Cartan entries must be at most 2")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise CrepantError("Cartan matrix must be symmetric")
                if i != j and rows[i][j] > 0:
                    raise CrepantError("off-diagonal Cartan entries must be <= 0")
        return super().__new__(cls, vertices, rows)

    @property
    def size(self) -> int:
        return len(self.vertices)

    def pairing(self, alpha, i: int) -> int:
        """(alpha, e_i) in the symmetrized bilinear form."""
        return sum(self.rows[i][j] * a for j, a in enumerate(alpha))

    def reflect(self, alpha, i: int) -> tuple[int, ...]:
        if self.rows[i][i] != 2:
            raise CrepantError("reflections act only at loop-free vertices")
        c = self.pairing(alpha, i)
        out = list(alpha)
        out[i] -= c
        return tuple(out)

    def loop_free(self) -> list[int]:
        return [i for i in range(self.size) if self.rows[i][i] == 2]


def cartan_matrix(quiver: Quiver) -> CartanMatrix:
    vs = quiver.vertices
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    rows = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a in quiver.arrows:  # a loop subtracts 2 on the diagonal
        i, j = index[a.tail], index[a.head]
        rows[i][j] -= 1
        rows[j][i] -= 1
    return CartanMatrix(vs, tuple(tuple(r) for r in rows))


class Root(namedtuple("Root", "vector kind")):  # kind: "real" or "imaginary"
    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.vector)


def _support_connected(cartan: CartanMatrix, alpha) -> bool:
    support = [i for i, a in enumerate(alpha) if a]
    if not support:
        return False
    seen = {support[0]}
    queue = [support[0]]
    while queue:
        i = queue.pop()
        for j in support:
            if j not in seen and cartan.rows[i][j] != 0:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(support)


def _orbit(cartan: CartanMatrix, seeds, height_bound: int) -> set:
    """What loop-free simple reflections carry the positive ``seeds`` to
    through nonnegative vectors of height at most the bound, the seeds
    included.  A reflection is invertible, so none of them is zero."""
    loop_free = cartan.loop_free()
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in loop_free:
                beta = cartan.reflect(alpha, i)
                if beta not in seen and min(beta) >= 0 \
                        and sum(beta) <= height_bound:
                    seen.add(beta)
                    nxt.append(beta)
        frontier = nxt
    return seen


def positive_roots(cartan: CartanMatrix, height_bound: int) -> list[Root]:
    """Positive roots of height at most the bound, tagged real or imaginary.

    Real roots are the orbit of the loop-free simple roots, imaginary roots
    the orbit of the fundamental set.  The orbits are exact within the
    bound: an imaginary root's height-decreasing walk ends in the
    fundamental set, and walking it back never exceeds the root's height.
    They are disjoint, as reflections keep the Tits form (alpha, alpha),
    which is 2 on a simple root and at most 0 on the fundamental set.
    Output is sorted by (height, vector).
    """
    if height_bound < 1:
        raise CrepantError("height bound must be at least 1")
    n = cartan.size
    loop_free = cartan.loop_free()
    simple = [tuple(int(j == i) for j in range(n)) for i in loop_free]
    fundamental = [
        alpha for alpha in _positive_vectors(n, height_bound)
        if all(cartan.pairing(alpha, i) <= 0 for i in loop_free)
        and _support_connected(cartan, alpha)]
    roots = [Root(v, "real") for v in _orbit(cartan, simple, height_bound)]
    roots += [Root(v, "imaginary")
              for v in _orbit(cartan, fundamental, height_bound)]
    return sorted(roots, key=lambda r: (r.height, r.vector))


def _positive_vectors(n: int, bound: int):
    """All nonzero vectors in Z_{>=0}^n of coordinate sum <= bound."""
    def rec(prefix, remaining, slots):
        if slots == 0:
            if any(prefix):
                yield tuple(prefix)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + [a], remaining - a, slots - 1)

    yield from rec([], bound, n)


class WallReport(namedtuple("WallReport", "separating on_wall")):
    __slots__ = ()


def _dot(theta, vector):
    """The exact pairing of a rational ``theta`` with a root vector."""
    from fractions import Fraction
    return sum((Fraction(t) * v for t, v in zip(theta, vector)), Fraction(0))


def walls_between(theta1, theta2, roots: list[Root]) -> WallReport:
    """Roots whose walls strictly separate the two parameters.

    ``theta1`` and ``theta2`` are rational vectors aligned with the root
    coordinates.  Roots on which either parameter vanishes are reported
    separately instead of being counted as separating.
    """
    theta1 = tuple(theta1)
    theta2 = tuple(theta2)
    size = len(roots[0].vector) if roots else len(theta1)
    for name, theta in (("theta1", theta1), ("theta2", theta2)):
        if len(theta) != size:
            raise CrepantError(f"{name} has {len(theta)} entries,"
                               f" expected {size}")
    separating, on_wall = [], []
    for root in roots:
        a = _dot(theta1, root.vector)
        b = _dot(theta2, root.vector)
        if a == 0 or b == 0:
            on_wall.append(root)
        elif (a < 0) != (b < 0):
            separating.append(root)
    return WallReport(tuple(separating), tuple(on_wall))
