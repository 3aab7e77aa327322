"""Cartan matrices of quivers, positive roots, and stability walls.

The Cartan matrix is symmetric with diagonal 2 - 2(loops) and off-diagonal
minus the number of arrows between the two vertices in either direction.
Simple reflections act only at loop-free vertices; a positive vector is a
real root when reflections carry it to a loop-free simple root, and an
imaginary root when its height-reducing reflection path ends at a vector
with connected support pairing nonpositively with every loop-free simple
root.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

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

    def tits(self, alpha, beta=None) -> int:
        beta = alpha if beta is None else beta
        return sum(a * self.pairing(beta, i) for i, a in enumerate(alpha))

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
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 - 2 * quiver.loop_count(vs[i])
    for a in quiver.arrows:
        i, j = index[a.tail], index[a.head]
        if i != j:
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


def _imaginary_root(cartan: CartanMatrix, alpha: tuple[int, ...]) -> bool:
    """Reduce by height-decreasing reflections; test the terminal vector."""
    loop_free = cartan.loop_free()
    alpha = tuple(alpha)
    while True:
        if any(a < 0 for a in alpha):
            return False
        positives = [i for i in loop_free if cartan.pairing(alpha, i) > 0]
        if not positives:
            return _support_connected(cartan, alpha)
        i = positives[0]
        if alpha == tuple(1 if j == i else 0 for j in range(cartan.size)):
            return False  # a loop-free simple root is real
        alpha = cartan.reflect(alpha, i)


def positive_roots(cartan: CartanMatrix, height_bound: int) -> list[Root]:
    """Positive roots of height at most the bound, tagged real or imaginary.

    Real roots are the reflection closure of the loop-free simple roots kept
    positive; imaginary roots are the lattice points whose reduction lands in
    the fundamental region.  Output is sorted by (height, vector).
    """
    if height_bound < 1:
        raise CrepantError("height bound must be at least 1")
    n = cartan.size
    loop_free = cartan.loop_free()

    reals: set[tuple[int, ...]] = set()
    frontier = [tuple(1 if j == i else 0 for j in range(n)) for i in loop_free]
    reals.update(frontier)
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in loop_free:
                beta = cartan.reflect(alpha, i)
                if beta in reals or any(b < 0 for b in beta) or not any(beta):
                    continue
                if sum(beta) <= height_bound:
                    reals.add(beta)
                    nxt.append(beta)
        frontier = nxt

    roots = [Root(v, "real") for v in reals]
    for alpha in _positive_vectors(n, height_bound):
        if alpha not in reals and _imaginary_root(cartan, alpha):
            roots.append(Root(alpha, "imaginary"))
    roots.sort(key=lambda r: (r.height, r.vector))
    return roots


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


def _dot(theta, vector) -> Fraction:
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
