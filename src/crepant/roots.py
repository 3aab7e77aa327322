"""Cartan matrices of quivers, positive roots, and stability walls.

The Cartan matrix is symmetric with diagonal 2 - 2(loops) and off-diagonal
minus the number of arrows between the two vertices in either direction.
Simple reflections act only at loop-free vertices, and both kinds of root
are orbits of the Weyl group W they generate (Kac, LNM 996): the real
roots are W applied to the loop-free simple roots, the imaginary roots W
applied to the fundamental set K of positive vectors with connected support
pairing nonpositively with every loop-free simple root.  K is listed by one
pruned depth-first walk over the coordinates, with an upper bound, a lower
bound and a cut from the height left; a reflection at i moves coordinate i
alone, by the pairing of the root with e_i.  A wall test pairs a rational
theta, scaled once to ints by ``reps._scaled``, with each root over the
root's nonzero coordinates; the ints keep every pairing's sign.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CrepantError
from .quiver import Quiver
from .reps import _scaled


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
    included.  A reflection is invertible, so none of them is zero.

    The reflection at i subtracts c = (alpha, e_i) from coordinate i alone,
    so it gives a new vector exactly when c is nonzero, a nonnegative one
    exactly when c <= alpha_i, and its height is the old one minus c.
    """
    rows = cartan.rows
    loop_free = cartan.loop_free()
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for alpha in frontier:
            support = [(j, a) for j, a in enumerate(alpha) if a]
            height = sum(a for _, a in support)
            for i in loop_free:
                row = rows[i]
                c = sum(row[j] * a for j, a in support)
                if c and c <= alpha[i] and height - c <= height_bound:
                    beta = alpha[:i] + (alpha[i] - c,) + alpha[i + 1:]
                    if beta not in seen:
                        seen.add(beta)
                        nxt.append(beta)
        frontier = nxt
    return seen


def _fundamental_set(cartan: CartanMatrix, height_bound: int) -> list:
    """The fundamental set: nonzero vectors of height at most the bound with
    connected support pairing nonpositively with every loop-free simple
    root, in lexicographic order.

    One depth-first walk fixes a coordinate at a time.  A node holds the
    next coordinate k, the height left, and the support fixed so far as
    (i, alpha_i, pair_i), pair_i being (alpha, e_i) over the fixed
    coordinates; a loop-free i off the support pairs nonpositively whatever
    comes.  With m the largest |a_ij| over unfixed j, the walk prunes by

    - an upper bound: a loop-free k needs alpha_k <= (m left - pair_k)/(2 + m);
    - a lower bound: a fixed loop-free i whose only unfixed neighbour is k
      needs alpha_k >= ceil(pair_i / |a_ik|);
    - a cut: a fixed loop-free i with pair_i > m left ends the branch.

    The bounds only prune; a full vector is kept by the definition.
    """
    rows = cartan.rows
    n = cartan.size
    loop_free = [rows[i][i] == 2 for i in range(n)]
    reach = []  # reach[i][k]: the largest |a_ij| over j >= k > i
    for i, row in enumerate(rows):
        suffix = [0] * (n + 1)
        for j in range(n - 1, i, -1):
            suffix[j] = max(suffix[j + 1], -row[j])
        reach.append(suffix)

    found = []
    stack = [(0, height_bound, ())]
    while stack:
        k, left, fixed = stack.pop()
        if k == n or not left:  # every coordinate left is zero
            if fixed and all(p <= 0 for i, _, p in fixed if loop_free[i]):
                alpha = [0] * n
                for i, a, _ in fixed:
                    alpha[i] = a
                if _support_connected(cartan, alpha):
                    found.append(tuple(alpha))
            continue
        row = rows[k]  # a_ki = a_ik: the matrix is symmetric
        pair_k = sum(row[i] * a for i, a, _ in fixed)
        hi = left
        if loop_free[k]:
            m = reach[k][k + 1]
            hi = min(hi, (m * left - pair_k) // (2 + m))
        lo = 0
        for i, _, p in fixed:
            if loop_free[i] and row[i] and not reach[i][k + 1]:
                lo = max(lo, -(p // row[i]))
        for a in range(hi, lo - 1, -1):
            grown = fixed
            if a:
                grown = tuple((i, b, p + row[i] * a) for i, b, p in fixed)
                grown += ((k, a, pair_k + row[k] * a),)
            rest = left - a
            if not any(p > reach[i][k + 1] * rest
                       for i, _, p in grown if loop_free[i]):
                stack.append((k + 1, rest, grown))
    return found


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
    simple = [tuple(int(j == i) for j in range(n)) for i in cartan.loop_free()]
    fundamental = _fundamental_set(cartan, height_bound)
    roots = [Root(v, "real") for v in _orbit(cartan, simple, height_bound)]
    roots += [Root(v, "imaginary")
              for v in _orbit(cartan, fundamental, height_bound)]
    return sorted(roots, key=lambda r: (r.height, r.vector))


class WallReport(namedtuple("WallReport", "separating on_wall")):
    __slots__ = ()


def _scaled_ints(theta) -> dict[int, int]:
    """A rational vector scaled once to ints by ``reps._scaled``: coordinate
    k maps to ``scale * theta[k]``, so a pairing summed over the ints has
    the sign of the exact pairing."""
    from fractions import Fraction
    return _scaled(dict(enumerate(map(Fraction, theta))))[1]


def _pairing(ints: dict[int, int], vector) -> int:
    """Scaled ints paired with a root vector over its nonzero coordinates."""
    return sum(ints[i] * c for i, c in enumerate(vector) if c)


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
    ints1, ints2 = _scaled_ints(theta1), _scaled_ints(theta2)
    separating, on_wall = [], []
    for root in roots:
        a = _pairing(ints1, root.vector)
        b = _pairing(ints2, root.vector)
        if a == 0 or b == 0:
            on_wall.append(root)
        elif (a < 0) != (b < 0):
            separating.append(root)
    return WallReport(tuple(separating), tuple(on_wall))
