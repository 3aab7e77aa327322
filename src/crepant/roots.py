"""Cartan matrices of quivers, positive roots, and stability walls.

The Cartan matrix is symmetric with diagonal 2 - 2(loops) and off-diagonal
minus the number of arrows between the two vertices in either direction.
Simple reflections act only at loop-free vertices, and both kinds of root
are orbits of the Weyl group W they generate (Kac, LNM 996): the real
roots are W applied to the loop-free simple roots, the imaginary roots W
applied to the fundamental set K of positive vectors with connected support
pairing nonpositively with every loop-free simple root.  The matrix keeps
one form: each row holds its nonzero entries only, filled from the arrows
in one pass; square rows enter through ``CartanMatrix.from_dense``.  K is
listed by one pruned depth-first walk over the coordinates, bounded by the
height left and by each row's last neighbour and largest |a_ij| right of
the diagonal; a reflection at i moves coordinate i alone, by the pairing of
the root with e_i over row i's entries.  A wall test pairs a rational
theta, scaled once to ints by ``reps._scaled``, with each root over the
root's nonzero coordinates; the ints keep every pairing's sign.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress

from .errors import CrepantError
from .quiver import Quiver
from .reps import _scaled


class CartanMatrix(namedtuple("CartanMatrix", "vertices rows")):
    """``rows[i]`` maps each column j with a_ij != 0 to the int a_ij, in
    increasing j; a missing key is a zero entry.  Only the stored entries
    are checked."""
    __slots__ = ()
    _SHAPE = "Cartan matrix shape does not match the vertices"

    def __new__(cls, vertices, rows):
        n = len(vertices)
        rows = tuple(rows)
        if len(rows) != n or any(not 0 <= j < n for row in rows for j in row):
            raise CrepantError(cls._SHAPE)
        if any(row.get(i, 0) > 2 for i, row in enumerate(rows)):
            raise CrepantError("diagonal Cartan entries must be at most 2")
        if any(rows[j].get(i) != a
               for i, row in enumerate(rows) for j, a in row.items()):
            raise CrepantError("Cartan matrix must be symmetric")
        if any(a > 0 for i, row in enumerate(rows) for j, a in row.items()
               if j != i):
            raise CrepantError("off-diagonal Cartan entries must be <= 0")
        return super().__new__(cls, vertices, rows)

    @classmethod
    def from_dense(cls, vertices, rows) -> CartanMatrix:
        """The matrix of square ``rows``, each entry coerced to ``int``."""
        n = len(vertices)
        rows = tuple(tuple(map(int, row)) for row in rows)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise CrepantError(cls._SHAPE)
        return cls(vertices, [{j: a for j, a in enumerate(row) if a}
                              for row in rows])

    @property
    def size(self) -> int:
        return len(self.vertices)

    def loop_free(self) -> list[int]:
        return [i for i, row in enumerate(self.rows) if row.get(i) == 2]


def cartan_matrix(quiver: Quiver) -> CartanMatrix:
    vs = quiver.vertices
    index = {v: i for i, v in enumerate(vs)}
    rows = [{i: 2} for i in range(len(vs))]
    for a in quiver.arrows:  # a loop subtracts 2 on the diagonal
        i, j = index[a.tail], index[a.head]
        rows[i][j] = rows[i].get(j, 0) - 1
        rows[j][i] = rows[j].get(i, 0) - 1
    return CartanMatrix(vs, [{j: a for j, a in sorted(row.items()) if a}
                             for row in rows])


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
        for j in cartan.rows[i]:
            if alpha[j] and j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(support)


def _orbit(cartan: CartanMatrix, seeds, height_bound: int) -> set:
    """What loop-free simple reflections carry the positive ``seeds`` to
    through nonnegative vectors of height at most the bound, the seeds
    included.  A reflection is invertible, so none of them is zero.

    The reflection at i subtracts c = (alpha, e_i) from coordinate i alone,
    so it gives a new vector exactly when c is nonzero, a nonnegative one
    exactly when c <= alpha_i, and its height is the old one minus c.  c is
    0 unless i neighbours the support, and sums over row i's entries.
    """
    rows = cartan.rows
    indices = range(cartan.size)
    loop_free = [row.get(i) == 2 for i, row in enumerate(rows)]
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for alpha in frontier:
            height = sum(alpha)
            near = set()
            for j in compress(indices, alpha):
                near.update(rows[j])
            for i in near:
                if not loop_free[i]:
                    continue
                c = sum([a * alpha[j] for j, a in rows[i].items()])
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
    comes.  With m the largest |a_ij| over i's neighbours j > i while one
    is unfixed, else 0, the walk prunes by

    - an upper bound: a loop-free k needs alpha_k <= (m left - pair_k)/(2 + m);
    - a lower bound: a fixed loop-free i whose last neighbour is k needs
      alpha_k >= ceil(pair_i / |a_ik|);
    - a cut: a fixed loop-free i with pair_i > m left ends the branch.

    m may exceed the largest |a_ij| over unfixed j only in the cut, which
    then prunes less; a full vector is kept by the definition.
    """
    rows = cartan.rows
    n = cartan.size
    loop_free = [row.get(i) == 2 for i, row in enumerate(rows)]
    above = [[j for j in row if j > i] for i, row in enumerate(rows)]
    top = [max([-r[j] for j in up], default=0) for r, up in zip(rows, above)]
    last = [max(up, default=i) for i, up in enumerate(above)]

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
        pair_k = sum(row.get(i, 0) * a for i, a, _ in fixed)
        m = top[k]
        hi = min(left, (m * left - pair_k) // (2 + m)) if loop_free[k] else left
        lo = 0
        for i, _, p in fixed:
            if loop_free[i] and last[i] == k:
                lo = max(lo, -(p // row[i]))
        for a in range(hi, lo - 1, -1):
            grown = fixed
            if a:
                grown = tuple((i, b, p + row.get(i, 0) * a)
                              for i, b, p in fixed)
                grown += ((k, a, pair_k + row.get(k, 0) * a),)
            rest = left - a
            if not any(p > (top[i] if last[i] > k else 0) * rest
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
    simple = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in cartan.loop_free()]
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
