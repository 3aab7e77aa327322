"""McKay quivers with superpotentials for abelian groups acting in SL(3,C).

The group is a product of cyclic factors acting diagonally on coordinates
z1, z2, z3 with weight vectors that sum to zero in the group (the Calabi-Yau
condition).  Vertices are the characters; each coordinate contributes one
arrow out of every vertex, named by ``arrow_name``, and the superpotential
is z1 z2 z3 - z1 z3 z2 at every vertex.  Cyclic groups are the tested path;
products are accepted but only constructed.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .errors import CrepantError
from .quiver import Quiver, Superpotential


class AbelianAction(namedtuple("AbelianAction", "orders weights")):
    """Diagonal action of prod Z_{orders[i]} with one weight vector per z_i.

    ``orders`` is a tuple of ints; ``weights`` holds three weight vectors,
    each reduced mod the orders.
    """

    __slots__ = ()

    def __new__(cls, orders, weights):
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 1 for n in orders):
            raise CrepantError("group orders must be positive")
        weights = tuple(tuple(wv) for wv in weights)
        if len(weights) != 3 or any(len(wv) != len(orders) for wv in weights):
            raise CrepantError("need three weight vectors matching the orders")
        weights = tuple(tuple(w % n for w, n in zip(wv, orders))
                        for wv in weights)
        total = tuple(sum(ws) % n for ws, n in zip(zip(*weights), orders))
        if any(total):
            raise CrepantError("weights must sum to zero (determinant-one action)")
        return super().__new__(cls, orders, weights)

    @classmethod
    def cyclic(cls, n: int, weights) -> "AbelianAction":
        w1, w2, w3 = weights
        return cls((n,), ((w1,), (w2,), (w3,)))

    @property
    def size(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(product(*(range(n) for n in self.orders)))

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def label(self, elem: tuple[int, ...]) -> str:
        return ".".join(str(x) for x in elem)

    def is_cyclic(self) -> bool:
        return len(self.orders) == 1


def parse_action(descriptor: str) -> AbelianAction:
    """Parse the CLI descriptor "n:w1,w2,w3", e.g. "3:1,1,1" or "7:1,1,5"."""
    try:
        head, tail = descriptor.split(":")
        n = int(head)
        w1, w2, w3 = (int(w) for w in tail.split(","))
    except (ValueError, AttributeError):
        raise CrepantError(f"bad action descriptor {descriptor!r}") from None
    return AbelianAction.cyclic(n, (w1, w2, w3))


def arrow_name(act: AbelianAction, i: int, elem: tuple[int, ...]) -> str:
    return f"z{i}_{act.label(elem)}"


def mckay_quiver(act: AbelianAction) -> Quiver:
    """One vertex per character; arrows k -> k + w_i for each coordinate i."""
    elems = act.elements()
    vertices = [act.label(e) for e in elems]
    arrows = []
    for e in elems:
        for i in (1, 2, 3):
            arrows.append((arrow_name(act, i, e), act.label(e),
                           act.label(act.add(e, act.weights[i - 1]))))
    return Quiver(vertices, arrows)


def mckay_superpotential(act: AbelianAction) -> Superpotential:
    """The z1 z2 z3 triangle minus the z1 z3 z2 triangle at every character.

    A triangle holds exactly one z1 arrow, which names the character it
    starts at, so every cyclic word occurs once, with coefficient 1 or -1.
    """
    terms = []
    for e in act.elements():
        for sign, order in ((1, (1, 2, 3)), (-1, (1, 3, 2))):
            word, at = [], e
            for i in order:
                word.append(arrow_name(act, i, at))
                at = act.add(at, act.weights[i - 1])
            terms.append((sign, word))
    return Superpotential(terms)
