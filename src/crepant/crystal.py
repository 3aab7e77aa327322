"""Crystal counting: framed cyclic monomial modules counted by size.

Two atom families ship.  For C^3/Z_n the atoms are boxes (i,j,k) in the
octant, coloured by the character i*w1 + j*w2 + k*w3; a configuration is a
box stack closed under the coordinate predecessors.  For the conifold the
atoms are the stones of the length-1 pyramid, with colours alternating by
layer.  The pyramid is coordinatized by the loop monomials of the quiver:
a white (even-layer) stone is a monomial class (a,b,c,d) in the four
vertex-0 loops v1=AC, v2=AD, v3=BC, v4=BD with min(b,c)=0 imposed by the
relation v1 v4 = v2 v3, and a black (odd-layer) stone is such a class
followed by A or B, normalized by the relations v3*A = v1*B and
v2*B = v4*A.  The predecessor and ``arrows_from`` rules below are read off
those rewriting rules, so every configuration is automatically a module
satisfying the potential relations.

A family is the object ``family_for`` returns.  It has ``apex``,
``variables`` (one per colour), ``quiver``, ``potential`` and ``framed``,
and per atom ``predecessors``, ``successors``, ``sort_key``, ``color_index``
and ``arrows_from``, which yields (arrow name, image) for each gauge arrow
out of the atom, on the full crystal.

Both families are graded by ``sort_key(atom)[0]`` with every predecessor one
layer down, so an ideal is one chain of layer sets S0 = {apex}, S1, S2, ...,
each S_{k+1} a nonempty set of atoms whose predecessors all lie in S_k.
``configurations`` lists the ideals by a depth-first walk over these
chains, one ideal per chain by construction.  Counts come from a
layer-profile recursion over the same chains (``enumerate_configurations``):
what can follow a top set depends only on its next layer and the atoms
left, which is the transfer-matrix view of plane and pyramid partitions.

Both run on one atom index per call (``_AtomIndex``): an atom is numbered
when first met, and its ``sort_key``, successor numbers and predecessor
bitmask are asked of the family once.  A layer set is a tuple of numbers in
``sort_key`` order, and its next layer, memoized on that tuple, is the set
of its successors whose predecessor mask lies inside it; this is the one
next-layer rule of the module.  The recursion keeps two frames per layer, a
lookup frame (``above``) and a count frame (``grow``), so an order far past
the stack's reach ends at once on the recursion limit, which the CLI
reports as one error line; a DP without recursion would run on for hours
there unless gated by a reach bound computed before counting.

Reverse search over single atoms (canonical parent = drop the largest
removable atom) is the test oracle for both, and the frozenset layer DP that
preceded the index is kept verbatim in ``tests/support.py``.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CrepantError
from .mckay import (AbelianAction, arrow_name, mckay_quiver,
                    mckay_superpotential, parse_action)
from .quiver import conifold_quiver, frame
from .reps import MonomialRepresentation
from .series import FormalSeries


class BoxFamily:
    """Box stacks in the octant, coloured by an abelian action."""

    def __init__(self, act: AbelianAction):
        self.act = act
        self.quiver = mckay_quiver(act)
        self.potential = mckay_superpotential(act)
        self.apex = (0, 0, 0)
        self.framed = frame(self.quiver, self.potential, self.quiver.vertices[0])
        self.variables = tuple(f"q{v}" for v in self.quiver.vertices)
        self._index = {e: i for i, e in enumerate(act.elements())}

    def _character(self, atom) -> tuple[int, ...]:
        i, j, k = atom
        w1, w2, w3 = self.act.weights
        return tuple((i * a + j * b + k * c) % n
                     for a, b, c, n in zip(w1, w2, w3, self.act.orders))

    def predecessors(self, atom):
        i, j, k = atom
        if i:
            yield (i - 1, j, k)
        if j:
            yield (i, j - 1, k)
        if k:
            yield (i, j, k - 1)

    def successors(self, atom):
        i, j, k = atom
        yield (i + 1, j, k)
        yield (i, j + 1, k)
        yield (i, j, k + 1)

    def arrows_from(self, atom):
        elem = self._character(atom)
        for i, image in enumerate(self.successors(atom), 1):
            yield arrow_name(self.act, i, elem), image

    def sort_key(self, atom):
        return (sum(atom), atom)

    def color_index(self, atom) -> int:
        return self._index[self._character(atom)]


class PyramidFamily:
    """Stones of the length-1 conifold pyramid.

    Atoms are ("w", a, b, c, d) for white stones and ("A"|"B", a, b, c, d)
    for black stones, in the normal forms described in the module docstring.
    """

    def __init__(self):
        self.quiver, self.potential = conifold_quiver()
        self.apex = ("w", 0, 0, 0, 0)
        self.framed = frame(self.quiver, self.potential, "0")
        self.variables = ("q0", "q1")

    def arrows_from(self, atom):
        kind, a, b, c, d = atom
        if kind == "w":
            yield "A", ("A", a, b, 0, d) if c == 0 else ("B", a + 1, 0, c - 1, d)
            yield "B", ("B", a, 0, c, d) if b == 0 else ("A", a, b - 1, 0, d + 1)
        elif kind == "A":
            yield "C", ("w", a + 1, b, 0, d)
            yield "D", ("w", a, b + 1, 0, d)
        else:
            yield "C", ("w", a, 0, c + 1, d)
            yield "D", ("w", a, 0, c, d + 1)

    def predecessors(self, atom):
        kind, a, b, c, d = atom
        if kind == "w":
            if a and c == 0:
                yield ("A", a - 1, b, 0, d)
            if b:
                yield ("A", a, b - 1, 0, d)
            if c:
                yield ("B", a, 0, c - 1, d)
            if d and b == 0:
                yield ("B", a, 0, c, d - 1)
        elif kind == "A":
            yield ("w", a, b, 0, d)
            if d:
                yield ("w", a, b + 1, 0, d - 1)
        else:
            yield ("w", a, 0, c, d)
            if a:
                yield ("w", a - 1, 0, c + 1, d)

    def successors(self, atom):
        return (image for _, image in self.arrows_from(atom))

    def sort_key(self, atom):
        kind, a, b, c, d = atom
        layer = 2 * (a + b + c + d) + (0 if kind == "w" else 1)
        return (layer, kind, a, b, c, d)

    def color_index(self, atom) -> int:
        return 0 if atom[0] == "w" else 1


def family_for(name_or_act):
    """Resolve "c3", "conifold", "mckay:n:w1,w2,w3" or an ``AbelianAction``
    into a family."""
    if isinstance(name_or_act, AbelianAction):
        return BoxFamily(name_or_act)
    if name_or_act == "conifold":
        return PyramidFamily()
    if name_or_act == "c3":
        return BoxFamily(AbelianAction.cyclic(1, (0, 0, 0)))
    if isinstance(name_or_act, str) and name_or_act.startswith("mckay:"):
        return BoxFamily(parse_action(name_or_act[6:]))
    raise CrepantError(f"unknown crystal family {name_or_act!r}")


class _AtomIndex:
    """The atoms of one call as ints, each asked of the family once.

    An atom gets its number and its ``sort_key`` when first met, as a
    successor or as a predecessor.  Its successors, as numbers, are read
    when it first lies in a top layer set; each of them gets its
    predecessor bitmask then, numbering new predecessors on the way.
    """

    def __init__(self, family):
        self.family = family
        self.atoms: list = []
        self.keys: list = []
        self.succ: list = []
        self.pmask: list = []
        self.numbers: dict = {}
        self.layers: dict = {}
        self.number(family.apex)

    def number(self, atom) -> int:
        i = self.numbers.get(atom)
        if i is None:
            i = self.numbers[atom] = len(self.atoms)
            self.atoms.append(atom)
            self.keys.append(self.family.sort_key(atom))
            self.succ.append(None)
            self.pmask.append(None)
        return i

    def successors(self, i: int) -> tuple:
        succ = self.succ[i]
        if succ is None:
            family, number, pmask = self.family, self.number, self.pmask
            succ = tuple(map(number, family.successors(self.atoms[i])))
            self.succ[i] = succ
            for s in succ:
                if pmask[s] is None:
                    bits = 0
                    for p in family.predecessors(self.atoms[s]):
                        bits |= 1 << number(p)
                    pmask[s] = bits
        return succ

    def next_layer(self, top: tuple) -> tuple:
        """The atoms one layer above the set ``top`` whose predecessors all
        lie in it, in ``sort_key`` order; memoized on ``top``."""
        nxt = self.layers.get(top)
        if nxt is None:
            outside = ~sum(1 << i for i in top)
            pmask = self.pmask
            nxt = {s for i in top for s in self.successors(i)
                   if not pmask[s] & outside}
            nxt = tuple(sorted(nxt, key=self.keys.__getitem__))
            self.layers[top] = nxt
        return nxt


def configurations(family, max_size: int):
    """Yield every order ideal with at most ``max_size`` atoms, exactly once.

    Depth-first over layer chains: an ideal is extended by one nonempty
    subset of the next layer at a time, within the atom budget.  The empty
    ideal comes first; the order of the rest is unspecified.
    """
    if max_size < 0:
        raise CrepantError("size bound must be nonnegative")
    yield frozenset()
    index = _AtomIndex(family)
    atom = index.atoms.__getitem__
    stack = [(frozenset(), (0,), max_size)]
    while stack:
        below, allowed, budget = stack.pop()
        for k in range(1, min(budget, len(allowed)) + 1):
            for layer in combinations(allowed, k):
                ideal = below.union(map(atom, layer))
                yield ideal
                if k < budget:
                    nxt = index.next_layer(layer)
                    if nxt:
                        stack.append((ideal, nxt, budget - k))


def enumerate_configurations(family, max_size: int) -> dict[tuple[int, ...], int]:
    """Exact ideal counts for every size up to the bound, keyed by colour.

    Layer-profile recursion.  Atoms are graded by ``sort_key(atom)[0]`` and
    every predecessor of an atom lies exactly one layer down, so an ideal is
    a chain of layer sets S0 <= {apex}, S1, S2, ..., each inside the atoms
    of its layer whose predecessors all lie in the set below.  What can
    follow a top layer set depends only on its next layer, so the counts
    of the continuations are memoized on that allowed set alone, with no
    budget in the key; the memo lives for one call.  An entry holds
    ``(key, count)`` pairs in increasing atom count, and a later ask reads
    its prefix up to the ask's budget, never recounting.

    An entry is counted at the budget of its first ask, which is the
    largest it is ever asked at.  Every chain under an allowed set contains,
    layer by layer, the chain of the down-closure of that set's
    predecessors, and ``grow`` takes layer subsets in increasing size, so
    that fewest-atom chain, the one with the most budget left, is walked
    first.

    A key packs a dimension vector into one int, a field of ``width`` bits
    per colour, with the atom count as one more field above them, so that
    shifting a count is one addition and sorting keys sorts by atom count;
    each atom's packed weight is computed once, by atom number.
    """
    if max_size < 0:
        raise CrepantError("size bound must be nonnegative")
    width = max_size.bit_length()
    ncolours = len(family.variables)
    shift = width * ncolours
    index = _AtomIndex(family)
    weights: list[int] = []
    memo: dict[tuple, list[tuple[int, int]]] = {}

    def grow(allowed, budget) -> list[tuple[int, int]]:
        weights.extend((1 << shift) + (1 << width * family.color_index(atom))
                       for atom in index.atoms[len(weights):])
        weight = weights.__getitem__
        counts = {0: 1}
        for k in range(1, min(budget, len(allowed)) + 1):
            left = budget - k
            limit = left + 1 << shift
            for layer in combinations(allowed, k):
                base = sum(map(weight, layer))
                if not left:
                    counts[base] = counts.get(base, 0) + 1
                    continue
                for key, count in above(layer, left):
                    if key >= limit:
                        break
                    key += base
                    counts[key] = counts.get(key, 0) + count
        return sorted(counts.items())

    def above(top: tuple, budget: int) -> list[tuple[int, int]]:
        allowed = index.next_layer(top)
        entry = memo.get(allowed)
        if entry is None:
            entry = memo[allowed] = grow(allowed, budget)
        return entry

    mask = (1 << width) - 1
    return {tuple(key >> width * i & mask for i in range(ncolours)): count
            for key, count in grow((0,), max_size)}


def configuration_to_module(family, config) -> MonomialRepresentation:
    """The framed monomial module whose basis is the configuration.

    The arrows out of each atom act by the crystal translation where the
    image atom is present and by zero otherwise; the framing arrow hits the
    apex.
    """
    config = frozenset(config)
    framed = family.framed
    vertices = family.quiver.vertices
    fr_elt = "<framing>"
    vertex_of = {atom: vertices[family.color_index(atom)] for atom in config}
    vertex_of[fr_elt] = framed.framing_vertex
    action: dict = {}
    for atom in config:
        for name, image in family.arrows_from(atom):
            if image in config:
                action.setdefault(name, {})[atom] = image
    if family.apex in config:
        action[framed.framing_arrow] = {fr_elt: family.apex}
    return MonomialRepresentation(framed.quiver, vertex_of, action, framed=framed)


def ncdt_series(family, order: int, sign: str = "unsigned") -> FormalSeries:
    """Partition function of configurations, truncated at total degree.

    ``sign="unsigned"`` counts every configuration with weight one;
    ``sign="dimension"`` weights a configuration by (-1)**(number of atoms),
    which depends only on its dimension vector, so it is applied to the
    colour-refined counts.
    """
    if sign not in ("unsigned", "dimension"):
        raise CrepantError(f"unknown sign convention {sign!r}")
    terms = enumerate_configurations(family, order)
    if sign == "dimension":
        terms = {d: (-1) ** sum(d) * c for d, c in terms.items()}
    return FormalSeries(family.variables, order, terms)
