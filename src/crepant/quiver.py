"""Quivers, paths, superpotentials as cyclic words, and cyclic derivatives.

Arrows in a path are stored in traversal order: the path ``(a, b)`` first
follows ``a`` and then ``b``, so consecutive arrows compose head-to-tail.
Coefficients are exact integers everywhere; relations are sign-sensitive.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import CrepantError, json_object


class Arrow(namedtuple("Arrow", "name tail head")):
    __slots__ = ()


class Quiver:
    """A directed multigraph with named arrows and an ordered vertex set."""

    __slots__ = ("vertices", "arrows", "_arrow_by_name")

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise CrepantError("duplicate vertex ids")
        built = []
        for a in arrows:
            arrow = a if isinstance(a, Arrow) else Arrow(str(a[0]), str(a[1]), str(a[2]))
            if arrow.tail not in self.vertices or arrow.head not in self.vertices:
                raise CrepantError(f"arrow {arrow.name} has undeclared endpoint")
            built.append(arrow)
        self.arrows = tuple(built)
        self._arrow_by_name = {a.name: a for a in self.arrows}
        if len(self._arrow_by_name) != len(self.arrows):
            raise CrepantError("duplicate arrow ids")

    def arrow(self, name: str) -> Arrow:
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise CrepantError(f"unknown arrow {name!r}") from None

    def arrows_from(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.tail == v)

    def arrows_into(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.head == v)

    def loop_count(self, v: str) -> int:
        return sum(1 for a in self.arrows if a.tail == v == a.head)

    def path(self, arrow_names, at: str | None = None) -> "Path":
        """Build a validated path from arrow names in traversal order.

        An empty name sequence needs ``at`` and yields the trivial path there.
        """
        names = tuple(arrow_names)
        if not names:
            if at is None or at not in self.vertices:
                raise CrepantError("trivial path needs a declared vertex")
            return Path((), at, at)
        arrows = [self.arrow(n) for n in names]
        for a, b in zip(arrows, arrows[1:]):
            if a.head != b.tail:
                raise CrepantError(f"arrows {a.name} and {b.name} do not compose")
        return Path(names, arrows[0].tail, arrows[-1].head)

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertices == other.vertices and self.arrows == other.arrows

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path(namedtuple("Path", "arrows source target")):
    """A composable arrow sequence; the empty sequence is a trivial path."""

    __slots__ = ()

    def __str__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


def compose(p: Path, q: Path) -> Path | None:
    """Concatenate two paths, or None when the endpoints do not match."""
    if p.target != q.source:
        return None
    return Path(p.arrows + q.arrows, p.source, q.target)


def _canonical_rotation(word: tuple[str, ...]) -> tuple[str, ...]:
    if not word:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def rotation_count(word: tuple[str, ...]) -> int:
    """Number of distinct rotations of an arrow word."""
    return len({word[i:] + word[:i] for i in range(len(word))})


class CyclicWord(namedtuple("CyclicWord", "word coeff")):
    """A closed arrow word stored under its lexicographically least rotation.

    ``len`` counts arrows, not fields, so ``_make``/``_replace`` do not apply.
    """

    __slots__ = ()

    def __new__(cls, word, coeff):
        if not word:
            raise CrepantError("cyclic word must be nonempty")
        return super().__new__(cls, _canonical_rotation(tuple(word)), coeff)

    def __len__(self):
        return len(self.word)


class Superpotential:
    """An integer combination of cyclic words, merged by canonical rotation."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[str, ...], int] = {}
        for t in terms:
            w = t if isinstance(t, CyclicWord) else CyclicWord(tuple(t[1]), int(t[0]))
            merged[w.word] = merged.get(w.word, 0) + w.coeff
        self.terms = tuple(CyclicWord(w, c) for w, c in sorted(merged.items()) if c)

    def validate_on(self, quiver: Quiver) -> None:
        """Check every word is a closed, composable cycle of the quiver."""
        for t in self.terms:
            arrows = [quiver.arrow(n) for n in t.word]
            for a, b in zip(arrows, arrows[1:]):
                if a.head != b.tail:
                    raise CrepantError(f"cycle {t.word} does not compose")
            if arrows[-1].head != arrows[0].tail:
                raise CrepantError(f"cycle {t.word} is not closed")

    def __eq__(self, other):
        if not isinstance(other, Superpotential):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"Superpotential({len(self.terms)} cyclic words)"


class PathAlgebraElement:
    """A finite integer combination of paths (no zero coefficients stored)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged: dict[Path, int] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for path, coeff in items:
            if coeff:
                merged[path] = merged.get(path, 0) + int(coeff)
        self.terms = {p: c for p, c in merged.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Path, int]]:
        return sorted(self.terms.items(),
                      key=lambda item: (len(item[0].arrows), item[0].arrows))

    def __eq__(self, other):
        if not isinstance(other, PathAlgebraElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for path, coeff in self.sorted_terms():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = str(path) if mag == 1 else f"{mag}*{path}"
            parts.append(f"{sign} {body}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    __repr__ = __str__


def cyclic_derivative(quiver: Quiver, potential: Superpotential,
                      arrow_name: str) -> PathAlgebraElement:
    """Sum over occurrences of the arrow: rotate it to the front and delete it.

    Each resulting path runs from the arrow's head to its tail.
    """
    arrow = quiver.arrow(arrow_name)
    potential.validate_on(quiver)
    acc: list[tuple[Path, int]] = []
    for term in potential.terms:
        w = term.word
        for i, name in enumerate(w):
            if name == arrow_name:
                rest = w[i + 1:] + w[:i]
                acc.append((quiver.path(rest, at=arrow.head), term.coeff))
    return PathAlgebraElement(acc)


def relations_from_potential(quiver: Quiver,
                             potential: Superpotential) -> list[PathAlgebraElement]:
    """One relation per arrow, in arrow-id order; zero relations are dropped."""
    rels = []
    for name in sorted(a.name for a in quiver.arrows):
        r = cyclic_derivative(quiver, potential, name)
        if not r.is_zero():
            rels.append(r)
    return rels


class FramedQuiver(namedtuple("FramedQuiver", "quiver potential framing_vertex"
                                              " framing_arrow base_vertex")):
    """A quiver extended by one framing vertex with a single arrow into v0.

    The potential is unchanged: no cycle passes through the framing vertex.
    """

    __slots__ = ()

    def __new__(cls, quiver, potential, framing_vertex, framing_arrow,
                base_vertex):
        if quiver.arrows_into(framing_vertex):
            raise CrepantError("framing vertex must have no incoming arrows")
        out = quiver.arrows_from(framing_vertex)
        if len(out) != 1 or out[0].name != framing_arrow \
                or out[0].head != base_vertex:
            raise CrepantError("framing vertex must have the single framing arrow")
        return super().__new__(cls, quiver, potential, framing_vertex,
                               framing_arrow, base_vertex)

    def gauge_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.quiver.vertices if v != self.framing_vertex)


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def frame(quiver, potential: Superpotential, v0: str) -> FramedQuiver:
    """Attach a framing vertex and a single arrow onto ``v0``.

    Accepts a plain quiver or an already framed one (framing is syntactic
    and may be repeated).
    """
    if isinstance(quiver, FramedQuiver):
        quiver = quiver.quiver
    if v0 not in quiver.vertices:
        raise CrepantError(f"unknown vertex {v0!r}")
    vinf = _fresh_name("inf", set(quiver.vertices))
    fr = _fresh_name("fr", {a.name for a in quiver.arrows})
    extended = Quiver(quiver.vertices + (vinf,),
                      quiver.arrows + (Arrow(fr, vinf, v0),))
    return FramedQuiver(extended, potential, vinf, fr, v0)


# ---------------------------------------------------------------------------
# JSON round trip

def quiver_to_json(quiver: Quiver, potential: Superpotential | None = None) -> str:
    data = {
        "vertices": list(quiver.vertices),
        "arrows": [{"id": a.name, "tail": a.tail, "head": a.head}
                   for a in quiver.arrows],
    }
    if potential is not None:
        data["potential"] = [{"coeff": t.coeff, "cycle": list(t.word)}
                             for t in potential.terms]
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def quiver_from_json(text: str) -> tuple[Quiver, Superpotential | None]:
    """The quiver and potential ``quiver_to_json`` writes; every potential
    coefficient must be a JSON integer, where the constructor would
    coerce it."""
    with json_object(text, "quiver JSON") as data:
        quiver = Quiver(data["vertices"],
                        [(a["id"], a["tail"], a["head"]) for a in data["arrows"]])
        potential = None
        if "potential" in data:
            terms = [(t["coeff"], tuple(t["cycle"])) for t in data["potential"]]
            if not all(type(c) is int for c, _ in terms):
                raise CrepantError("quiver JSON coefficients must be integers")
            potential = Superpotential(terms)
            potential.validate_on(quiver)
    return quiver, potential


# ---------------------------------------------------------------------------
# Built-in quivers with their potentials

def conifold_quiver() -> tuple[Quiver, Superpotential]:
    """Two vertices, arrows A,B: 0->1 and C,D: 1->0, potential BCAD - ACBD."""
    q = Quiver(("0", "1"), [("A", "0", "1"), ("B", "0", "1"),
                            ("C", "1", "0"), ("D", "1", "0")])
    w = Superpotential([(1, ("B", "C", "A", "D")), (-1, ("A", "C", "B", "D"))])
    w.validate_on(q)
    return q, w


def c3_quiver() -> tuple[Quiver, Superpotential]:
    """One vertex with three loops x,y,z and the commutator potential."""
    q = Quiver(("0",), [("x", "0", "0"), ("y", "0", "0"), ("z", "0", "0")])
    w = Superpotential([(1, ("x", "y", "z")), (-1, ("x", "z", "y"))])
    return q, w


def local_p2_quiver() -> tuple[Quiver, Superpotential]:
    """Three vertices with triple arrows a_i: 0->1, b_i: 1->2, c_i: 2->0."""
    arrows = []
    for i in (1, 2, 3):
        arrows += [(f"a{i}", "0", "1"), (f"b{i}", "1", "2"), (f"c{i}", "2", "0")]
    q = Quiver(("0", "1", "2"), arrows)
    w = Superpotential([
        (1, ("a1", "b2", "c3")), (-1, ("a1", "b3", "c2")),
        (1, ("a2", "b3", "c1")), (-1, ("a2", "b1", "c3")),
        (1, ("a3", "b1", "c2")), (-1, ("a3", "b2", "c1")),
    ])
    w.validate_on(q)
    return q, w


def laufer_quiver(n: int) -> tuple[Quiver, Superpotential]:
    """The two-vertex quiver with loops X, Y and its degree-(n+1) potential.

    The loop terms carry the literal sign (-1)^(n(n-1)/2); the mixed cubic
    terms are stored in traversal order (the printed words compose in the
    opposite reading), keeping the printed coefficients.
    """
    if n < 1:
        raise CrepantError("loop-term exponent parameter must be >= 1")
    q = Quiver(("0", "1"), [("A", "0", "1"), ("B", "0", "1"),
                            ("C", "1", "0"), ("D", "1", "0"),
                            ("X", "1", "1"), ("Y", "0", "0")])
    s = (-1) ** (n * (n - 1) // 2)
    w = Superpotential([
        (-s, ("X",) * (n + 1)),
        (-s, ("Y",) * (n + 1)),
        (-1, ("C", "A", "X")),
        (1, ("D", "B", "X")),
        (-1, ("A", "C", "Y")),
        (1, ("B", "D", "Y")),
    ])
    w.validate_on(q)
    return q, w


BUILTIN_QUIVERS = {
    "conifold": conifold_quiver,
    "c3": c3_quiver,
    "p2": local_p2_quiver,
}
