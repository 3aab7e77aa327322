"""Monomial representations and exact theta-stability.

A monomial representation has a labelled basis and every arrow acting as a
partial injective map on basis elements.  Subrepresentations that can
violate stability are spanned by basis subsets closed under the arrow maps,
so stability is decided exactly by enumerating those subsets.

The stability test follows the framed counting convention: a representation
is stable when every nonzero proper arrow-closed subset pairs strictly
negatively with theta, equivalently every proper quotient pairs strictly
positively.  With all gauge entries negative and the framing entry fixed by
admissibility, stable coincides with cyclic.

Signs are decided on integer weights: theta is scaled once by the lcm of its
denominators, which keeps the sign of every subset's pairing, so the scan
over closed subsets sums ints.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .errors import CrepantError, json_object, json_text
from .quiver import FramedQuiver, PathAlgebraElement, Quiver


class MonomialRepresentation:
    """Basis-labelled representation with partial injective arrow maps."""

    __slots__ = ("quiver", "vertex_of", "action", "framed")

    def __init__(self, quiver: Quiver, vertex_of: dict, action: dict,
                 framed: FramedQuiver | None = None):
        self.quiver = quiver
        self.vertex_of = dict(vertex_of)
        for b, v in self.vertex_of.items():
            if v not in quiver.vertices:
                raise CrepantError(f"basis element {b!r} at undeclared vertex {v!r}")
        self.action = {}
        for name, mapping in action.items():
            arrow = quiver.arrow(name)
            mapping = dict(mapping)
            for src, dst in mapping.items():
                if self.vertex_of.get(src) != arrow.tail \
                        or self.vertex_of.get(dst) != arrow.head:
                    raise CrepantError(
                        f"arrow {name} maps {src!r} -> {dst!r} off its endpoints")
            if len(set(mapping.values())) != len(mapping):
                raise CrepantError(f"arrow {name} must act injectively")
            if mapping:
                self.action[name] = mapping
        self.framed = framed
        if framed is not None:
            if framed.quiver != quiver:
                raise CrepantError("framing data does not match the quiver")
            line = [b for b, v in self.vertex_of.items()
                    if v == framed.framing_vertex]
            if len(line) != 1:
                raise CrepantError("framed representation needs a 1-dim framing line")

    def basis(self) -> list:
        return sorted(self.vertex_of, key=lambda b: (str(self.vertex_of[b]), str(b)))

    def dimension_vector(self) -> dict[str, int]:
        dims = {v: 0 for v in self.quiver.vertices}
        for v in self.vertex_of.values():
            dims[v] += 1
        return dims

    def apply_arrow(self, name: str, b):
        return self.action.get(name, {}).get(b)

    def apply_path(self, path, b):
        if self.vertex_of.get(b) != path.source:
            return None
        for name in path.arrows:
            b = self.apply_arrow(name, b)
            if b is None:
                return None
        return b

    def framing_element(self):
        if self.framed is None:
            raise CrepantError("representation is not framed")
        for b, v in self.vertex_of.items():
            if v == self.framed.framing_vertex:
                return b
        raise CrepantError("framing line is missing")


def check_relations(rep: MonomialRepresentation,
                    relations: list[PathAlgebraElement]) -> bool:
    """True iff every relation vanishes on every basis element."""
    for rel in relations:
        for b in rep.vertex_of:
            totals: dict = {}
            for path, coeff in rel.terms.items():
                target = rep.apply_path(path, b)
                if target is not None:
                    totals[target] = totals.get(target, 0) + coeff
            if any(totals.values()):
                return False
    return True


def _closed_subsets(rep: MonomialRepresentation):
    """All arrow-closed basis subsets as bitmasks, with the basis list."""
    basis = rep.basis()
    index = {b: i for i, b in enumerate(basis)}
    out_mask = [0] * len(basis)
    for mapping in rep.action.values():
        for src, dst in mapping.items():
            out_mask[index[src]] |= 1 << index[dst]
    closed = []
    for s in range(1 << len(basis)):
        m = s
        ok = True
        while m:
            i = (m & -m).bit_length() - 1
            if out_mask[i] & ~s:
                ok = False
                break
            m &= m - 1
        if ok:
            closed.append(s)
    return basis, closed


def subrep_dimension_vectors(rep: MonomialRepresentation) -> set[tuple[int, ...]]:
    """Dimension vectors of all arrow-closed basis subsets.

    Vectors are tuples ordered like ``rep.quiver.vertices``; the zero and
    full subsets are always present.
    """
    basis, closed = _closed_subsets(rep)
    vindex = {v: i for i, v in enumerate(rep.quiver.vertices)}
    vectors = set()
    for s in closed:
        dims = [0] * len(rep.quiver.vertices)
        m = s
        while m:
            i = (m & -m).bit_length() - 1
            dims[vindex[rep.vertex_of[basis[i]]]] += 1
            m &= m - 1
        vectors.add(tuple(dims))
    return vectors


class StabilityReport(namedtuple("StabilityReport",
                                 "classification violating_subset",
                                 defaults=(None,))):
    __slots__ = ()

    def to_json(self) -> str:
        data = {"classification": self.classification}
        if self.violating_subset is not None:
            data["violating_subset"] = [str(b) for b in self.violating_subset]
        return json_text(data)


# fractions.Fraction once a theta function has run: each of them starts with
# normalize_theta, which binds it, so importing this module (as a bare
# ``import crepant`` does) loads neither fractions nor the decimal and
# numbers it imports, and no call pays an import statement
Fraction = None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise CrepantError(f"stability entries must be exact rationals, got {x!r}")


def normalize_theta(theta: dict) -> dict[str, Fraction]:
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return {str(v): _as_fraction(x) for v, x in theta.items()}


def theta_infinity(theta: dict, alpha: dict[str, int]) -> Fraction:
    """The framing entry that makes theta admissible for alpha."""
    theta = normalize_theta(theta)
    if set(theta) != set(alpha):
        raise CrepantError("theta and the dimension vector disagree on vertices")
    return -sum((theta[v] * alpha[v] for v in alpha), Fraction(0))


def framed_theta(gauge_theta: dict, alpha: dict[str, int],
                 framing_vertex: str) -> dict[str, Fraction]:
    """Extend a gauge-vertex parameter by the admissible framing entry."""
    theta = normalize_theta(gauge_theta)
    gauge_alpha = {v: n for v, n in alpha.items() if v != framing_vertex}
    theta[framing_vertex] = theta_infinity({v: theta[v] for v in gauge_alpha},
                                           gauge_alpha)
    return theta


def is_semistable(rep: MonomialRepresentation, theta: dict) -> StabilityReport:
    """Classify a monomial representation as stable, semistable or unstable.

    ``theta`` must be admissible for the dimension vector (it pairs to zero
    with it); for framed representations it must already contain the framing
    entry.  Every nonzero proper arrow-closed subset is paired with theta;
    the quotient value is the negative of the subset value, so stable means
    every subset pairs strictly negatively.  Subsets are paired with theta
    scaled by the lcm of its denominators: integer weights with its signs.
    """
    theta = normalize_theta(theta)
    alpha = rep.dimension_vector()
    if set(theta) != set(alpha):
        raise CrepantError("theta is not defined on the representation's vertices")
    pairing = sum((theta[v] * alpha[v] for v in alpha), Fraction(0))
    if pairing != 0:
        raise CrepantError(f"theta is not admissible: theta . alpha = {pairing}")

    scale = lcm(*(x.denominator for x in theta.values()))
    scaled = {v: x.numerator * (scale // x.denominator) for v, x in theta.items()}
    basis, closed = _closed_subsets(rep)
    full = (1 << len(basis)) - 1
    weight = [scaled[rep.vertex_of[b]] for b in basis]
    tight = False
    for s in closed:
        if s == 0 or s == full:
            continue
        value = 0
        m = s
        while m:
            i = (m & -m).bit_length() - 1
            value += weight[i]
            m &= m - 1
        if value > 0:
            subset = tuple(basis[i] for i in range(len(basis)) if s >> i & 1)
            return StabilityReport("unstable", subset)
        if value == 0:
            tight = True
    return StabilityReport("semistable" if tight else "stable")


def is_cyclic(rep: MonomialRepresentation) -> bool:
    """True iff the framing line generates everything under the arrow maps."""
    start = rep.framing_element()
    seen = {start}
    queue = [start]
    while queue:
        b = queue.pop()
        for mapping in rep.action.values():
            dst = mapping.get(b)
            if dst is not None and dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return len(seen) == len(rep.vertex_of)


# ---------------------------------------------------------------------------
# JSON form: basis elements with vertex labels, arrow actions as pairs

def rep_to_json(rep: MonomialRepresentation) -> str:
    data = {
        "basis": [{"id": str(b), "vertex": rep.vertex_of[b]} for b in rep.basis()],
        "actions": [
            {"arrow": name,
             "pairs": sorted([str(s), str(d)] for s, d in mapping.items())}
            for name, mapping in sorted(rep.action.items())
        ],
    }
    if rep.framed is not None:
        data["framing_vertex"] = rep.framed.framing_vertex
        data["framing_arrow"] = rep.framed.framing_arrow
    return json_text(data)


def rep_from_json(text: str, quiver: Quiver,
                  framed: FramedQuiver | None = None) -> MonomialRepresentation:
    """Read ``rep_to_json``'s form.  A basis id given twice, an arrow listed
    twice under ``"actions"`` and a source mapped twice by one arrow are
    errors, not overwrites."""
    with json_object(text, "representation JSON") as data:
        vertex_of = {}
        for item in data["basis"]:
            if item["id"] in vertex_of:
                raise CrepantError(f"duplicate basis id {item['id']!r}")
            vertex_of[item["id"]] = item["vertex"]
        action = {}
        for item in data["actions"]:
            name = item["arrow"]
            if name in action:
                raise CrepantError(f"arrow {name} is listed twice in actions")
            mapping = action[name] = {}
            for src, dst in item["pairs"]:
                if src in mapping:
                    raise CrepantError(f"arrow {name} maps {src!r} twice")
                mapping[src] = dst
        return MonomialRepresentation(quiver, vertex_of, action, framed=framed)
