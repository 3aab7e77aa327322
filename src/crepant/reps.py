"""Monomial representations and exact theta-stability.

A monomial representation has a labelled basis and every arrow acting as a
partial injective map on basis elements.  Subrepresentations that can
violate stability are spanned by basis subsets closed under the arrow maps,
so stability is decided exactly by enumerating those subsets.  They are
streamed as bitmasks in increasing order, never listed: the scan stops at
the first violating closed mask, which is the least one.

The stability test follows the framed counting convention: a representation
is stable when every nonzero proper arrow-closed subset pairs strictly
negatively with theta, equivalently every proper quotient pairs strictly
positively.  With all gauge entries negative and the framing entry fixed by
admissibility, stable coincides with cyclic.

Theta is worked on as integers: ``_scaled`` multiplies it once per call by
the lcm of its denominators, which keeps the sign of every pairing.  The
framing entry, the admissibility check and the scan over closed subsets all
sum those ints; a ``Fraction`` is built only for the returned framing entry
and for the text of the "not admissible" error.  The root pairings of
``roots`` and ``compare`` scale theta by the same ``_scaled``.
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


def _closed_subsets(rep: MonomialRepresentation, basis: list, weight: list):
    """Yield ``(mask, total)`` for each arrow-closed subset of ``basis``,
    which is ``rep.basis()``, in increasing mask order.

    Bit i of a mask is ``basis[i]`` and ``total`` sums ``weight[i]`` over
    its bits.  Closure is read from one table of out-masks, and the closure
    test and the sum share one walk over a mask's bits, which stops at the
    first element whose arrows leave the mask.  Nothing is listed, so a
    caller that stops early pays only for the masks it was given.
    """
    index = {b: i for i, b in enumerate(basis)}
    out_mask = [0] * len(basis)
    for mapping in rep.action.values():
        for src, dst in mapping.items():
            out_mask[index[src]] |= 1 << index[dst]
    for s in range(1 << len(basis)):
        outside = ~s
        total = 0
        m = s
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if out_mask[i] & outside:
                break
            total += weight[i]
            m ^= low
        else:
            yield s, total


def subrep_dimension_vectors(rep: MonomialRepresentation) -> set[tuple[int, ...]]:
    """Dimension vectors of all arrow-closed basis subsets.

    Vectors are tuples ordered like ``rep.quiver.vertices``; the zero and
    full subsets are always present.  A basis element weighs 1 in its
    vertex's field of ``width`` bits, so the scan's totals are packed vectors.
    """
    basis = rep.basis()
    width = len(basis).bit_length()
    vindex = {v: i for i, v in enumerate(rep.quiver.vertices)}
    weight = [1 << width * vindex[rep.vertex_of[b]] for b in basis]
    mask = (1 << width) - 1
    return {tuple(total >> width * i & mask for i in range(len(vindex)))
            for _, total in _closed_subsets(rep, basis, weight)}


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
    # a plain int first: isinstance against Fraction goes through the
    # numbers ABCs' instance hook for anything that is not a Fraction
    if type(x) is int:
        return Fraction(x)
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


def _scaled(theta: dict) -> tuple[int, dict]:
    """A normalized theta as ``(scale, ints)``: ``scale`` is the lcm of its
    denominators and ``ints[v]`` is ``scale * theta[v]``, so a pairing
    summed over the ints has the sign of the exact one."""
    scale = lcm(*[x.denominator for x in theta.values()])
    if scale == 1:
        return 1, {v: x.numerator for v, x in theta.items()}
    return scale, {v: x.numerator * (scale // x.denominator)
                   for v, x in theta.items()}


def _framing_entry(theta: dict[str, Fraction], alpha: dict[str, int]) -> Fraction:
    """Minus the pairing of a normalized theta with alpha, summed over
    theta's vertices, every one of which alpha must name."""
    scale, ints = _scaled(theta)
    return Fraction(-sum(n * alpha[v] for v, n in ints.items()), scale)


def theta_infinity(theta: dict, alpha: dict[str, int]) -> Fraction:
    """The framing entry that makes theta admissible for alpha."""
    theta = normalize_theta(theta)
    if set(theta) != set(alpha):
        raise CrepantError("theta and the dimension vector disagree on vertices")
    return _framing_entry(theta, alpha)


def framed_theta(gauge_theta: dict, alpha: dict[str, int],
                 framing_vertex: str) -> dict[str, Fraction]:
    """Extend a gauge-vertex parameter by the admissible framing entry.

    ``gauge_theta`` must name exactly the vertices of ``alpha`` other than
    the framing vertex."""
    theta = normalize_theta(gauge_theta)
    if set(theta) != set(alpha) - {framing_vertex}:
        raise CrepantError("theta and the dimension vector disagree on vertices")
    theta[framing_vertex] = _framing_entry(theta, alpha)
    return theta


def is_semistable(rep: MonomialRepresentation, theta: dict) -> StabilityReport:
    """Classify a monomial representation as stable, semistable or unstable.

    ``theta`` must be admissible for the dimension vector (it pairs to zero
    with it); for framed representations it must already contain the framing
    entry.  Every nonzero proper arrow-closed subset is paired with theta;
    the quotient value is the negative of the subset value, so stable means
    every subset pairs strictly negatively.  Pairings are summed over
    ``_scaled(theta)``'s ints, which have theta's signs.  Bit i of a subset
    mask is ``rep.basis()[i]``; the closed masks are streamed in increasing
    order and the scan stops at the first violating one, which is the
    reported subset of an unstable representation.
    """
    theta = normalize_theta(theta)
    if set(theta) != set(rep.quiver.vertices):
        raise CrepantError("theta is not defined on the representation's vertices")
    scale, ints = _scaled(theta)
    basis = rep.basis()
    weight = [ints[rep.vertex_of[b]] for b in basis]
    pairing = sum(weight)
    if pairing:
        raise CrepantError("theta is not admissible: theta . alpha = "
                           f"{Fraction(pairing, scale)}")

    full = (1 << len(basis)) - 1
    tight = False
    for s, value in _closed_subsets(rep, basis, weight):
        if value > 0:
            subset = tuple(basis[i] for i in range(len(basis)) if s >> i & 1)
            return StabilityReport("unstable", subset)
        if value == 0 and 0 < s < full:
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
