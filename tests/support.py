"""Shared independent oracles and exhaustive module generators."""

import ast
import dataclasses
import math
import operator
import random
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations, product

from crepant.crystal import BoxFamily
from crepant.errors import CrepantError
from crepant.geometry import (CHART1, CHART2, V_COORDS, _MAX_COUNTEREXAMPLES,
                              GluedThreefold, IdentityResult,
                              VerificationReport, _agreement_residual,
                              _equation_residual, _equivariance_residual,
                              _transition_residual)
from crepant.mckay import (AbelianAction, arrow_name, mckay_quiver,
                           mckay_superpotential)
from crepant.quiver import (Path, PathAlgebraElement, Quiver, Superpotential,
                            c3_quiver, conifold_quiver, frame, laufer_quiver,
                            local_p2_quiver, quiver_from_json,
                            relations_from_potential)
from crepant.reps import (MonomialRepresentation, StabilityReport,
                          check_relations, normalize_theta)
from crepant.roots import CartanMatrix, Root, _support_connected
from crepant.series import FormalSeries, product_series
from crepant.vertex import (GWSeries, TSeries, _ccw_slots, _glue,
                            _least_rotation, _pair_mul, _skew_valuation,
                            _summands, kappa, n_stat, partitions_of, psize,
                            subdiagrams, transpose, vertex)


def brute_product_one_minus_qk_inverse(order):
    """Expand prod_k (1 - q^k)^(-k) to the order, with no binomial shortcut.

    (1 - q^k)^(-1) is the geometric series; raise it to the k-th power by
    repeated polynomial multiplication.
    """
    def mul(a, b):
        out = {}
        for i, c in a.items():
            for j, d in b.items():
                if i + j <= order:
                    out[i + j] = out.get(i + j, 0) + c * d
        return out

    result = {0: 1}
    for k in range(1, order + 1):
        geo = {e: 1 for e in range(0, order + 1, k)}
        for _ in range(k):
            result = mul(result, geo)
    return result


def brute_affine_a1_roots(bound):
    """Reflection-orbit oracle for [[2,-2],[-2,2]]: close the simple roots
    under both reflections by breadth-first application, plus multiples of
    the null vector for the imaginary part."""
    def s(i, v):
        c = 2 * v[i] - 2 * v[1 - i]
        out = list(v)
        out[i] -= c
        return tuple(out)

    reals = set()
    frontier = {(1, 0), (0, 1)}
    while frontier:
        reals |= frontier
        nxt = set()
        for v in frontier:
            for i in (0, 1):
                w = s(i, v)
                if w not in reals and min(w) >= 0 and sum(w) <= bound:
                    nxt.add(w)
        frontier = nxt - reals
    imag = {(k, k) for k in range(1, bound // 2 + 1)}
    return reals, imag


def dense_row(cartan, i: int) -> list[int]:
    """Row i of a ``CartanMatrix`` with its zeros, from the stored nonzero
    entries: the dense oracles read the matrix through this alone."""
    row = cartan.rows[i]
    return [row.get(j, 0) for j in range(cartan.size)]


def pairing(cartan, alpha, i: int) -> int:
    """(alpha, e_i) in the symmetrized bilinear form, over every entry."""
    return sum(x * a for x, a in zip(dense_row(cartan, i), alpha))


def reflect(cartan, alpha, i: int) -> tuple[int, ...]:
    """The simple reflection at a loop-free vertex, as a dense vector."""
    if dense_row(cartan, i)[i] != 2:
        raise CrepantError("reflections act only at loop-free vertices")
    c = pairing(cartan, alpha, i)
    out = list(alpha)
    out[i] -= c
    return tuple(out)


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


def scan_fundamental_set(cartan, height_bound: int) -> list:
    """The lattice scan for the fundamental set: every positive vector of
    height at most the bound, kept when it pairs nonpositively with every
    loop-free simple root and has connected support; lexicographic."""
    loop_free = cartan.loop_free()
    return [alpha for alpha in _positive_vectors(cartan.size, height_bound)
            if all(pairing(cartan, alpha, i) <= 0 for i in loop_free)
            and _support_connected(cartan, alpha)]


def dense_orbit(cartan: CartanMatrix, seeds, height_bound: int) -> set:
    """What loop-free simple reflections carry the positive ``seeds`` to
    through nonnegative vectors of height at most the bound, the seeds
    included.  A reflection is invertible, so none of them is zero.

    The reflection at i subtracts c = (alpha, e_i) from coordinate i alone,
    so it gives a new vector exactly when c is nonzero, a nonnegative one
    exactly when c <= alpha_i, and its height is the old one minus c.

    The dense route to ``roots._orbit``, which ``roots`` took before it
    read the matrix through each row's nonzero entries: c for every
    loop-free vertex of every root, summed over the root's whole support.
    """
    rows = [dense_row(cartan, i) for i in range(cartan.size)]
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


def _imaginary_root(cartan, alpha) -> bool:
    """Reduce by height-decreasing reflections; test the terminal vector."""
    loop_free = cartan.loop_free()
    alpha = tuple(alpha)
    while True:
        if any(a < 0 for a in alpha):
            return False
        positives = [i for i in loop_free if pairing(cartan, alpha, i) > 0]
        if not positives:
            return _support_connected(cartan, alpha)
        i = positives[0]
        if alpha == tuple(1 if j == i else 0 for j in range(cartan.size)):
            return False  # a loop-free simple root is real
        alpha = reflect(cartan, alpha, i)


def reduction_positive_roots(cartan, height_bound: int) -> list:
    """The reduction route to ``roots.positive_roots``: real roots are the
    reflection closure of the loop-free simple roots kept positive;
    imaginary roots are the lattice points whose height-reducing reflection
    walk lands in the fundamental region.  Output is sorted by (height,
    vector)."""
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
                beta = reflect(cartan, alpha, i)
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


# The cyclic derivative that ``quiver.relations_from_potential`` took once
# per arrow, and the Cartan matrix as ``roots.cartan_matrix`` built it from
# per-vertex loop counts, before each became one pass; kept verbatim but for
# their names (and the Cartan matrix's return through
# ``CartanMatrix.from_dense``) as the oracles for both.

# every cyclic action of order at most 8 with every weight pair, and Z2 x Z2
SMALL_ACTIONS = [AbelianAction.cyclic(n, (w1, w2, (-w1 - w2) % n))
                 for n in range(1, 9) for w1 in range(n) for w2 in range(n)] + \
    [AbelianAction((2, 2), ((1, 0), (0, 1), (1, 1)))]

# arrow a repeated inside one word, and x a one-arrow loop word
REPEAT_AND_LOOP_JSON = """{"vertices": ["0", "1"],
 "arrows": [{"id": "a", "tail": "0", "head": "1"},
            {"id": "b", "tail": "1", "head": "0"},
            {"id": "x", "tail": "0", "head": "0"}],
 "potential": [{"coeff": 2, "cycle": ["a", "b", "a", "b"]},
               {"coeff": -3, "cycle": ["x"]},
               {"coeff": 1, "cycle": ["x", "a", "b", "x"]}]}"""


def small_quivers():
    """(name, quiver, potential): the built-in quivers, laufer n = 1-4, the
    McKay quivers of ``SMALL_ACTIONS`` and the quiver of
    ``REPEAT_AND_LOOP_JSON``."""
    for name, build in (("conifold", conifold_quiver), ("c3", c3_quiver),
                        ("p2", local_p2_quiver)):
        yield (name, *build())
    for n in range(1, 5):
        yield (f"laufer{n}", *laufer_quiver(n))
    for act in SMALL_ACTIONS:
        yield f"mckay{act.orders}{act.weights}", mckay_quiver(act), \
            mckay_superpotential(act)
    yield ("repeat-and-loop", *quiver_from_json(REPEAT_AND_LOOP_JSON))


def per_arrow_cyclic_derivative(quiver: Quiver, potential: Superpotential,
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


def loop_count_cartan_matrix(quiver: Quiver) -> CartanMatrix:
    """Diagonal 2 - 2(loops at the vertex); off the diagonal, minus the
    arrows between the two vertices in either direction."""
    vs = quiver.vertices
    index = {v: i for i, v in enumerate(vs)}
    n = len(vs)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2 - 2 * sum(1 for a in quiver.arrows
                                 if a.tail == vs[i] == a.head)
    for a in quiver.arrows:
        i, j = index[a.tail], index[a.head]
        if i != j:
            rows[i][j] -= 1
            rows[j][i] -= 1
    return CartanMatrix.from_dense(vs, tuple(tuple(r) for r in rows))


def dense_cartan_rows(vertices, rows) -> tuple:
    """The square rows coerced to ``int`` and checked as ``CartanMatrix``
    did while it stored them dense, verbatim but for returning the rows:
    the oracle for ``CartanMatrix.from_dense``, which keeps each row's
    nonzero entries and checks only those."""
    n = len(vertices)
    rows = tuple(tuple(map(int, row)) for row in rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise CrepantError("Cartan matrix shape does not match the vertices")
    if any(row[i] > 2 for i, row in enumerate(rows)):
        raise CrepantError("diagonal Cartan entries must be at most 2")
    if rows != tuple(zip(*rows)):
        raise CrepantError("Cartan matrix must be symmetric")
    if any(max(row[i + 1:], default=0) > 0 for i, row in enumerate(rows)):
        raise CrepantError("off-diagonal Cartan entries must be <= 0")
    return rows


def partial_injections(src, dst):
    """All injective dicts from a subset of src into dst."""
    src = list(src)

    def rec(i, used, acc):
        if i == len(src):
            yield dict(acc)
            return
        yield from rec(i + 1, used, acc)
        for d in dst:
            if d not in used:
                yield from rec(i + 1, used | {d}, acc + [(src[i], d)])

    yield from rec(0, frozenset(), [])


def _compose2(f, g, b):
    c = f.get(b)
    return None if c is None else g.get(c)


def commutes(f, g, points):
    return all(_compose2(f, g, b) == _compose2(g, f, b) for b in points)


def fraction_theta_infinity(theta: dict, alpha: dict[str, int]) -> Fraction:
    """The framing entry summed in ``Fraction``s: the reference for
    ``reps.theta_infinity``, which sums theta's scaled ints."""
    theta = normalize_theta(theta)
    if set(theta) != set(alpha):
        raise CrepantError("theta and the dimension vector disagree on vertices")
    return -sum((theta[v] * alpha[v] for v in alpha), Fraction(0))


def fraction_framed_theta(gauge_theta: dict, alpha: dict[str, int],
                          framing_vertex: str) -> dict[str, Fraction]:
    """``fraction_theta_infinity`` appended to the gauge entries: the
    reference for ``reps.framed_theta``."""
    theta = normalize_theta(gauge_theta)
    gauge_alpha = {v: n for v, n in alpha.items() if v != framing_vertex}
    theta[framing_vertex] = fraction_theta_infinity(
        {v: theta[v] for v in gauge_alpha}, gauge_alpha)
    return theta


def fraction_is_semistable(rep, theta) -> StabilityReport:
    """Every basis subset tested for closure and paired in ``Fraction``s:
    the reference for ``reps.is_semistable``, which sums integer weights
    over ``_closed_subsets``.  Subsets are scanned as masks over
    ``rep.basis()`` in increasing order, so the subset reported is the
    least violating closed mask."""
    theta = normalize_theta(theta)
    alpha = rep.dimension_vector()
    if set(theta) != set(alpha):
        raise CrepantError("theta is not defined on the representation's vertices")
    pairing = sum((theta[v] * alpha[v] for v in alpha), Fraction(0))
    if pairing != 0:
        raise CrepantError(f"theta is not admissible: theta . alpha = {pairing}")
    basis = rep.basis()
    n = len(basis)
    edges = [(basis.index(src), basis.index(dst))
             for mapping in rep.action.values()
             for src, dst in mapping.items()]
    tight = False
    for s in range(1, (1 << n) - 1):
        if any(s >> i & 1 and not s >> j & 1 for i, j in edges):
            continue
        value = Fraction(0)
        for i in range(n):
            if s >> i & 1:
                value += theta[rep.vertex_of[basis[i]]]
        if value > 0:
            subset = tuple(basis[i] for i in range(n) if s >> i & 1)
            return StabilityReport("unstable", subset)
        if value == 0:
            tight = True
    return StabilityReport("semistable" if tight else "stable")


def framed_c3_modules(max_gauge):
    """Every commuting triple of partial injections, with a framing choice."""
    q, w = c3_quiver()
    fr = frame(q, w, "0")
    for m in range(max_gauge + 1):
        points = range(m)
        maps = [dict(p) for p in partial_injections(points, points)]
        commuters = {}
        for i, f in enumerate(maps):
            commuters[i] = {j for j, g in enumerate(maps)
                            if commutes(f, g, points)}
        for i, f in enumerate(maps):
            for j in commuters[i]:
                for k in commuters[i] & commuters[j]:
                    g, h = maps[j], maps[k]
                    for target in (None, *points):
                        vertex_of = {b: "0" for b in points}
                        vertex_of["fr"] = fr.framing_vertex
                        action = {"x": f, "y": g, "z": h}
                        if target is not None:
                            action[fr.framing_arrow] = {"fr": target}
                        yield MonomialRepresentation(
                            fr.quiver, vertex_of,
                            {k2: v for k2, v in action.items() if v},
                            framed=fr)


def framed_conifold_modules(max_gauge):
    """Every relation-satisfying arrow quadruple, with a framing choice."""
    q, w = conifold_quiver()
    fr = frame(q, w, "0")
    rels = relations_from_potential(q, w)
    for d0 in range(max_gauge + 1):
        for d1 in range(max_gauge + 1 - d0):
            lower = [("a", i) for i in range(d0)]
            upper = [("b", i) for i in range(d1)]
            ab = [dict(p) for p in partial_injections(lower, upper)]
            cd = [dict(p) for p in partial_injections(upper, lower)]
            for A in ab:
                for B in ab:
                    for C in cd:
                        for D in cd:
                            vertex_of = {b: "0" for b in lower}
                            vertex_of.update({b: "1" for b in upper})
                            vertex_of["fr"] = fr.framing_vertex
                            action = {"A": A, "B": B, "C": C, "D": D}
                            action = {k: v for k, v in action.items() if v}
                            rep = MonomialRepresentation(fr.quiver, vertex_of,
                                                         action, framed=fr)
                            if not check_relations(rep, rels):
                                continue
                            for target in (None, *lower):
                                act2 = dict(action)
                                if target is not None:
                                    act2[fr.framing_arrow] = {"fr": target}
                                yield MonomialRepresentation(
                                    fr.quiver, vertex_of, act2, framed=fr)


class DictTSeries:
    """The dict-backed Laurent series the dense ``TSeries`` replaced, kept as
    its reference: exponent -> nonzero coefficient, exact through ``cutoff``
    (None = exact)."""

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs=None, cutoff=None):
        self.cutoff = cutoff
        self.coeffs = {int(e): c for e, c in (coeffs or {}).items()
                       if c and (cutoff is None or e <= cutoff)}

    def valuation(self):
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _min_cutoff(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        cutoff = self._min_cutoff(self.cutoff, other.cutoff)
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return DictTSeries(coeffs, cutoff)

    def __neg__(self):
        return DictTSeries({e: -c for e, c in self.coeffs.items()}, self.cutoff)

    def __sub__(self, other):
        return self + (-other)

    def _lowest(self):
        """The lowest exponent the series can have a term at: a zero series
        exact through K is O(t^(K + 1)); None for the exact zero."""
        if self.coeffs:
            return min(self.coeffs)
        return None if self.cutoff is None else self.cutoff + 1

    def __mul__(self, other):
        # the errors of one factor, O(t^(K + 1)), scaled by the lowest term
        # of the other; an exact zero factor makes an exact zero
        v1, v2 = self._lowest(), other._lowest()
        if v1 is None or v2 is None:
            return DictTSeries({}, None)
        c1 = None if self.cutoff is None else self.cutoff + v2
        c2 = None if other.cutoff is None else other.cutoff + v1
        cutoff = self._min_cutoff(c1, c2)
        coeffs = {}
        for e1, a in self.coeffs.items():
            for e2, b in other.coeffs.items():
                e = e1 + e2
                if cutoff is None or e <= cutoff:
                    coeffs[e] = coeffs.get(e, 0) + a * b
        return DictTSeries(coeffs, cutoff)

    def scale(self, c):
        return DictTSeries({e: c * v for e, v in self.coeffs.items()},
                           self.cutoff)

    def shift(self, k: int):
        cutoff = None if self.cutoff is None else self.cutoff + k
        return DictTSeries({e + k: c for e, c in self.coeffs.items()}, cutoff)

    def truncate(self, cutoff: int):
        return DictTSeries(self.coeffs, self._min_cutoff(self.cutoff, cutoff))

    def coefficient(self, e: int):
        return self.coeffs.get(e, 0)

    def __eq__(self, other):
        if not isinstance(other, DictTSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs


def agree_through(a, b, through: int) -> bool:
    """Whether the t-series a and b have the same coefficient at every
    exponent up to ``through``; both must be exact through it."""
    if any(s.cutoff is not None and s.cutoff < through for s in (a, b)):
        raise CrepantError("series not exact through the comparison order")
    exps = set(a.coeffs) | set(b.coeffs)
    return all(a.coefficient(e) == b.coefficient(e)
               for e in exps if e <= through)


def partitions_upto(n: int) -> list:
    """Every partition of size at most n, by size."""
    return [p for k in range(n + 1) for p in partitions_of(k)]


def tits(cartan, alpha) -> int:
    """The Tits form (alpha, alpha) of a ``CartanMatrix``."""
    return sum(a * pairing(cartan, alpha, i) for i, a in enumerate(alpha))


def fraction_dot(theta, vector) -> Fraction:
    """The exact pairing of a rational ``theta`` with a root vector, summed
    in ``Fraction``s: the reference for ``roots._pairing``, which sums
    theta's scaled ints and so keeps only the sign."""
    return sum((Fraction(t) * v for t, v in zip(theta, vector)), Fraction(0))


def fraction_walls_between(theta1, theta2, roots) -> tuple[tuple, tuple]:
    """``(separating, on_wall)`` from ``fraction_dot``: the reference for
    ``roots.walls_between`` on parameters of the right length."""
    separating, on_wall = [], []
    for root in roots:
        a = fraction_dot(theta1, root.vector)
        b = fraction_dot(theta2, root.vector)
        if a == 0 or b == 0:
            on_wall.append(root)
        elif (a < 0) != (b < 0):
            separating.append(root)
    return tuple(separating), tuple(on_wall)


def fraction_certificate_signs(theta, roots, radius: int) -> tuple:
    """``compare.chamber_certificate``'s signs from ``fraction_dot``, with
    its error for a theta on the wall of a root up to the radius."""
    signs = []
    for root in roots:
        if root.height <= radius:
            value = fraction_dot(theta, root.vector)
            if value == 0:
                raise CrepantError(
                    f"theta lies on the wall of root {root.vector}")
            signs.append((root.vector, root.kind, 1 if value > 0 else -1))
    return tuple(signs)


def area2(polygon) -> int:
    """Twice the area of a ``LatticePolygon``, by the shoelace formula."""
    vs = polygon.vertices
    return sum(x0 * y1 - x1 * y0
               for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]))


def _text_rows(text: str):
    """(variable names, order, [(exponents, int coefficient)]) of a series
    printed by ``to_text``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CrepantError("empty series text")
    head, _, order = lines[0].rpartition("\t")
    rows = []
    for line in lines[1:]:
        exps, _, coeff = line.rpartition("\t")
        rows.append((tuple(int(e) for e in exps.split()), int(coeff)))
    return tuple(head.split()), int(order), rows


def formal_series_from_text(text: str) -> FormalSeries:
    """The ``FormalSeries`` that ``to_text`` printed."""
    vars, order, rows = _text_rows(text)
    return FormalSeries(vars, order, dict(rows))


def gw_series_from_text(text: str) -> GWSeries:
    """The ``GWSeries`` that ``to_text`` printed, its t-exponent the last
    column.  The text keeps no cutoff, so every t-coefficient is exact."""
    vars, order, rows = _text_rows(text)
    by_degree: dict[tuple, dict[int, int]] = {}
    for (*exps, e), coeff in rows:
        by_degree.setdefault(tuple(exps), {})[e] = coeff
    return GWSeries(vars[:-1], order,
                    {exps: TSeries(row) for exps, row in by_degree.items()})


@lru_cache(maxsize=None)
def _strips(mu, alpha) -> tuple:
    """(lam, |lam| - |mu|) for every lam inside alpha with lam/mu a
    horizontal strip."""
    rows = len(alpha)
    padded = tuple(mu) + (0,) * (rows - len(mu))
    out = []

    def rec(r, acc):
        if r == rows:
            lam = tuple(x for x in acc if x)
            out.append((lam, psize(lam) - psize(mu)))
            return
        high = min(alpha[r], padded[r - 1] if r else alpha[0])
        for v in range(padded[r], high + 1):
            rec(r + 1, acc + [v])

    rec(0, [])
    return tuple(out)


def strip_chain_skew_spec(alpha, eta, nu, cutoff):
    """``vertex._skew_spec`` by the horizontal-strip chain over finitely many
    variables, the Schur oracle: s_{alpha/eta} at x_i = t^(2i - 1 - 2 nu_i),
    each strip step a shifted and truncated series.

    The first len(nu) exponents may be negative; a horizontal strip uses a
    variable at most alpha_1 times, so working through cutoff plus the total
    achievable negativity keeps the truncation exact.  Variables beyond that
    window only contribute above the cutoff."""
    if any(e > a for e, a in zip(eta, alpha)) or len(eta) > len(alpha):
        return TSeries.zero(cutoff)
    if not alpha:
        return TSeries.one(cutoff)
    exps = [2 * i - 1 - 2 * nu[i - 1] for i in range(1, len(nu) + 1)]
    max_neg = alpha[0] * sum(-e for e in exps if e < 0)
    work = cutoff + max_neg
    i = len(nu) + 1
    while 2 * i - 1 <= work:
        exps.append(2 * i - 1)
        i += 1
    states = {eta: TSeries.one(work)}
    for exp in exps:
        new = {}
        for mu, weight in states.items():
            for lam, gained in _strips(mu, alpha):
                if gained:
                    # weight * t^a at cutoff ``work``, as TSeries.__mul__
                    # would cut it
                    a = exp * gained
                    if a > work or not weight:
                        continue
                    add = weight.shift(a).truncate(
                        min(weight.cutoff + a, work + weight.offset))
                else:
                    add = weight
                new[lam] = new[lam] + add if lam in new else add
        states = new
    return states.get(alpha, TSeries.zero(work)).truncate(cutoff)


def geometric(step: int, cutoff: int) -> TSeries:
    """1/(1 - t^step) as a truncated series; step must be positive."""
    if step <= 0:
        raise CrepantError("geometric step must be positive")
    return TSeries({e: 1 for e in range(0, cutoff + 1, step)}, cutoff)


def product_u_power(g: int) -> TSeries:
    """``vertex._sinh_power(1, 2 * g)`` by the repeated products it
    replaced: (t - 1/t)^(2g) as an exact Laurent polynomial."""
    u = TSeries({2: 1, 0: -2, -2: 1}, None)
    out = TSeries.one(None)
    for _ in range(g):
        out = out * u
    return out


def product_cover_kernel(g: int, k: int, cutoff: int) -> TSeries:
    """``vertex._cover_kernel`` by the series products it replaced:
    (-1)^(g-1)/k * (t^k - t^-k)^(2g-2), expanded upward in t."""
    if g == 0:
        # 1/(t^k - t^-k)^2 = t^(2k) / (1 - t^(2k))^2; below t^0 the
        # geometric series would be cut to zero, which forgets its
        # valuation 0, so square it from t^0 and cut the square
        base = geometric(2 * k, max(cutoff, 0))
        ts = (base * base).truncate(cutoff)
        ts = ts.shift(2 * k)
        return ts.scale(Fraction(-1, k))
    poly = TSeries({2 * k: 1, 0: -2, -2 * k: 1}, None)
    out = TSeries.one(None)
    for _ in range(g - 1):
        out = out * poly
    return out.truncate(cutoff).scale(Fraction((-1) ** (g - 1), k))


def angle_key(d):
    """Total order on primitive directions by counterclockwise angle from +x."""
    x, y = d
    if y == 0:
        half = 0 if x > 0 else 2
    elif y > 0:
        half = 1
    else:
        half = 3
    # within an open half plane, compare by slope via cross product; encode
    # as a Fraction of the cotangent-like ratio for a strict order
    return (half, Fraction(-x, y) if y else Fraction(0))


def angle_sorted_slots(web, node):
    """``vertex._ccw_slots`` by the full angle sort it replaced."""
    slots = web.slots_at(node)
    if len(slots) != 3:
        raise CrepantError("web node is not trivalent")
    return sorted(slots, key=lambda s: angle_key(s[2]))


def tseries_glue(qvars, order, summands, cutoff):
    """``vertex._glue`` by the chain of ``TSeries`` products its packed ints
    replaced: each summand's framing monomial times its amplitudes, a
    summand that truncates to zero dropped, the rest summed per Q-degree."""
    terms = {}
    for exps, sign, shift, nodes in summands:
        factor = TSeries.monomial(shift, sign, cutoff + shift)
        for lam, mu, nu in nodes:
            factor = factor * vertex(lam, mu, nu, cutoff)
            if not factor:
                break
        else:
            terms[exps] = terms[exps] + factor if exps in terms else factor
    return GWSeries(qvars, order, terms)


def retry_gluing(qvars, order, summands, t_cutoff):
    """Glue at margins 8, 16, 32, ... past ``t_cutoff`` until the glued
    series is exact through it, keeping only the last attempt."""
    margin = 8
    while True:
        result = _glue(qvars, order, summands, t_cutoff + margin)
        got = result.min_cutoff()
        if got is None or got >= t_cutoff:
            return result
        margin *= 2
        if margin > 16 * (t_cutoff + 8) * (order + 1) ** 2:
            raise CrepantError("cannot reach requested t-precision")


def retry_loop_oracle(web, order, t_cutoff=20, reverse_edges=False):
    """``gw_partition_function`` by the retry loop its precision plan
    replaced."""
    qvars = tuple(e.var for e in web.edges)
    if not qvars:
        return GWSeries.one(qvars, order, cutoff=None)
    summands = _summands(web, order, reverse_edges)
    return retry_gluing(qvars, order, summands, t_cutoff)


def slot_walk_summands(web, order, reverse_edges=False) -> list:
    """``vertex._summands`` by the walk its slot plans replaced: per
    assignment, a dict from edge variable to partition, each slot's kind
    tested, transposes, sizes and kappas taken per summand, and the node
    arguments left in counterclockwise order, not at their least
    rotation."""
    edges = list(web.edges)
    qvars = tuple(e.var for e in edges)
    slots = [_ccw_slots(web, node) for node in range(len(web.nodes))]
    parts_by_size = {s: list(partitions_of(s)) for s in range(order + 1)}
    out = []
    for sizes in product(range(order + 1), repeat=len(edges)):
        if sum(sizes) > order:
            continue
        for choice in product(*(parts_by_size[s] for s in sizes)):
            sign, shift = 1, 0
            for e, lam in zip(edges, choice):
                n = -e.framing if reverse_edges else e.framing
                if ((n + 1) * psize(lam)) % 2:
                    sign = -sign
                shift -= n * kappa(lam)
            assignment = dict(zip((e.var for e in edges), choice))
            nodes = []
            for node, node_slots in enumerate(slots):
                args = []
                for kind, payload, _ in node_slots:
                    if kind == "leg":
                        args.append(())
                    else:
                        lam = assignment[payload.var]
                        head = payload.nodes[1] if not reverse_edges \
                            else payload.nodes[0]
                        args.append(transpose(lam) if node == head else lam)
                nodes.append(tuple(args))
            exps = tuple(psize(assignment[v]) for v in qvars)
            out.append((exps, sign, shift, nodes))
    return out


def _pair_add(a, b):
    k = min(a[1], b[1])
    v = min((x for x in (a[0], b[0]) if x is not None), default=None)
    return (v if v is not None and v <= k else None), k


@lru_cache(maxsize=None)
def _vertex_pair(lam, mu, nu, cutoff: int) -> tuple:
    """(valuation, cutoff) of vertex(lam, mu, nu, cutoff), traced through
    vertex_raw's sums and products.  A term that is identically zero adds
    (None, cutoff), which changes nothing."""
    lam, mu, nu = _least_rotation(lam, mu, nu)
    mu_t, nu_t = transpose(mu), transpose(nu)
    inner = (None, cutoff)
    for eta in subdiagrams(tuple(min(a, b) for a, b in zip(lam, mu_t))):
        v1 = _skew_valuation(lam, eta, nu_t)
        v2 = _skew_valuation(mu_t, eta, nu)
        if v1 is None or v2 is None:
            continue
        inner = _pair_add(inner, _pair_mul(
            ((v1 if v1 <= cutoff else None), cutoff),
            ((v2 if v2 <= cutoff else None), cutoff)))
    if nu:
        # schur_principal: t^hook times a 1/(1 - t^(2h)) per hook, of
        # valuation 0 and the same cutoff, which leave (hook, cutoff) as is
        hook = 2 * n_stat(nu) + psize(nu)
        inner = _pair_mul(((hook if hook <= cutoff else None), cutoff), inner)
    v, k = inner
    shift = kappa(lam) + kappa(nu)
    return (None if v is None else v + shift), k + shift


def walked_precision(summands, cutoff):
    """``_glue(..., summands, cutoff).min_cutoff()`` by walking every
    summand's (valuation, cutoff) pairs at this cutoff, as the plan did
    before it profiled each summand once."""
    got = None
    for _, _, shift, nodes in summands:
        factor = ((shift if cutoff >= 0 else None), cutoff + shift)
        for args in nodes:
            factor = _pair_mul(factor, _vertex_pair(*args, cutoff))
            if factor[0] is None:
                break
        else:
            got = factor[1] if got is None else min(got, factor[1])
    return got


def margin_walk_plan(summands, order, t_cutoff):
    """``vertex._plan_cutoff`` by walking every summand at each margin."""
    margin = 8
    while True:
        cutoff = t_cutoff + margin
        got = walked_precision(summands, cutoff)
        if got is None or got >= t_cutoff:
            return cutoff
        margin *= 2
        if margin > 16 * (t_cutoff + 8) * (order + 1) ** 2:
            raise CrepantError("cannot reach requested t-precision")


def fraction_log(series):
    """log of a series with constant term 1, each power scaled by the
    Fraction (-1)^(k+1)/k and the Fractions summed, as before the sum moved
    to the integers (``GWSeries._lcm_log``)."""
    c0 = series.coefficient((0,) * len(series.vars))
    if c0.coeffs != {0: 1}:
        raise CrepantError("log needs constant term exactly 1")
    a = GWSeries(series.vars, series.order,
                 {e: ts for e, ts in series.terms.items() if any(e)})
    out = GWSeries(series.vars, series.order)
    power = GWSeries.one(series.vars, series.order,
                         cutoff=series.min_cutoff())
    for k in range(1, series.order + 1):
        power = power * a
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def dimension_vector(family, config) -> tuple[int, ...]:
    """The atoms of a configuration counted by colour."""
    dims = [0] * len(family.variables)
    for atom in config:
        dims[family.color_index(atom)] += 1
    return tuple(dims)


def reverse_search_ideals(family, max_size: int):
    """Yield every order ideal with at most ``max_size`` atoms, exactly once.

    Reverse search: an ideal is emitted from its canonical parent, obtained
    by removing its largest removable atom in the family's atom order.  The
    oracle for ``crystal.configurations`` and the layer-profile counts.
    """
    if max_size < 0:
        raise CrepantError("size bound must be nonnegative")
    yield frozenset()
    stack = [frozenset()]
    while stack:
        ideal = stack.pop()
        if len(ideal) >= max_size:
            continue
        candidates = {family.apex} if not ideal else \
            {s for atom in ideal for s in family.successors(atom)} - ideal
        for atom in candidates:
            if any(p not in ideal for p in family.predecessors(atom)):
                continue
            child = ideal | {atom}
            removable = [x for x in child
                         if all(s not in child for s in family.successors(x))]
            if max(removable, key=family.sort_key) == atom:
                yield child
                stack.append(child)


# The frozenset layer DP that ``crystal`` used before it numbered its
# atoms, kept verbatim as the oracle for the indexed walk and counts.

def frozenset_next_layer(family, top) -> tuple:
    """The atoms one layer above ``top`` whose predecessors all lie in it,
    in ``sort_key`` order."""
    nxt = {s for atom in top for s in family.successors(atom)
           if all(p in top for p in family.predecessors(s))}
    return tuple(sorted(nxt, key=family.sort_key))


def layer_walk(family, max_size: int):
    """The ideals of ``crystal.configurations``, in the same order, from
    frozenset layers."""
    if max_size < 0:
        raise CrepantError("size bound must be nonnegative")
    yield frozenset()
    layers: dict = {}
    stack = [(frozenset(), (family.apex,), max_size)]
    while stack:
        below, allowed, budget = stack.pop()
        for k in range(1, min(budget, len(allowed)) + 1):
            for layer in combinations(allowed, k):
                ideal = below.union(layer)
                yield ideal
                if k < budget:
                    top = frozenset(layer)
                    nxt = layers.get(top)
                    if nxt is None:
                        nxt = layers[top] = frozenset_next_layer(family, top)
                    if nxt:
                        stack.append((ideal, nxt, budget - k))


def layer_profile_counts(family, max_size: int) -> dict[tuple[int, ...], int]:
    """``crystal.enumerate_configurations`` memoized on frozenset top layers."""
    if max_size < 0:
        raise CrepantError("size bound must be nonnegative")
    width = max_size.bit_length()

    @cache
    def weight(atom) -> int:
        return 1 << width * family.color_index(atom)

    def grow(allowed, budget) -> dict[int, int]:
        counts = {0: 1}
        for k in range(1, min(budget, len(allowed)) + 1):
            for layer in combinations(allowed, k):
                base = sum(map(weight, layer))
                for dims, count in above(frozenset(layer), budget - k).items():
                    key = base + dims
                    counts[key] = counts.get(key, 0) + count
        return counts

    @cache
    def above(top: frozenset, budget: int) -> dict[int, int]:
        if not budget:
            return {0: 1}
        return grow(frozenset_next_layer(family, top), budget)

    mask = (1 << width) - 1
    ncolours = len(family.variables)
    return {tuple(key >> width * i & mask for i in range(ncolours)): count
            for key, count in grow((family.apex,), max_size).items()}


# The McKay superpotential and the crystal module builder as they stood
# before the superpotential took two orientations per character and each
# family yielded its own arrows per atom; kept verbatim but for their names
# as the oracles for ``mckay.mckay_superpotential`` and
# ``crystal.configuration_to_module``.

_SIGN = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 1, 3): -1,
         (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1}


def rotation_count(word: tuple[str, ...]) -> int:
    """Number of distinct rotations of an arrow word."""
    return len({word[i:] + word[:i] for i in range(len(word))})


def six_orientation_superpotential(act) -> Superpotential:
    """Antisymmetrized sum of the closed z1 z2 z3 triangles at every vertex.

    Each closed 3-cycle is produced once per starting vertex; merged
    coefficients are divided by the word's rotation count so every cyclic
    word ends with a unit coefficient.
    """
    triangles = []
    for e in act.elements():
        for sigma in permutations((1, 2, 3)):
            word = []
            at = e
            for i in sigma:
                word.append(arrow_name(act, i, at))
                at = act.add(at, act.weights[i - 1])
            triangles.append((_SIGN[sigma], word))
    terms = []
    for word, coeff in Superpotential(triangles).terms:
        rotations = rotation_count(word)
        if coeff % rotations:
            raise CrepantError("cycle coefficient not divisible by its rotations")
        terms.append((coeff // rotations, word))
    return Superpotential(terms)


def box_color(family, atom) -> str:
    i, j, k = atom
    w1, w2, w3 = family.act.weights
    elem = tuple((i * a + j * b + k * c) % n
                 for a, b, c, n in zip(w1, w2, w3, family.act.orders))
    return family.act.label(elem)


def atom_vertex(family, atom) -> str:
    if isinstance(family, BoxFamily):
        return box_color(family, atom)
    return "0" if atom[0] == "w" else "1"


def box_arrow_action(family, name: str, atom):
    """Image of an atom under a gauge arrow, on the full crystal."""
    coord, src = name[1:].split("_", 1)
    if box_color(family, atom) != src:
        return None
    i = int(coord)
    return tuple(x + (1 if pos == i - 1 else 0) for pos, x in enumerate(atom))


def pyramid_arrow_action(name: str, atom):
    kind, a, b, c, d = atom
    if name in ("A", "B"):
        if kind != "w":
            return None
        if name == "A":
            return ("A", a, b, 0, d) if c == 0 else ("B", a + 1, 0, c - 1, d)
        return ("B", a, 0, c, d) if b == 0 else ("A", a, b - 1, 0, d + 1)
    if name == "C":
        if kind == "A":
            return ("w", a + 1, b, 0, d)
        if kind == "B":
            return ("w", a, 0, c + 1, d)
    if name == "D":
        if kind == "A":
            return ("w", a, b + 1, 0, d)
        if kind == "B":
            return ("w", a, 0, c, d + 1)
    return None


def arrow_action(family, name: str, atom):
    if isinstance(family, BoxFamily):
        return box_arrow_action(family, name, atom)
    return pyramid_arrow_action(name, atom)


def gauge_arrows(family):
    if isinstance(family, BoxFamily):
        return [a.name for a in family.quiver.arrows]
    return ["A", "B", "C", "D"]


def gauge_arrow_module(family, config) -> MonomialRepresentation:
    """The framed monomial module whose basis is the configuration.

    Gauge arrows act by the crystal translation where the image atom is
    present and by zero otherwise; the framing arrow hits the apex.
    """
    config = frozenset(config)
    framed = family.framed
    fr_elt = "<framing>"
    vertex_of = {atom: atom_vertex(family, atom) for atom in config}
    vertex_of[fr_elt] = framed.framing_vertex
    action: dict = {}
    for name in gauge_arrows(family):
        mapping = {}
        for atom in config:
            image = arrow_action(family, name, atom)
            if image is not None and image in config:
                mapping[atom] = image
        if mapping:
            action[name] = mapping
    if family.apex in config:
        action[framed.framing_arrow] = {fr_elt: family.apex}
    return MonomialRepresentation(framed.quiver, vertex_of, action, framed=framed)


def gw_as_crystal(z: GWSeries, order: int, sign: int) -> FormalSeries:
    """M(q)^n Z(Q_i -> sign q_(i+1)) Z(Q_i -> sign / q_(i+1)) in q0..q(n-1),
    truncated at ``order``, for the series Z of a web whose n - 1 internal
    edges Q_0..Q_(n-2) are a chain of curves.

    Here q = q0 q1 ... q(n-1) = t^2 and M is MacMahon's function, so a term
    c Q^a t^(2m) of Z goes to sign^|a| c q0^m prod_i q_(i+1)^(m + a_i) in
    the first factor and to sign^|a| c q0^m prod_i q_(i+1)^(m - a_i) in the
    second.  This is the GW side of the crystal series of the conifold
    (n = 2, sign -1; Szendroi, arXiv:0705.3419) and of C^2/Z_n x C with
    weights (1, n-1, 0), glued along the A_(n-1) strip (sign 1;
    Young-Bryan, arXiv:0802.3948).
    """
    n = len(z.vars) + 1
    vars = tuple(f"q{i}" for i in range(n))
    plus, minus = {}, {}
    for a, ts in z.terms.items():
        for e, c in ts.coeffs.items():
            if e % 2:
                raise ValueError(f"odd t-power t^{e} has no image in q")
            m = e // 2
            plus[(m,) + tuple(m + j for j in a)] = \
                minus[(m,) + tuple(m - j for j in a)] = sign ** sum(a) * c
    macmahon = product_series(vars, order, [(-1, (k,) * n, -n * k)
                                            for k in range(1, order + 1)])
    return macmahon * FormalSeries(vars, order, plus) * \
        FormalSeries(vars, order, minus)


def young_bryan_series(n: int, order: int) -> FormalSeries:
    """Coloured box counts of C^3/Z_n with weights (1, n-1, 0), in q0..q(n-1).

    Young's product (Young, with an appendix by Bryan, *Generating functions
    for colored 3D Young diagrams and the Donaldson-Thomas invariants of
    orbifolds*, arXiv:0802.3948):
    M(1, q)^n prod_{0<a<=b<n} M(q_[a,b], q) M(q_[a,b]^-1, q), where
    M(x, q) = prod_{m>=1} (1 - x q^m)^-m, q = q0 q1 ... q(n-1) and
    q_[a,b] = q_a ... q_b.  Colour c is the box character i - j mod n.
    """
    factors = []
    for m in range(1, order + 1):
        factors.append((-1, (m,) * n, -m * n))
        for a in range(1, n):
            for b in range(a, n):
                for step in (1, -1):
                    exps = tuple(m + step if a <= c <= b else m for c in range(n))
                    factors.append((-1, exps, -m))
    return product_series(tuple(f"q{c}" for c in range(n)), order, factors)


def dataclass_twin(cls):
    """The frozen dataclass a namedtuple record class replaced: same name,
    fields and defaults, so its repr, equality and hash are the reference
    for the record's."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, dataclasses.field(default=cls._field_defaults[name]))
         if name in cls._field_defaults else (name, object)
         for name in cls._fields],
        frozen=True)


# ---------------------------------------------------------------------------
# The Fraction route through geometry verification: the closure evaluator,
# sampler, residuals and identity runner that crepant.geometry used before
# it evaluated over integer pairs, kept verbatim (``TorusAction.act`` as
# ``fraction_act``) as the oracle for the pair evaluator.

def _fraction_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-10 ** 4, 10 ** 4)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 10 ** 4))


def fraction_points(rng: random.Random, symbols, trials: int,
                    nonzero=()) -> list[tuple]:
    """Points as tuples of values, one per symbol, in symbol order."""
    return [tuple(_fraction_rational(rng, nonzero=s in nonzero)
                  for s in symbols)
            for _ in range(trials)]


_FRACTION_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_FRACTION_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
                    ast.Mult: operator.mul, ast.Div: operator.truediv,
                    ast.Pow: operator.pow}
_FRACTION_MAX_DEPTH = 500


@lru_cache(maxsize=4096)
def fraction_compile(text: str, coords: tuple, k=None, n=None):
    """A closure mapping a tuple of Fraction values of ``coords`` to the
    exact value of ``text``, evaluated as written; memoized, so a text
    used by several identities compiles once."""
    try:
        tree = ast.parse(text.strip().replace("^", "**"), mode="eval")
        value = _fraction_walk(tree.body, coords, {"k": k, "n": n}, 0)
    except ZeroDivisionError:
        raise CrepantError(f"{text!r} divides by zero") from None
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise CrepantError(f"cannot parse expression {text!r}:"
                           f" {exc or 'nested too deeply'}") from None
    return value if callable(value) else lambda _: value


def _fraction_walk(node, coords, params, depth):
    """The Fraction value of a constant subtree, else a closure."""
    if depth > _FRACTION_MAX_DEPTH:
        raise CrepantError("expression nested deeper than"
                           f" {_FRACTION_MAX_DEPTH}")
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Fraction(node.value)
    if isinstance(node, ast.Name):
        if node.id in coords:
            return operator.itemgetter(coords.index(node.id))
        if params.get(node.id) is not None:
            return Fraction(params[node.id])
        raise CrepantError(f"{node.id} is not one of the coordinates"
                           f" {', '.join(coords)}")
    if isinstance(node, ast.UnaryOp) and type(node.op) in _FRACTION_UNARY:
        op, args = _FRACTION_UNARY[type(node.op)], (node.operand,)
    elif (isinstance(node, ast.BinOp)
          and type(node.op) in _FRACTION_BINARY):
        op, args = _FRACTION_BINARY[type(node.op)], (node.left, node.right)
    else:
        raise CrepantError(f"cannot evaluate {ast.unparse(node)} exactly: only"
                           " integers, + - * / and integer powers are allowed")
    parts = []
    for arg in args:  # a loop, not a comprehension: one frame per level
        parts.append(_fraction_walk(arg, coords, params, depth + 1))
    if op is operator.pow:
        if callable(parts[1]) or parts[1].denominator != 1:
            raise CrepantError(f"cannot evaluate {ast.unparse(node)} exactly:"
                               " the exponent is not an integer")
        parts[1] = parts[1].numerator
    if not any(map(callable, parts)):
        return op(*parts)
    fns = [p if callable(p) else (lambda _, c=p: c) for p in parts]
    if len(fns) == 1:
        return lambda vals: op(fns[0](vals))
    left, right = fns
    return lambda vals: op(left(vals), right(vals))


def fraction_act(weights, scalars, values):
    """``TorusAction.act`` as it was: each value times its monomial in the
    scalars, in Fraction arithmetic."""
    return tuple(val * math.prod(s ** w for s, w in zip(scalars, wv))
                 for wv, val in zip(weights, values))


def _fraction_compile_all(geo: GluedThreefold, texts, coords):
    fns = tuple(fraction_compile(t, coords, geo.k, geo.n) for t in texts)
    return lambda vals: tuple(fn(vals) for fn in fns)


# residual builders: each compiles its expressions once and returns a
# function from a sampled point to the list of residuals

def _fraction_transition(geo: GluedThreefold):
    forward = _fraction_compile_all(geo, geo.forward, CHART1)
    backward = _fraction_compile_all(geo, geo.backward, CHART2)
    return lambda p: [b - a for a, b in zip(p, backward(forward(p)))]


def _fraction_agreement(geo: GluedThreefold, i: int):
    forward = _fraction_compile_all(geo, geo.forward, CHART1)
    wz = fraction_compile(geo.v_chart2[i], CHART2, geo.k, geo.n)
    xy = fraction_compile(geo.v_chart1[i], CHART1, geo.k, geo.n)
    return lambda p: [wz(forward(p)) - xy(p)]


def _fraction_equation(geo: GluedThreefold, chart: int):
    vs = (_fraction_compile_all(geo, geo.v_chart1, CHART1) if chart == 1
          else _fraction_compile_all(geo, geo.v_chart2, CHART2))
    equation = fraction_compile(geo.equation, V_COORDS, geo.k, geo.n)
    return lambda p: [equation(vs(p))]


def _fraction_equivariance(geo: GluedThreefold):
    act = geo.action
    forward = _fraction_compile_all(geo, geo.forward, CHART1)

    def residual(p):
        coords, scalars = p[:3], p[3:]
        lhs = forward(fraction_act(act.chart1_weights, scalars, coords))
        rhs = fraction_act(act.chart2_weights, scalars, forward(coords))
        return [a - b for a, b in zip(lhs, rhs)]
    return residual


def _fraction_run_identity(name, residual, symbols, points) -> IdentityResult:
    failures = []
    for point in points:
        try:
            res = residual(point)
        except ZeroDivisionError:
            res = ["zoo"]
        if any(r != 0 for r in res):
            failures.append((tuple(sorted(zip(symbols, map(str, point)))),
                             [str(r) for r in res]))
    examples = tuple(failures[:_MAX_COUNTEREXAMPLES])
    status = "holds" if not failures else "fails"
    return IdentityResult(name, status, len(points), len(failures), examples)


def fraction_reports(geo, trials, seed):
    """The transition, contraction and (when the geometry has an action)
    equivariance reports of the Fraction route, each sampled as
    ``verify_transition``, ``verify_contraction`` and
    ``verify_equivariance`` sample."""
    run = _fraction_run_identity
    points = fraction_points(random.Random(seed), CHART1, trials,
                             nonzero=("x",))
    reports = [(run("transition_roundtrip", _fraction_transition(geo),
                    CHART1, points),)]
    rng = random.Random(seed)
    identities = []
    for i in range(4):
        points = fraction_points(rng, CHART1, trials, nonzero=("x",))
        identities.append(run(f"v{i + 1}_chart_agreement",
                              _fraction_agreement(geo, i), CHART1, points))
    for chart, coords in ((1, CHART1), (2, CHART2)):
        points = fraction_points(rng, coords, trials, nonzero=coords[:1])
        identities.append(run(f"equation_chart{chart}",
                              _fraction_equation(geo, chart), coords, points))
    reports.append(tuple(identities))
    if geo.action is not None:
        rank = geo.action.rank
        torus = ("t1", "t2")[:rank] if rank > 1 else ("t",)
        points = fraction_points(random.Random(seed), CHART1 + torus, trials,
                                 nonzero=("x",) + torus)
        reports.append((run("equivariance", _fraction_equivariance(geo),
                            CHART1 + torus, points),))
    return [VerificationReport(geo.label(), seed, identities)
            for identities in reports]


# ---------------------------------------------------------------------------
# The generic point: the residual builders of crepant.geometry, unchanged,
# run over polynomials instead of sampled rationals.  The pair arithmetic
# uses only + - * **, == and truth values, so at the point
# ((x, 1), (y1, 1), ...) each residual is a pair of polynomials, and its
# numerator is the zero polynomial exactly when the identity holds wherever
# it is defined (Schwartz, JACM 1980: a nonzero one vanishes at few points).

class Poly:
    """A sparse integer polynomial in ``nvars`` variables: a dict from
    exponent tuples to nonzero coefficients.  Ints mix in as constants."""

    __slots__ = ("terms", "nvars")
    __hash__ = None

    def __init__(self, terms: dict, nvars: int):
        self.terms, self.nvars = terms, nvars

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        return cls({tuple(int(j == i) for j in range(nvars)): 1}, nvars)

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly({(0,) * self.nvars: other} if other else {}, self.nvars)

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in self._lift(other).terms.items():
            total = terms.get(mono, 0) + c
            if total:
                terms[mono] = total
            else:
                terms.pop(mono, None)
        return Poly(terms, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        terms, other = {}, self._lift(other)
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(operator.add, m1, m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly({m: c for m, c in terms.items() if c}, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("a polynomial to a negative power")
        result, base = self._lift(1), self
        while e:
            if e & 1:
                result *= base
            e >>= 1
            if e:
                base *= base
        return result

    def __eq__(self, other):
        return self.terms == self._lift(other).terms

    def __bool__(self):
        return bool(self.terms)


def generic_point(nvars: int) -> tuple:
    return tuple((Poly.variable(i, nvars), 1) for i in range(nvars))


def generic_verdicts(geo: GluedThreefold) -> list[tuple[str, str]]:
    """(identity, status) for every identity ``verify-geometry`` checks, in
    its order, decided at the generic point: "holds" when every residual
    numerator is the zero polynomial, "fails" when one is not or the
    expression divides by the zero polynomial."""
    cases = [("transition_roundtrip", _transition_residual(geo), 3),
             *[(f"v{i + 1}_chart_agreement", _agreement_residual(geo, i), 3)
               for i in range(4)],
             ("equation_chart1", _equation_residual(geo, 1), 3),
             ("equation_chart2", _equation_residual(geo, 2), 3)]
    if geo.action is not None:
        cases.append(("equivariance", _equivariance_residual(geo),
                      3 + geo.action.rank))
    verdicts = []
    for name, residual, nvars in cases:
        try:
            zero = not any(num for num, _ in residual(generic_point(nvars)))
        except ZeroDivisionError:
            zero = False
        verdicts.append((name, "holds" if zero else "fails"))
    return verdicts
