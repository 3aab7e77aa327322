"""Side-by-side crystal counting versus vertex computation.

The two series live in different variables: the crystal side counts by
colour, the vertex side by curve class and t.  No dictionary between them
is built in; the caller supplies a candidate monomial substitution and the
sheet reports the term-by-term difference.  The stability parameter used
for the crystal chamber is recorded with a sign certificate over a
configured root list, and a parameter lying on a configured wall is
rejected by name.
"""

from __future__ import annotations

from collections import namedtuple

from .crystal import PyramidFamily, family_for, ncdt_series
from .errors import CrepantError, json_text
from .mckay import AbelianAction
from .reps import normalize_theta
from .roots import (CartanMatrix, Root, _pairing, _scaled_ints, cartan_matrix,
                    positive_roots)
from .series import FormalSeries, text_lines
from .toric import (dual_web, p2_triangle, unit_square, unit_triangle,
                    unit_triangulations, zn_triangle)
from .vertex import GWSeries, TSeries, gw_partition_function


class ChamberCertificate(namedtuple("ChamberCertificate",
                                    "theta radius signs")):
    """Signs of theta against every configured root up to a height radius;
    ``signs`` is ((root vector, kind, sign) ...)."""

    __slots__ = ()


def chamber_certificate(theta, roots: list[Root],
                        radius: int) -> ChamberCertificate:
    """Record the sign of theta against each root of height <= radius.

    Raises when theta lies on one of the configured walls, naming the root.
    """
    from fractions import Fraction
    theta = tuple(Fraction(t) for t in theta)
    ints = _scaled_ints(theta)
    signs = []
    for root in roots:
        if root.height > radius:
            continue
        value = _pairing(ints, root.vector)
        if value == 0:
            raise CrepantError(f"theta lies on the wall of root {root.vector}")
        signs.append((root.vector, root.kind, 1 if value > 0 else -1))
    return ChamberCertificate(theta, radius, tuple(signs))


AFFINE_A1 = CartanMatrix.from_dense(("0", "1"), ((2, -2), (-2, 2)))


def _gw_polygon(act: AbelianAction):
    if act.size == 1:
        return unit_triangle()
    if act.is_cyclic() and act.weights[0] == (1,) and act.weights[1] == (1,):
        n = act.orders[0]
        if n == 3:
            return p2_triangle()
        if n % 2 == 1:
            return zn_triangle((n - 1) // 2)
    raise CrepantError(
        "no lattice polygon is shipped for this action; supported actions are"
        " the trivial one and cyclic n:1,1,n-2 with n odd")


def _parse_monomial(spec, gw_vars) -> tuple[int, tuple[int, ...], int]:
    """A variable-map target: (coefficient, Q-exponents, t-exponent)."""
    coeff, exps = spec
    exps = dict(exps)
    unknown = set(exps) - set(gw_vars) - {"t"}
    if unknown:
        raise CrepantError(f"variable map targets unknown variables {unknown}")
    qexps = tuple(int(exps.get(v, 0)) for v in gw_vars)
    return int(coeff), qexps, int(exps.get("t", 0))


def _map_ncdt(series: FormalSeries, variable_map: dict,
              gw: GWSeries) -> GWSeries:
    missing = [v for v in series.vars if v not in variable_map]
    if missing:
        raise CrepantError(f"variable map does not cover {missing}")
    extra = [v for v in variable_map if v not in series.vars]
    if extra:
        raise CrepantError(
            f"variable map names {extra}, which the crystal series lacks")
    targets = {v: _parse_monomial(variable_map[v], gw.vars)
               for v in series.vars}
    terms: dict[tuple, TSeries] = {}
    for exps, coeff in series.terms.items():
        c = coeff
        q = [0] * len(gw.vars)
        texp = 0
        for v, e in zip(series.vars, exps):
            tc, tq, tt = targets[v]
            c *= tc ** e
            texp += tt * e
            for i, x in enumerate(tq):
                q[i] += x * e
        if sum(q) > gw.order:
            continue
        key = tuple(q)
        add = TSeries.monomial(texp, c, None)
        terms[key] = terms[key] + add if key in terms else add
    return GWSeries(gw.vars, gw.order, terms)


class ComparisonSheet(namedtuple(
        "ComparisonSheet", "geometry order theta sign_convention certificate"
        " ncdt gw variable_map mapped_ncdt diff")):
    """``diff`` is ((exponents incl t, coefficient) ...); ``variable_map``
    and ``mapped_ncdt`` are None when no map was supplied."""

    __slots__ = ()

    def to_json(self) -> str:
        data = {
            "geometry": self.geometry,
            "order": self.order,
            "theta": [str(t) for t in self.theta],
            "sign_convention": self.sign_convention,
            "certificate": {
                "radius": self.certificate.radius,
                "signs": [{"root": list(v), "kind": k, "sign": s}
                          for v, k, s in self.certificate.signs],
            },
            "ncdt": self.ncdt.to_text(),
            "gw": self.gw.to_text(),
            "variable_map": _map_json(self.variable_map),
            "diff": [{"exponents": list(e), "coefficient": str(c)}
                     for e, c in self.diff],
        }
        return json_text(data)

    def to_text(self) -> str:
        lines = [f"geometry: {self.geometry}   truncation: {self.order}"]
        lines.append("theta: (" + ", ".join(str(t) for t in self.theta) + ")"
                     f"   ncdt sign convention: {self.sign_convention}")
        lines.append("")
        lines.append("crystal side (" + " ".join(self.ncdt.columns()) + "):")
        lines += _indented(self.ncdt.sorted_terms())
        lines.append("vertex side (" + " ".join(self.gw.columns()) + "):")
        lines += _indented(self.gw.sorted_terms())
        if self.mapped_ncdt is not None:
            lines.append("diff (mapped crystal minus vertex):")
            lines += _indented(self.diff) or ["  none up to truncation"]
        else:
            lines.append("diff: no variable map supplied")
        return "\n".join(lines) + "\n"


def _indented(rows) -> list[str]:
    return ["  " + line for line in text_lines(rows)]


def _map_json(variable_map):
    if variable_map is None:
        return None
    return {v: {"coeff": c, "exponents": dict(e)}
            for v, (c, e) in variable_map.items()}


def compare(geometry, order: int, theta: dict, variable_map: dict | None = None,
            t_cutoff: int = 12, sign: str = "unsigned",
            wall_radius: int = 5) -> ComparisonSheet:
    """Compute both sides for one geometry and report an aligned diff.

    ``geometry`` is anything ``crystal.family_for`` resolves: "conifold",
    "c3", "mckay:n:w1,w2,w3" or an AbelianAction.  ``theta`` is a gauge
    stability parameter keyed by vertex; it must be off every configured
    wall up to the radius.  ``variable_map`` sends each crystal variable to
    (coeff, {var: exponent}) over the vertex variables and t.
    """
    family = family_for(geometry)
    act = None if isinstance(family, PyramidFamily) else family.act
    label = "conifold" if act is None else "c3" if act.size == 1 else \
        f"c3-mod-{'x'.join(map(str, act.orders))}" \
        f":{','.join(str(w[0]) for w in act.weights)}"

    theta = normalize_theta(theta)
    gauge = family.framed.gauge_vertices()
    if set(theta) != set(gauge):
        raise CrepantError(f"theta must be keyed by the gauge vertices {gauge}")
    theta_vec = tuple(theta[v] for v in gauge)
    cartan = AFFINE_A1 if act is None else cartan_matrix(family.quiver)
    roots = positive_roots(cartan, wall_radius)
    certificate = chamber_certificate(theta_vec, roots, wall_radius)

    ncdt = ncdt_series(family, order, sign=sign)
    polygon = unit_square() if act is None else _gw_polygon(act)
    web = dual_web(unit_triangulations(polygon)[0])
    gw = gw_partition_function(web, order, t_cutoff=t_cutoff)

    mapped = None
    diff: tuple = ()
    if variable_map is not None:
        mapped = _map_ncdt(ncdt, variable_map, gw)
        diff = tuple((mapped - gw).sorted_terms())
    return ComparisonSheet(label, order, theta_vec, sign, certificate,
                           ncdt, gw, variable_map, mapped, diff)
