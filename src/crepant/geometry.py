"""Exact verification of chart gluings, contractions, and torus actions.

Each built-in geometry is two affine charts (x, y1, y2) and (w, z1, z2)
glued over x != 0, a contraction given by four coordinates v1..v4 written
in both charts, a target equation in the v's, and optionally a torus acting
by monomial weights on each chart.

Verification samples random rational points (``fractions.Fraction`` values
with numerators and denominators bounded by 10**4) and demands exactly zero
residuals; a report never contains a nonzero-but-small residual classified
as holding.  Known discrepancies in the stored expressions are surfaced
through ``notes`` and through per-identity failures, never silently
corrected; an ``overrides`` mapping lets the caller substitute corrected
expressions and re-verify.

The expressions are stored as sympy objects but evaluated through one exact
path: a memoized walk over each expression tree compiles it once into a
Python closure over ``Fraction`` (symbols, rational numbers, sums, products
and integer powers).  Anything else -- a float, a function such as sin, a
symbolic exponent, a coordinate of the other chart -- raises
``CrepantError``, so an override must be a rational function of its own
chart's coordinates.  A trial that divides by zero fails with the residual
``zoo``, sympy's name for that value.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

import sympy as sp

from .errors import CrepantError

X, Y1, Y2 = sp.symbols("x y1 y2")
W, Z1, Z2 = sp.symbols("w z1 z2")
V1, V2, V3, V4 = sp.symbols("v1 v2 v3 v4")
T, T1, T2 = sp.symbols("t t1 t2")

CHART1 = (X, Y1, Y2)
CHART2 = (W, Z1, Z2)
V_COORDS = (V1, V2, V3, V4)


@dataclass(frozen=True)
class TorusAction:
    """Monomial weights per coordinate; one row per torus factor."""

    rank: int
    chart1_weights: tuple[tuple[int, ...], ...]  # weights of x, y1, y2
    chart2_weights: tuple[tuple[int, ...], ...]  # weights of w, z1, z2

    def act(self, weights, scalars, values):
        return tuple(val * math.prod(s ** w for s, w in zip(scalars, wv))
                     for wv, val in zip(weights, values))


@dataclass(frozen=True)
class GluedThreefold:
    name: str
    parameter: tuple[str, int] | None
    forward: tuple[sp.Expr, sp.Expr, sp.Expr]   # (w, z1, z2) in terms of chart 1
    backward: tuple[sp.Expr, sp.Expr, sp.Expr]  # (x, y1, y2) in terms of chart 2
    v_chart1: tuple[sp.Expr, ...]               # v1..v4 in (x, y1, y2)
    v_chart2: tuple[sp.Expr, ...]               # v1..v4 in (w, z1, z2)
    equation: sp.Expr                           # polynomial in v1..v4
    action: TorusAction | None = None
    notes: tuple[str, ...] = ()

    def label(self) -> str:
        if self.parameter is None:
            return self.name
        return f"{self.name}({self.parameter[0]}={self.parameter[1]})"


def _sympify(text: str, k=None, n=None) -> sp.Expr:
    local = {"x": X, "y1": Y1, "y2": Y2, "w": W, "z1": Z1, "z2": Z2,
             "v1": V1, "v2": V2, "v3": V3, "v4": V4}
    if k is not None:
        local["k"] = sp.Integer(k)
    if n is not None:
        local["n"] = sp.Integer(n)
    try:
        expr = sp.sympify(text, locals=local)
    except (sp.SympifyError, TypeError) as exc:
        raise CrepantError(f"cannot parse expression {text!r}: {exc}") from None
    if not isinstance(expr, sp.Expr):
        raise CrepantError(f"{text!r} is not an expression")
    return expr


_OVERRIDE_KEYS = ("w", "z1", "z2", "x", "y1", "y2",
                  "v1_xy", "v2_xy", "v3_xy", "v4_xy",
                  "v1_wz", "v2_wz", "v3_wz", "v4_wz", "equation")


def _apply_overrides(geo: GluedThreefold, overrides: dict,
                     k=None, n=None) -> GluedThreefold:
    forward = list(geo.forward)
    backward = list(geo.backward)
    v1c = list(geo.v_chart1)
    v2c = list(geo.v_chart2)
    equation = geo.equation
    notes = list(geo.notes)
    for key, text in overrides.items():
        if key not in _OVERRIDE_KEYS:
            raise CrepantError(f"unknown override key {key!r}")
        expr = _sympify(text, k=k, n=n)
        if key in ("w", "z1", "z2"):
            forward[("w", "z1", "z2").index(key)] = expr
            coords = CHART1
        elif key in ("x", "y1", "y2"):
            backward[("x", "y1", "y2").index(key)] = expr
            coords = CHART2
        elif key == "equation":
            equation = expr
            coords = V_COORDS
        elif key.endswith("_xy"):
            v1c[int(key[1]) - 1] = expr
            coords = CHART1
        else:
            v2c[int(key[1]) - 1] = expr
            coords = CHART2
        _compile(expr, coords)  # reject what exact evaluation cannot take
        notes.append(f"override {key} = {text}")
    return GluedThreefold(geo.name, geo.parameter, tuple(forward),
                          tuple(backward), tuple(v1c), tuple(v2c), equation,
                          geo.action, tuple(notes))


def builtin_geometry(name: str, k: int | None = None, n: int | None = None,
                     overrides: dict | None = None) -> GluedThreefold:
    """The conifold and the two one-parameter families, as printed.

    ``laufer1`` takes k >= 1, ``laufer2`` takes n >= 1.  The stored
    expressions follow the source text; spots where the printed data is
    internally inconsistent are listed in ``notes`` (and are expected to
    fail verification for laufer2's v1 and v4).
    """
    if name == "conifold":
        geo = GluedThreefold(
            name="conifold",
            parameter=None,
            forward=(1 / X, X * Y1, X * Y2),
            backward=(1 / W, W * Z1, W * Z2),
            v_chart1=(X * Y1, X * Y2, Y1, Y2),
            v_chart2=(Z1, Z2, W * Z1, W * Z2),
            equation=V1 * V4 - V2 * V3,
            action=None,
            notes=(),
        )
    elif name == "laufer1":
        if k is None or k < 1:
            raise CrepantError("laufer1 needs an integer parameter k >= 1")
        geo = GluedThreefold(
            name="laufer1",
            parameter=("k", k),
            forward=(1 / X, X ** 2 * Y1 + X * Y2 ** k, Y2),
            backward=(1 / W, W ** 2 * Z1 - W * Z2 ** k, Z2),
            v_chart1=(Y2, X ** 2 * Y1 + X * Y2 ** k, X * Y1 + Y2 ** k, Y1),
            v_chart2=(Z2, Z1, W * Z1, W ** 2 * Z1 - W * Z2 ** k),
            equation=V2 * V4 - V3 ** 2 + V3 * V1 ** k,
            action=TorusAction(
                rank=2,
                chart1_weights=((-1, k), (1, 0), (0, 1)),
                chart2_weights=((1, -k), (-1, 2 * k), (0, 1)),
            ),
            notes=(
                "the printed v4 drops the factor z1 from w**2*z1; the stored"
                " chart-2 expression w**2*z1 - w*z2**k is the one equal to y1",
                "the quadric form u1**2 + u2**2 + u2**2 + u4**(2*k) is stored"
                " verbatim for reference only (one repeated term as printed);"
                " the change of coordinates to it is not implemented",
            ),
        )
    elif name == "laufer2":
        if n is None or n < 1:
            raise CrepantError("laufer2 needs an integer parameter n >= 1")
        z1_glue = X ** 3 * Y1 + Y2 ** 2 + X ** 2 * Y2 ** (2 * n + 1)
        geo = GluedThreefold(
            name="laufer2",
            parameter=("n", n),
            forward=(1 / X, z1_glue, Y2 / X),
            backward=(1 / W,
                      W ** 3 * Z1 - W * Z2 ** 2 - Z2 ** (2 * n + 1) * W ** (-2 * n),
                      Z2 / W),
            v_chart1=(
                X ** 3 * Y1 + X * Y2 ** (2 * n + 1),
                X * Y1 + Y2 ** (2 * n + 1),
                Y1 + (Y2 ** (2 * n + 1) - Y2 * z1_glue ** n) / X,
                Y1 * Y2 + (Y2 ** (2 * n + 2) - z1_glue ** (n + 1)) / X,
            ),
            v_chart2=(
                Z1,
                W ** 2 * Z1 - Z2 ** 2,
                W ** 3 * Z1 - W * Z2 ** 2 - Z1 ** n * Z2,
                W ** 2 * Z1 * Z2 - Z2 ** 3 - W * Z2 ** (n + 1),
            ),
            equation=V4 ** 2 + V2 ** 3 - V1 * V3 - V1 ** (2 * n + 1) * V2,
            action=TorusAction(
                rank=1,
                chart1_weights=((1 - 2 * n,), (6 * n + 1,), (2,)),
                chart2_weights=((2 * n - 1,), (4,), (2 * n + 1,)),
            ),
            notes=(
                "printed v1 = x**3*y1 + x*y2**(2n+1) disagrees with the gluing"
                " z1 = x**3*y1 + y2**2 + x**2*y2**(2n+1); stored as printed",
                "printed v4 term w*z2**(n+1) appears inconsistent with the"
                " chart-1 expression, which matches w*z1**(n+1); stored as"
                " printed (override v4_wz to re-verify a corrected version)",
                "the stored equation is inhomogeneous for the stored torus"
                " weights (the v1*v3 term); overriding v4_wz as above and the"
                " equation with v4**2 + v2**3 - v1*v3**2 - v1**(2*n+1)*v2"
                " verifies identically on chart 2",
            ),
        )
    else:
        raise CrepantError(f"unknown geometry {name!r}")
    if overrides:
        geo = _apply_overrides(geo, overrides, k=k, n=n)
    return geo


# ---------------------------------------------------------------------------
# Sampling and reports

@dataclass(frozen=True)
class IdentityResult:
    name: str
    status: str  # "holds" or "fails"
    trials: int
    failures: int
    counterexamples: tuple = ()  # ((var, value string) pairs, residual strings)


@dataclass(frozen=True)
class VerificationReport:
    geometry: str
    seed: int
    identities: tuple[IdentityResult, ...]

    def holds(self) -> bool:
        return all(r.status == "holds" for r in self.identities)

    def identity(self, name: str) -> IdentityResult:
        for r in self.identities:
            if r.name == name:
                return r
        raise CrepantError(f"no identity named {name!r}")

    def to_json(self) -> str:
        data = {
            "geometry": self.geometry,
            "seed": self.seed,
            "identities": [
                {
                    "identity": r.name,
                    "status": r.status,
                    "trials": r.trials,
                    "failures": r.failures,
                    "counterexamples": [
                        {"point": dict(point), "residual": residual}
                        for point, residual in r.counterexamples
                    ],
                }
                for r in self.identities
            ],
        }
        return json.dumps(data, sort_keys=True, indent=2) + "\n"


_MAX_COUNTEREXAMPLES = 5


def _rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        num = rng.randint(-10 ** 4, 10 ** 4)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 10 ** 4))


def _points(rng: random.Random, symbols, trials: int, nonzero=()) -> list[tuple]:
    """Points as tuples of values, one per symbol, in symbol order."""
    return [tuple(_rational(rng, nonzero=s in nonzero) for s in symbols)
            for _ in range(trials)]


@lru_cache(maxsize=4096)
def _compile(expr: sp.Expr, coords: tuple):
    """A closure mapping a tuple of Fraction values of ``coords`` to the
    exact value of ``expr``; memoized, so a subtree shared between the
    expressions of a geometry compiles once."""
    if expr.is_Symbol:
        if expr not in coords:
            raise CrepantError(f"{expr} is not one of the coordinates"
                               f" {', '.join(map(str, coords))}")
        return itemgetter(coords.index(expr))
    if expr.is_Rational:
        value = Fraction(int(expr.p), int(expr.q))
        return lambda _: value
    if expr.is_Add or expr.is_Mul:
        terms = tuple(_compile(arg, coords) for arg in expr.args)
        if expr.is_Add:
            return lambda vals: sum(term(vals) for term in terms)
        return lambda vals: math.prod(term(vals) for term in terms)
    if expr.is_Pow and expr.exp.is_Integer:
        base, exp = _compile(expr.base, coords), int(expr.exp)
        return lambda vals: base(vals) ** exp
    raise CrepantError(f"cannot evaluate {expr} exactly: only rational numbers,"
                       " sums, products and integer powers are supported")


def _compile_all(exprs, coords):
    fns = tuple(_compile(e, coords) for e in exprs)
    return lambda vals: tuple(fn(vals) for fn in fns)


# residual builders: each compiles its expressions once and returns a
# function from a sampled point to the list of residuals

def _transition_residual(geo: GluedThreefold):
    forward = _compile_all(geo.forward, CHART1)
    backward = _compile_all(geo.backward, CHART2)
    return lambda p: [b - a for a, b in zip(p, backward(forward(p)))]


def _agreement_residual(geo: GluedThreefold, i: int):
    forward = _compile_all(geo.forward, CHART1)
    wz = _compile(geo.v_chart2[i], CHART2)
    xy = _compile(geo.v_chart1[i], CHART1)
    return lambda p: [wz(forward(p)) - xy(p)]


def _equation_residual(geo: GluedThreefold, chart: int):
    vs = (_compile_all(geo.v_chart1, CHART1) if chart == 1
          else _compile_all(geo.v_chart2, CHART2))
    equation = _compile(geo.equation, V_COORDS)
    return lambda p: [equation(vs(p))]


def _equivariance_residual(geo: GluedThreefold):
    act = geo.action
    forward = _compile_all(geo.forward, CHART1)

    def residual(p):
        coords, scalars = p[:3], p[3:]
        lhs = forward(act.act(act.chart1_weights, scalars, coords))
        rhs = act.act(act.chart2_weights, scalars, forward(coords))
        return [a - b for a, b in zip(lhs, rhs)]
    return residual


def _run_identity(name, residual, symbols, points) -> IdentityResult:
    names = [str(s) for s in symbols]
    failures = []
    for point in points:
        try:
            res = residual(point)
        except ZeroDivisionError:
            res = ["zoo"]
        if any(r != 0 for r in res):
            failures.append((tuple(sorted(zip(names, map(str, point)))),
                             [str(r) for r in res]))
    examples = tuple(failures[:_MAX_COUNTEREXAMPLES])
    status = "holds" if not failures else "fails"
    return IdentityResult(name, status, len(points), len(failures), examples)


def verify_transition(geo: GluedThreefold, trials: int,
                      seed: int = 0) -> VerificationReport:
    """Round-trip chart 1 -> chart 2 -> chart 1 at random overlap points."""
    if trials < 1:
        raise CrepantError("need at least one trial")
    points = _points(random.Random(seed), CHART1, trials, nonzero=(X,))
    result = _run_identity("transition_roundtrip", _transition_residual(geo),
                           CHART1, points)
    return VerificationReport(geo.label(), seed, (result,))


def verify_contraction(geo: GluedThreefold, trials: int, seed: int = 0,
                       only=None) -> VerificationReport:
    """Chart agreement of each v_i and the target equation on both charts.

    ``only`` restricts to a subset of identity names; the sampling stream is
    shared, so a restricted run sees the same points as the full one.
    """
    if trials < 1:
        raise CrepantError("need at least one trial")
    rng = random.Random(seed)
    wanted = None if only is None else set(only)
    identities = []

    def run(name, residual, symbols, nonzero):
        points = _points(rng, symbols, trials, nonzero=nonzero)
        if wanted is None or name in wanted:
            identities.append(_run_identity(name, residual, symbols, points))

    for i in range(4):
        run(f"v{i + 1}_chart_agreement", _agreement_residual(geo, i),
            CHART1, (X,))
    run("equation_chart1", _equation_residual(geo, 1), CHART1, (X,))
    run("equation_chart2", _equation_residual(geo, 2), CHART2, (W,))
    if wanted is not None and len(identities) != len(wanted):
        raise CrepantError("unknown identity name in the restriction")
    return VerificationReport(geo.label(), seed, tuple(identities))


def verify_equivariance(geo: GluedThreefold, trials: int,
                        seed: int = 0) -> VerificationReport:
    """transition(action(p)) == action(transition(p)) at random points."""
    if trials < 1:
        raise CrepantError("need at least one trial")
    if geo.action is None:
        raise CrepantError(f"geometry {geo.name} carries no torus action")
    rng = random.Random(seed)
    torus = (T1, T2)[:geo.action.rank] if geo.action.rank > 1 else (T,)
    points = _points(rng, CHART1 + torus, trials,
                     nonzero=(X,) + torus)
    result = _run_identity("equivariance", _equivariance_residual(geo),
                           CHART1 + torus, points)
    return VerificationReport(geo.label(), seed, (result,))
