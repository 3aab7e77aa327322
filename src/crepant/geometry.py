"""Exact verification of chart gluings, contractions, and torus actions.

Each built-in geometry is two affine charts (x, y1, y2) and (w, z1, z2)
glued over x != 0, a contraction given by four coordinates v1..v4 written
in both charts, a target equation in the v's, and optionally a torus acting
by monomial weights on each chart.

Verification samples random rational points (numerators and denominators
bounded by 10**4) and demands exactly zero residuals; a report never
contains a nonzero-but-small residual classified as holding.  Known
discrepancies in the stored expressions are surfaced through ``notes`` and
through per-identity failures, never silently corrected; an ``overrides``
mapping lets the caller substitute corrected expressions and re-verify.

Every expression, built-in or override, is text evaluated as written:
``_compile`` parses it into the tree ``ast.parse`` gives, by the builtin
``compile`` (``^`` reads as ``**``), and walks a whitelist -- integers,
the chart's coordinates, ``k``/``n`` when given, unary ``+ -``, binary
``+ - * / **`` with an exponent that folds to an integer -- into a closure
over exact rationals held as unreduced integer pairs ``(num, den)``: a
value is zero exactly when its numerator is, constants fold in the same
pair arithmetic, and a kept counterexample is written, at any length, as
the reduced fraction ``Fraction`` would print.  Anything else (a float,
sin, a symbolic exponent, the other chart's coordinates, a constant
division by zero) raises ``CrepantError``; ``ast`` is imported only to
phrase that message.  So does an override whose values may need more
than ``_MAX_BITS`` bits, a bound the walk computes before it folds
anything; the built-in texts are not capped, so any k or n evaluates.
Nothing cancels symbolically: a trial that divides by zero fails with the
residual ``zoo``.
"""

from __future__ import annotations

import math
import operator
import random
import sys
from collections import namedtuple
from functools import lru_cache, reduce

from .errors import CrepantError, json_text

CHART1 = ("x", "y1", "y2")
CHART2 = ("w", "z1", "z2")
V_COORDS = ("v1", "v2", "v3", "v4")


class TorusAction(namedtuple("TorusAction",
                             "rank chart1_weights chart2_weights")):
    """Monomial weights per coordinate; one row per torus factor.

    ``chart1_weights`` are the weights of x, y1, y2 and ``chart2_weights``
    those of w, z1, z2.
    """

    __slots__ = ()


class GluedThreefold(namedtuple(
        "GluedThreefold",
        "name parameter forward backward v_chart1 v_chart2 equation"
        " action notes k n", defaults=(None, (), None, None))):
    """Two charts glued over x != 0, a contraction and a torus action.

    ``parameter`` is None or (name, value); ``forward`` is (w, z1, z2) in
    terms of chart 1 and ``backward`` (x, y1, y2) in terms of chart 2;
    ``v_chart1``/``v_chart2`` are v1..v4 in either chart; ``equation`` is a
    polynomial in v1..v4; ``k`` and ``n`` are the values of those names in
    the texts.
    """

    __slots__ = ()

    def label(self) -> str:
        if self.parameter is None:
            return self.name
        return f"{self.name}({self.parameter[0]}={self.parameter[1]})"


# override key -> (field, index in the field or None, the text's coordinates)
_OVERRIDE_SLOTS = {
    **{key: ("forward", i, CHART1) for i, key in enumerate(CHART2)},
    **{key: ("backward", i, CHART2) for i, key in enumerate(CHART1)},
    **{f"v{i + 1}_xy": ("v_chart1", i, CHART1) for i in range(4)},
    **{f"v{i + 1}_wz": ("v_chart2", i, CHART2) for i in range(4)},
    "equation": ("equation", None, V_COORDS),
}


def _apply_overrides(geo: GluedThreefold, overrides: dict) -> GluedThreefold:
    fields = {field: getattr(geo, field) for field, _, _ in
              _OVERRIDE_SLOTS.values()}
    notes = list(geo.notes)
    for key, text in overrides.items():
        if key not in _OVERRIDE_SLOTS:
            raise CrepantError(f"unknown override key {key!r}")
        field, i, coords = _OVERRIDE_SLOTS[key]
        # reject what cannot be evaluated, or is too large to sample
        _compile(text, coords, geo.k, geo.n, _MAX_BITS)
        old = fields[field]
        fields[field] = text if i is None else old[:i] + (text,) + old[i + 1:]
        notes.append(f"override {key} = {text}")
    return geo._replace(notes=tuple(notes), **fields)


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
            forward=("1/x", "x*y1", "x*y2"),
            backward=("1/w", "w*z1", "w*z2"),
            v_chart1=("x*y1", "x*y2", "y1", "y2"),
            v_chart2=("z1", "z2", "w*z1", "w*z2"),
            equation="v1*v4 - v2*v3",
            action=None,
            notes=(),
            k=k, n=n,
        )
    elif name == "laufer1":
        if k is None or k < 1:
            raise CrepantError("laufer1 needs an integer parameter k >= 1")
        geo = GluedThreefold(
            name="laufer1",
            parameter=("k", k),
            forward=("1/x", "x**2*y1 + x*y2**k", "y2"),
            backward=("1/w", "w**2*z1 - w*z2**k", "z2"),
            v_chart1=("y2", "x**2*y1 + x*y2**k", "x*y1 + y2**k", "y1"),
            v_chart2=("z2", "z1", "w*z1", "w**2*z1 - w*z2**k"),
            equation="v2*v4 - v3**2 + v3*v1**k",
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
            k=k, n=n,
        )
    elif name == "laufer2":
        if n is None or n < 1:
            raise CrepantError("laufer2 needs an integer parameter n >= 1")
        z1_glue = "x**3*y1 + y2**2 + x**2*y2**(2*n+1)"
        geo = GluedThreefold(
            name="laufer2",
            parameter=("n", n),
            forward=("1/x", z1_glue, "y2/x"),
            backward=("1/w", "w**3*z1 - w*z2**2 - z2**(2*n+1)*w**(-2*n)",
                      "z2/w"),
            v_chart1=(
                "x**3*y1 + x*y2**(2*n+1)",
                "x*y1 + y2**(2*n+1)",
                f"y1 + (y2**(2*n+1) - y2*({z1_glue})**n)/x",
                f"y1*y2 + (y2**(2*n+2) - ({z1_glue})**(n+1))/x",
            ),
            v_chart2=(
                "z1",
                "w**2*z1 - z2**2",
                "w**3*z1 - w*z2**2 - z1**n*z2",
                "w**2*z1*z2 - z2**3 - w*z2**(n+1)",
            ),
            equation="v4**2 + v2**3 - v1*v3 - v1**(2*n+1)*v2",
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
            k=k, n=n,
        )
    else:
        raise CrepantError(f"unknown geometry {name!r}")
    if overrides:
        geo = _apply_overrides(geo, overrides)
    return geo


# ---------------------------------------------------------------------------
# Sampling and reports

class IdentityResult(namedtuple("IdentityResult",
                                "name status trials failures counterexamples",
                                defaults=((),))):
    """``status`` is "holds" or "fails"; each counterexample is a pair of
    (var, value string) pairs and residual strings."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport",
                                    "geometry seed identities")):
    __slots__ = ()

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
        return json_text(data)


_MAX_COUNTEREXAMPLES = 5


def _rational(rng: random.Random, nonzero: bool = False) -> tuple[int, int]:
    """The pair (randint(-10**4, 10**4), randint(1, 10**4)), drawn as
    ``randint`` draws it: ``getrandbits`` of the width's bit length,
    rejected until below the width (20001 in 15 bits, 10000 in 14)."""
    getrandbits = rng.getrandbits
    while True:
        num = getrandbits(15)
        while num >= 20001:
            num = getrandbits(15)
        if nonzero and num == 10 ** 4:
            continue
        den = getrandbits(14)
        while den >= 10 ** 4:
            den = getrandbits(14)
        return num - 10 ** 4, den + 1


def _points(rng: random.Random, symbols, trials: int, nonzero=()) -> list[tuple]:
    """Points as tuples of (num, den) pairs, one per symbol, in symbol
    order."""
    return [tuple(_rational(rng, nonzero=s in nonzero) for s in symbols)
            for _ in range(trials)]


# exact arithmetic on unreduced pairs (num, den), den != 0 of either sign;
# dividing by a value whose numerator is 0 raises ZeroDivisionError, as
# Fraction does

def _add(p, q):
    (a, b), (c, d) = p, q
    return (a + c, b) if b == d else (a * d + c * b, b * d)


def _sub(p, q):
    (a, b), (c, d) = p, q
    return (a - c, b) if b == d else (a * d - c * b, b * d)


def _mul(p, q):
    (a, b), (c, d) = p, q
    return a * c, b * d


def _div(p, q):
    (a, b), (c, d) = p, q
    if not c:
        raise ZeroDivisionError("division by zero")
    return a * d, b * c


def _pow(p, e: int):
    a, b = p
    if e >= 0:
        return a ** e, b ** e
    if not a:
        raise ZeroDivisionError("zero to a negative power")
    return b ** -e, a ** -e


def _neg(p):
    return -p[0], p[1]


def _text(p) -> str:
    """The pair as ``str(Fraction(num, den))`` prints it: reduced, the sign
    on the numerator, and no denominator when it is 1; exact at any length,
    past the interpreter's limit on decimal digits too."""
    num, den = p
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return _text((num, den))
        finally:
            sys.set_int_max_str_digits(limit)


# the arithmetic of each ``ast`` operator, by class name
_UNARY = {"USub": _neg}
_BINARY = {"Add": _add, "Sub": _sub, "Mult": _mul, "Div": _div,
           "Pow": _pow}
_MAX_DEPTH = 500  # at one frame per level, well below the recursion limit
# the size gate: a bound on the bits of a value's numerator and denominator,
# from a sampled coordinate's 15 (|num| and den are at most 10**4); past
# _MAX_BITS (about 39,000 decimal digits) an override is refused unsampled
_COORD_BITS = 15
_MAX_BITS = 1 << 17


@lru_cache(maxsize=4096)
def _compile(text: str, coords: tuple, k=None, n=None, max_bits=math.inf):
    """A closure mapping a tuple of (num, den) values of ``coords`` to the
    exact value of ``text`` as a (num, den) pair, evaluated as written;
    memoized, so a text used by several identities compiles once.  A text
    whose size bound passes ``max_bits`` raises ``CrepantError``.

    The text is parsed as ``ast.parse`` parses it, by the same builtin
    ``compile`` call, so the tree and every ``SyntaxError`` are the same
    without importing ``ast``."""
    import _ast
    try:
        tree = compile(text.strip().replace("^", "**"), "<unknown>", "eval",
                       _ast.PyCF_ONLY_AST, True)
        value, _ = _walk(tree.body, coords, {"k": k, "n": n}, max_bits, 0)
    except ZeroDivisionError:
        raise CrepantError(f"{text!r} divides by zero") from None
    except OverflowError:
        raise CrepantError(f"{text!r} is too large to evaluate: its values"
                           f" may need more than {max_bits} bits") from None
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise CrepantError(f"cannot parse expression {text!r}:"
                           f" {exc or 'nested too deeply'}") from None
    return value if callable(value) else _constant(value)


def _constant(pair):
    return lambda _: pair


def _walk(node, coords, params, max_bits, depth):
    """The (num, den) value of a constant subtree, else a closure, with a
    bound on the bits of its numerator and denominator: ``*`` and ``/`` add
    the operands' bounds, ``+`` and ``-`` add them plus 1, and ``**e``
    multiplies by |e|.  A bound past ``max_bits`` raises ``OverflowError``
    before anything is folded."""
    import _ast
    if depth > _MAX_DEPTH:
        raise CrepantError(f"expression nested deeper than {_MAX_DEPTH}")
    if isinstance(node, _ast.Constant) and type(node.value) is int:
        return (node.value, 1), node.value.bit_length()
    if isinstance(node, _ast.Name):
        if node.id in coords:
            return operator.itemgetter(coords.index(node.id)), _COORD_BITS
        if params.get(node.id) is not None:
            return (params[node.id], 1), params[node.id].bit_length()
        raise CrepantError(f"{node.id} is not one of the coordinates"
                           f" {', '.join(coords)}")
    if isinstance(node, _ast.UnaryOp) and type(node.op) is _ast.UAdd:
        return _walk(node.operand, coords, params, max_bits, depth + 1)
    if isinstance(node, _ast.UnaryOp) and type(node.op).__name__ in _UNARY:
        op, args = _UNARY[type(node.op).__name__], (node.operand,)
    elif isinstance(node, _ast.BinOp) and type(node.op).__name__ in _BINARY:
        op, args = _BINARY[type(node.op).__name__], (node.left, node.right)
    else:
        import ast
        raise CrepantError(f"cannot evaluate {ast.unparse(node)} exactly: only"
                           " integers, + - * / and integer powers are allowed")
    parts, sizes = [], []
    for arg in args:  # a loop, not a comprehension: one frame per level
        part, size = _walk(arg, coords, params, max_bits, depth + 1)
        parts.append(part)
        sizes.append(size)
    if op is _pow:
        if callable(parts[1]) or parts[1][0] % parts[1][1]:
            import ast
            raise CrepantError(f"cannot evaluate {ast.unparse(node)} exactly:"
                               " the exponent is not an integer")
        parts[1] = parts[1][0] // parts[1][1]
        bits = sizes[0] * abs(parts[1])
    else:
        bits = sum(sizes) + (op is _add or op is _sub)
    if bits > max_bits:
        raise OverflowError
    if not any(map(callable, parts)):
        return op(*parts), bits
    if op is _pow:
        base, exponent = parts
        return lambda vals: _pow(base(vals), exponent), bits
    fns = [p if callable(p) else _constant(p) for p in parts]
    if len(fns) == 1:
        return lambda vals: op(fns[0](vals)), bits
    left, right = fns
    return lambda vals: op(left(vals), right(vals)), bits


def _compile_all(geo: GluedThreefold, texts, coords):
    fns = tuple(_compile(t, coords, geo.k, geo.n) for t in texts)
    return lambda vals: tuple([fn(vals) for fn in fns])


# residual builders: each compiles its expressions once and returns a
# function from a sampled point to the list of residuals

def _transition_residual(geo: GluedThreefold):
    forward = _compile_all(geo, geo.forward, CHART1)
    backward = _compile_all(geo, geo.backward, CHART2)
    return lambda p: list(map(_sub, backward(forward(p)), p))


def _agreement_residual(geo: GluedThreefold, i: int):
    forward = _compile_all(geo, geo.forward, CHART1)
    wz = _compile(geo.v_chart2[i], CHART2, geo.k, geo.n)
    xy = _compile(geo.v_chart1[i], CHART1, geo.k, geo.n)
    return lambda p: [_sub(wz(forward(p)), xy(p))]


def _equation_residual(geo: GluedThreefold, chart: int):
    vs = (_compile_all(geo, geo.v_chart1, CHART1) if chart == 1
          else _compile_all(geo, geo.v_chart2, CHART2))
    equation = _compile(geo.equation, V_COORDS, geo.k, geo.n)
    return lambda p: [equation(vs(p))]


def _act(weights, scalars, values):
    """Each value times the monomial in the nonzero scalars that its
    weight row gives."""
    return tuple(reduce(_mul, map(_pow, scalars, wv), val)
                 for wv, val in zip(weights, values))


def _equivariance_residual(geo: GluedThreefold):
    act = geo.action
    forward = _compile_all(geo, geo.forward, CHART1)

    def residual(p):
        coords, scalars = p[:3], p[3:]
        lhs = forward(_act(act.chart1_weights, scalars, coords))
        rhs = _act(act.chart2_weights, scalars, forward(coords))
        return list(map(_sub, lhs, rhs))
    return residual


def _run_identity(name, residual, symbols, points) -> IdentityResult:
    """Count the points with a nonzero residual; format only the first
    ``_MAX_COUNTEREXAMPLES`` of them."""
    failures = 0
    examples = []
    for point in points:
        try:
            res = residual(point)
        except ZeroDivisionError:
            res = None
        if res is not None and not any(num for num, _ in res):
            continue
        failures += 1
        if len(examples) < _MAX_COUNTEREXAMPLES:
            text = ["zoo"] if res is None else list(map(_text, res))
            examples.append((tuple(sorted(zip(symbols, map(_text, point)))),
                             text))
    status = "holds" if not failures else "fails"
    return IdentityResult(name, status, len(points), failures, tuple(examples))


def verify_transition(geo: GluedThreefold, trials: int,
                      seed: int = 0) -> VerificationReport:
    """Round-trip chart 1 -> chart 2 -> chart 1 at random overlap points."""
    if trials < 1:
        raise CrepantError("need at least one trial")
    points = _points(random.Random(seed), CHART1, trials, nonzero=("x",))
    result = _run_identity("transition_roundtrip", _transition_residual(geo),
                           CHART1, points)
    return VerificationReport(geo.label(), seed, (result,))


def verify_contraction(geo: GluedThreefold, trials: int,
                       seed: int = 0) -> VerificationReport:
    """Chart agreement of each v_i and the target equation on both charts."""
    if trials < 1:
        raise CrepantError("need at least one trial")
    rng = random.Random(seed)
    identities = []

    def run(name, residual, symbols, nonzero):
        points = _points(rng, symbols, trials, nonzero=nonzero)
        identities.append(_run_identity(name, residual, symbols, points))

    for i in range(4):
        run(f"v{i + 1}_chart_agreement", _agreement_residual(geo, i),
            CHART1, ("x",))
    run("equation_chart1", _equation_residual(geo, 1), CHART1, ("x",))
    run("equation_chart2", _equation_residual(geo, 2), CHART2, ("w",))
    return VerificationReport(geo.label(), seed, tuple(identities))


def verify_equivariance(geo: GluedThreefold, trials: int,
                        seed: int = 0) -> VerificationReport:
    """transition(action(p)) == action(transition(p)) at random points."""
    if trials < 1:
        raise CrepantError("need at least one trial")
    if geo.action is None:
        raise CrepantError(f"geometry {geo.name} carries no torus action")
    rng = random.Random(seed)
    torus = ("t1", "t2")[:geo.action.rank] if geo.action.rank > 1 else ("t",)
    points = _points(rng, CHART1 + torus, trials, nonzero=("x",) + torus)
    result = _run_identity("equivariance", _equivariance_residual(geo),
                           CHART1 + torus, points)
    return VerificationReport(geo.label(), seed, (result,))
