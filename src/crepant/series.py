"""Truncated multivariate power series over an exact coefficient ring.

Everything is exact: truncation is by total degree, and a term dropped at
the truncation never reappears.  Coefficients are Python ints for crystal
counts, and any exact ring element with ``+``, ``*``, unary ``-``, a truth
value that is false for zero and left multiplication by a scalar otherwise
(``vertex.GWSeries`` takes Laurent series in t).  The text format (one term
per line, graded-lex order) is byte-stable, so two runs producing the same
series produce the same bytes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from .errors import CrepantError


def general_binomial(e: int, j: int) -> int:
    """Binomial coefficient C(e, j) for any integer e and j >= 0."""
    if j < 0:
        return 0
    if e >= 0:
        return math.comb(e, j)
    return (-1) ** j * math.comb(-e + j - 1, j)


class FormalSeries:
    """A power series in named variables, truncated at a fixed total degree.

    ``terms`` maps exponent tuples (one entry per variable, all >= 0) to
    nonzero coefficients.  Arithmetic stays inside the truncation and
    returns the class of its left operand.
    """

    __slots__ = ("vars", "order", "terms")

    def __init__(self, vars: Iterable[str], order: int,
                 terms: Mapping[tuple, object] | None = None):
        self.vars = tuple(vars)
        if order < 0:
            raise CrepantError("truncation order must be nonnegative")
        self.order = order
        clean: dict[tuple, object] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(self.vars):
                raise CrepantError(
                    f"exponent vector {exps} does not match variables {self.vars}")
            if any(e < 0 for e in exps):
                raise CrepantError(f"negative exponent in {exps}")
            if coeff and sum(exps) <= order:
                clean[exps] = clean[exps] + coeff if exps in clean else coeff
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def one(cls, vars: Iterable[str], order: int) -> "FormalSeries":
        vars = tuple(vars)
        return cls(vars, order, {(0,) * len(vars): 1})

    def _check_compatible(self, other: "FormalSeries") -> None:
        if self.vars != other.vars or self.order != other.order:
            raise CrepantError("series have different variables or truncation")

    def coefficient(self, exps: tuple):
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, self.order, frozenset(self.terms.items())))

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms[exps] + coeff if exps in terms else coeff
        return type(self)(self.vars, self.order, terms)

    def __neg__(self) -> "FormalSeries":
        return type(self)(self.vars, self.order,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self + (-other)

    def scale(self, c) -> "FormalSeries":
        """Every coefficient multiplied on the left by the scalar ``c``."""
        return type(self)(self.vars, self.order,
                          {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        terms: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > self.order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                terms[e] = terms[e] + prod if e in terms else prod
        return type(self)(self.vars, self.order, terms)

    __rmul__ = __mul__

    def collapse(self, var: str = "q") -> "FormalSeries":
        """Forget the variable refinement: send every variable to ``var``."""
        terms: dict[tuple, object] = {}
        for exps, coeff in self.terms.items():
            e = (sum(exps),)
            terms[e] = terms[e] + coeff if e in terms else coeff
        return type(self)((var,), self.order, terms)

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        """Terms in graded lexicographic order of the exponent vectors."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))

    def to_text(self) -> str:
        lines = [" ".join(self.vars) + "\t" + str(self.order)]
        for exps, coeff in self.sorted_terms():
            lines.append(" ".join(str(e) for e in exps) + "\t" + str(coeff))
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return (f"{type(self).__name__}(vars={self.vars}, order={self.order},"
                f" {len(self.terms)} terms)")


def product_series(vars: Iterable[str], order: int,
                   factors: Iterable[tuple[int, tuple, int]]) -> FormalSeries:
    """Truncated expansion of prod (1 + c * x^exps)^power over the factors.

    Each factor is a triple ``(c, exps, power)`` with ``x^exps`` a
    nonconstant monomial; ``power`` may be negative (generalized binomial
    expansion, exact integers throughout).  Factors whose monomial degree
    exceeds the truncation contribute nothing and are skipped.
    """
    vars = tuple(vars)
    result = FormalSeries.one(vars, order)
    for coeff, exps, power in factors:
        exps = tuple(int(e) for e in exps)
        deg = sum(exps)
        if deg <= 0:
            raise CrepantError("factor monomial must be nonconstant")
        if deg > order or power == 0:
            continue
        terms: dict[tuple, int] = {}
        for j in range(order // deg + 1):
            c = general_binomial(power, j) * coeff ** j
            if c:
                terms[tuple(j * e for e in exps)] = c
        result = result * FormalSeries(vars, order, terms)
    return result
