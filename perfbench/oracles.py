"""Independent oracles for the benchmark's op outputs.

Nothing here imports crepant: every expected value is recomputed from a
closed product formula or a published table, and each ``check_*`` function
parses the op's stdout and returns ``None`` when it agrees, else a one-line
reason.
"""

from __future__ import annotations

import json
import math

# local P2: genus-0 and genus-1 Gopakumar-Vafa invariants by degree
P2_GV = {(0, 1): 3, (0, 2): -6, (0, 3): 27, (0, 4): -192, (0, 5): 1695,
         (0, 6): -17064, (1, 1): 0, (1, 2): 0, (1, 3): -10, (1, 4): 231}


def _binomial(e: int, j: int) -> int:
    """Generalized binomial coefficient C(e, j) for any integer e."""
    num = 1
    for i in range(j):
        num *= e - i
    return num // math.factorial(j)


def expand_product(nvars: int, order: int, factors) -> dict:
    """prod (1 + c * x^exps)^power truncated at total degree ``order``."""
    result = {(0,) * nvars: 1}
    for c, exps, power in factors:
        deg = sum(exps)
        if deg > order:
            continue
        factor = {tuple(j * e for e in exps): _binomial(power, j) * c ** j
                  for j in range(order // deg + 1)}
        new: dict = {}
        for e1, a in result.items():
            d1 = sum(e1)
            for e2, b in factor.items():
                if d1 + sum(e2) <= order and b:
                    e = tuple(x + y for x, y in zip(e1, e2))
                    new[e] = new.get(e, 0) + a * b
        result = {e: v for e, v in new.items() if v}
    return result


def macmahon(order: int) -> dict:
    """Plane partitions by size: prod_k (1 - q^k)^(-k)."""
    return expand_product(1, order, [(-1, (k,), -k)
                                     for k in range(1, order + 1)])


def conifold_pyramids(order: int) -> dict:
    """Two-colour pyramid partitions, the closed product form."""
    factors = []
    for k in range(1, order + 2):
        factors += [(1, (k, k - 1), k), (1, (k, k + 1), k), (-1, (k, k), -2 * k)]
    return expand_product(2, order, factors)


def square_product(order: int, t_order: int) -> dict:
    """prod_k (1 - Q t^(2k))^k through Q^order and t^t_order, as {(d, e): c}."""
    factors = [(-1, (1, 2 * k), k) for k in range(1, t_order // 2 + 1)]
    series = expand_product(2, order + t_order, factors)
    return {e: c for e, c in series.items() if e[0] <= order and e[1] <= t_order}


# ---------------------------------------------------------------------------
# output parsers

def _series_terms(text: str) -> tuple[int, dict]:
    """(order, {exponents: coeff}) from series text or ncdt --json output."""
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        return data["order"], {tuple(t["exponents"]): t["coeff"]
                               for t in data["terms"]}
    lines = text.splitlines()
    order = int(lines[0].rpartition("\t")[2])
    terms = {}
    for line in lines[1:]:
        exps, _, coeff = line.rpartition("\t")
        terms[tuple(int(e) for e in exps.split())] = int(coeff)
    return order, terms


def _signed(terms: dict, sign: str) -> dict:
    if sign == "unsigned":
        return terms
    return {e: c * (-1) ** sum(e) for e, c in terms.items()}


def _gv_rows(text: str) -> dict:
    if text.lstrip().startswith("["):
        return {(r["genus"], r["degree"]): r["n"] for r in json.loads(text)}
    rows = {}
    for line in text.splitlines()[1:]:
        gd, _, n = line.partition("\t")
        g, d = gd.split()
        rows[(int(g), int(d))] = int(n)
    return rows


def _identities(text: str) -> dict:
    return {r["identity"]: r["status"] for r in json.loads(text)["identities"]}


# ---------------------------------------------------------------------------
# checks: None when the output agrees with the oracle

def check_macmahon(text: str, sign: str) -> str | None:
    """Box stacks (c3 or any C^3/Z_n), collapsed by size, against MacMahon."""
    order, terms = _series_terms(text)
    collapsed: dict = {}
    for e, c in terms.items():
        collapsed[(sum(e),)] = collapsed.get((sum(e),), 0) + c
    collapsed = {e: c for e, c in collapsed.items() if c}
    if collapsed != _signed(macmahon(order), sign):
        return f"collapsed series differs from MacMahon through order {order}"
    return None


def check_pyramids(text: str, sign: str) -> str | None:
    order, terms = _series_terms(text)
    if terms != _signed(conifold_pyramids(order), sign):
        return f"pyramid series differs from the product form at order {order}"
    return None


def check_square(text: str, t_order: int) -> str | None:
    order, terms = _series_terms(text)
    got = {e: c for e, c in terms.items() if e[1] <= t_order}
    if got != square_product(order, t_order):
        return "square partition function differs from prod (1 - Q q^k)^k"
    return None


def check_p2_gv(text: str) -> str | None:
    rows = _gv_rows(text)
    degree = max(d for _, d in rows)
    for (g, d), n in P2_GV.items():
        if d <= degree and rows.get((g, d), 0) != n:
            return f"local P2 n[{g},{d}] = {rows.get((g, d), 0)}, expected {n}"
    return None


def check_conifold_gv(text: str) -> str | None:
    if _gv_rows(text) != {(0, 1): 1}:
        return "conifold invariants are not exactly n[0,1] = 1"
    return None


def check_geometry_holds(text: str) -> str | None:
    failing = sorted(k for k, v in _identities(text).items() if v != "holds")
    return f"identities fail: {failing}" if failing else None


def check_laufer2_printed(text: str) -> str | None:
    status = _identities(text)
    agreement = {k for k, v in status.items()
                 if k.endswith("_chart_agreement") and v != "holds"}
    if agreement != {"v1_chart_agreement", "v4_chart_agreement"}:
        return f"chart agreements failing: {sorted(agreement)}, expected v1, v4"
    if status.get("transition_roundtrip") != "holds" \
            or status.get("equivariance") != "holds":
        return "laufer2 transition or equivariance no longer holds"
    return None


def check_laufer2_override(text: str) -> str | None:
    if _identities(text).get("equation_chart2") != "holds":
        return "corrected laufer2 does not verify equation_chart2"
    return None
