"""Topological vertex amplitudes and local GW partition functions.

All q-series use the substitution q = t**2 so every amplitude is a Laurent
series in t with integer coefficients.  A TSeries knows the largest
exponent it is exact through, and arithmetic propagates that bound
honestly, so a result is never silently less precise than reported.  It is
stored dense, as an offset and a list of coefficients.  A product by a
one-term series (a framing monomial, the amplitude 1, a kernel's first
factor) is a scaled copy of the other list.  Any other product is one
big-integer multiply (Kronecker substitution): each int factor is packed
into one int with a slot per coefficient wide enough for any coefficient of
the product, and the slots of the truncated product are read back (over
t^2 when both factors are series in t^2).

The principal specialization s_lambda(q^rho) is the hook product
t^(2n(lambda)+|lambda|) / prod_cells (1 - t^(2 hook)), built without a
product: dividing by 1 - t^(2h) is a running sum with stride 2h over the
coefficient list, one per hook.  Skew Schur
specializations at staircases shifted down by a partition are evaluated by
the horizontal-strip chain expansion over finitely many variables, each
state of the chain one packed nonnegative int over a fixed window of
exponents, so a step is a shift, a mask and an add.  The vertex amplitude is

    C(lam, mu, nu) = t^(kappa(lam)+kappa(nu)) * s_nu(q^rho)
        * sum_eta s_{lam/eta}(x_i = t^(2i-1-2nu'_i))
                  s_{mu'/eta}(x_i = t^(2i-1-2nu_i))

which is cyclically symmetric in (lam, mu, nu); the public entry point
rotates the arguments to the least rotation.  Gluing over a web lists the
slots at each node counterclockwise, takes the transpose at an edge's
second node, and weights an internal edge by
(-1)^((n+1)|lam|) t^(-n kappa(lam)) Q^|lam| with n the stored framing.
These conventions are locked by the conifold product formula and the local
P2 invariants (3, -6, 27 at genus 0 and -10 at genus 1, degree 3).

A glue builds no intermediate series.  Every amplitude has nonnegative
coefficients at exponents of one parity, so each distinct amplitude is
packed once, over t^2, into one nonnegative int, with one slot width for
the whole glue: nothing cancels, so a coefficient of a Q-degree is at most
the sum over its summands of the product of their amplitudes' coefficient
sums.  A summand is then a chain of plain int multiplies, each masked at
the cutoff the TSeries rules give it, and each Q-degree is a shift-and-add
of its summands, unpacked once with the framing sign they share.

The working t-cutoff of a gluing is planned before any coefficient is
computed: every amplitude has nonnegative coefficients, so valuations and
the cutoff rules of TSeries arithmetic give the precision one _glue
reaches at a given cutoff, and the web is glued once, at the first margin
8, 16, 32, ... past the requested precision that reaches it.  The plan
profiles each summand once: from a threshold cutoff up, where nothing in it
truncates to zero, it is exact through the cutoff plus a fixed offset, so a
margin's precision is a minimum over that table, with only the summands
still below their thresholds walked at that cutoff.

The GW free energy is summed over the integers as L log Z, L =
lcm(1..order), and GV extraction divides each invariant by L once, checking
that the division is exact.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from itertools import accumulate, product, repeat
from operator import add, and_, lshift, or_, rshift, sub
from types import MappingProxyType

from .errors import CrepantError
from .series import FormalSeries
from .toric import DualWeb

Partition = tuple[int, ...]


class PrecisionError(CrepantError):
    """A series is not exact through enough powers of t for the result
    asked of it."""


# ---------------------------------------------------------------------------
# Partitions

def check_partition(p) -> Partition:
    p = tuple(int(x) for x in p)
    if any(a <= 0 for a in p) or any(a < b for a, b in zip(p, p[1:])):
        raise CrepantError(f"{p} is not a partition")
    return p


def psize(p: Partition) -> int:
    return sum(p)


def transpose(p: Partition) -> Partition:
    if not p:
        return ()
    out = [0] * p[0]
    for row in p:
        for j in range(row):
            out[j] += 1
    return tuple(out)


def n_stat(p: Partition) -> int:
    """n(lambda) = sum (i-1) lambda_i over rows i >= 1."""
    return sum(i * row for i, row in enumerate(p))


def kappa(p: Partition) -> int:
    """kappa(lambda) = 2 sum_{cells} (j - i); flips sign under transpose."""
    return sum(row * (row - 2 * i - 1) for i, row in enumerate(p))


def hooks(p: Partition) -> list[int]:
    t = transpose(p)
    return [p[i] - j + t[j] - i - 1
            for i in range(len(p)) for j in range(p[i])]


def partitions_of(n: int):
    """All partitions of n, lexicographically decreasing."""
    if n == 0:
        yield ()
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def subdiagrams(p: Partition) -> list[Partition]:
    """All partitions whose diagram fits inside the diagram of p."""
    res: set[Partition] = set()

    def rec(i, prev, acc):
        res.add(tuple(acc))
        if i == len(p):
            return
        for v in range(1, min(p[i], prev) + 1):
            rec(i + 1, v, acc + [v])

    rec(0, p[0] if p else 0, [])
    return sorted(res, key=lambda mu: (psize(mu), mu))


# ---------------------------------------------------------------------------
# Truncated Laurent series in t

class TSeries:
    """Laurent series in t, exact through exponent ``cutoff`` (None = exact).

    Stored dense: ``data[i]`` is the coefficient of t^(offset + i), the
    first and last entries are nonzero, nothing above the cutoff is kept and
    the zero series has no data (and offset 0).  A list is never changed
    once it backs a series, so a shifted series shares its data.
    Products take int coefficients (a packed product raises TypeError on
    any other); sums, ``scale``, ``shift`` and ``truncate`` take any exact
    numbers.
    """

    __slots__ = ("offset", "data", "cutoff")

    def __init__(self, coeffs=None, cutoff=None):
        kept = {int(e): c for e, c in (coeffs or {}).items()
                if c and (cutoff is None or e <= cutoff)}
        self.cutoff = cutoff
        self.offset = min(kept, default=0)
        self.data = [0] * (max(kept) - self.offset + 1) if kept else []
        for e, c in kept.items():
            self.data[e - self.offset] = c

    @classmethod
    def _dense(cls, offset: int, data: list, cutoff) -> "TSeries":
        """The series sum data[i] t^(offset+i), cut at the cutoff and trimmed."""
        if cutoff is not None and len(data) > cutoff - offset + 1:
            data = data[:max(cutoff - offset + 1, 0)]
        lo, hi = 0, len(data)
        while hi and not data[hi - 1]:
            hi -= 1
        while lo < hi and not data[lo]:
            lo += 1
        if lo or hi < len(data):
            data = data[lo:hi]
        out = cls.__new__(cls)
        out.offset = offset + lo if data else 0
        out.data = data
        out.cutoff = cutoff
        return out

    @classmethod
    def zero(cls, cutoff=None):
        return cls._dense(0, [], cutoff)

    @classmethod
    def one(cls, cutoff=None):
        return cls._dense(0, [1], cutoff)

    @classmethod
    def monomial(cls, e: int, c=1, cutoff=None):
        return cls._dense(e, [c], cutoff)

    @property
    def coeffs(self):
        """Read-only {exponent: coefficient} view of the nonzero terms."""
        o = self.offset
        return MappingProxyType({o + i: c for i, c in enumerate(self.data) if c})

    def valuation(self):
        return self.offset if self.data else None

    def __bool__(self) -> bool:
        return bool(self.data)

    def __add__(self, other: "TSeries") -> "TSeries":
        cutoff = _min_cutoff(self.cutoff, other.cutoff)
        a, b = self.data, other.data
        o1, o2 = self.offset, other.offset
        if not b:
            return TSeries._dense(o1, a, cutoff)
        if not a:
            return TSeries._dense(o2, b, cutoff)
        if o1 > o2:
            a, b, o1, o2 = b, a, o2, o1
        d = o2 - o1
        n = max(len(a), d + len(b))
        if cutoff is not None:
            n = min(n, cutoff - o1 + 1)
        out = a[:n]
        out.extend([0] * (n - len(out)))
        if d < n:
            m = min(len(b), n - d)
            out[d:d + m] = map(add, out[d:d + m], b[:m])
        return TSeries._dense(o1, out, cutoff)

    def __neg__(self) -> "TSeries":
        return TSeries._dense(self.offset, [-c for c in self.data], self.cutoff)

    def __sub__(self, other: "TSeries") -> "TSeries":
        return self + (-other)

    def __mul__(self, other: "TSeries") -> "TSeries":
        a, b = self.data, other.data
        cutoff = _product_cutoff((self.valuation(), self.cutoff),
                                 (other.valuation(), other.cutoff))
        if not a or not b:
            return TSeries._dense(0, [], cutoff)
        offset = self.offset + other.offset
        n = len(a) + len(b) - 1
        if cutoff is not None:
            n = min(n, cutoff - offset + 1)
        return TSeries._dense(offset, _convolve(a, b, n), cutoff)

    def scale(self, c) -> "TSeries":
        return TSeries._dense(self.offset, [c * v for v in self.data],
                              self.cutoff)

    __rmul__ = scale

    def shift(self, k: int) -> "TSeries":
        out = TSeries.__new__(TSeries)
        out.offset = self.offset + k if self.data else 0
        out.data = self.data
        out.cutoff = None if self.cutoff is None else self.cutoff + k
        return out

    def truncate(self, cutoff: int) -> "TSeries":
        return TSeries._dense(self.offset, self.data,
                              _min_cutoff(self.cutoff, cutoff))

    def coefficient(self, e: int):
        i = e - self.offset
        return self.data[i] if 0 <= i < len(self.data) else 0

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.offset == other.offset \
            and self.data == other.data


def _min_cutoff(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _product_cutoff(a, b):
    """The cutoff of a product of two series, each given as its (valuation,
    cutoff) pair: None for the valuation of a zero series and for an exact
    cutoff.

    The error of one factor, O(t^(K + 1)), is scaled by the lowest term of
    the other, so the product is exact through K1 + v2 and K2 + v1.  A zero
    series exact through K is itself O(t^(K + 1)), so it counts as lowest
    term K + 1: zero through K times valuation v is exact through K + v,
    and zero times zero through K1 + K2 + 1.  An exact zero factor makes the
    product exactly zero.
    """
    (v1, k1), (v2, k2) = a, b
    if (v1 is None and k1 is None) or (v2 is None and k2 is None):
        return None
    if v1 is None:
        v1 = k1 + 1
    if v2 is None:
        v2 = k2 + 1
    return _min_cutoff(None if k1 is None else k1 + v2,
                       None if k2 is None else k2 + v1)


def _convolve(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of int coefficient lists a, b.

    A one-term factor scales a copy of the other list; two series in t^2
    are multiplied over t^2; anything else is one packed product.
    """
    if n <= 0:
        return []
    if len(a) == 1 or len(b) == 1:
        c, b = (a[0], b) if len(a) == 1 else (b[0], a)
        return b[:n] if c == 1 else [c * x for x in b[:n]]
    if not any(a[1::2]) and not any(b[1::2]):
        # both are series in t^2 (q = t^2 makes that the common case)
        out = [0] * n
        out[::2] = _convolve(a[::2], b[::2], (n + 1) // 2)
        return out
    return _kronecker(a, b, n)


def _kronecker(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product, by Kronecker substitution.

    Both int lists are packed into one int apiece with a slot of k bytes per
    coefficient, multiplied once, and the first n slots of the product are
    read back.  A product coefficient is a sum of at most min(len(a), len(b))
    terms, so |c| < 2**(bits - 1) with bits as computed below, the least
    width that always holds it as a signed slot; k rounds bits up to 1, 2,
    4, 8, 16, ... bytes.  Adding half a slot to every coefficient makes the
    slots nonnegative, so each is read on its own.
    """
    a, b = a[:n], b[:n]
    bits = _magnitude_bits(a) + _magnitude_bits(b) + \
        min(len(a), len(b)).bit_length() + 1
    k = _slot_bytes(bits)
    packed = _pack_signed(a, k) * _pack_signed(b, k)
    return list(map(sub, _unpack(packed + _halves(k, n), k, n),
                    repeat(1 << (8 * k - 1))))


def _magnitude_bits(ints: list) -> int:
    return int.bit_length(max(max(ints), -min(ints)))


# Packed ints are read and written in words of 1, 2, 4 or 8 bytes; a slot
# wider than 8 bytes is several 8-byte words, least significant first.
_WORD_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}
_WORD_MASK = (1 << 64) - 1


def _slot_bytes(bits: int) -> int:
    """The least of 1, 2, 4, 8, 16, ... bytes that holds ``bits`` bits."""
    k = 1
    while 8 * k < bits:
        k *= 2
    return k


def _halves(k: int, n: int) -> int:
    """n slots of k bytes, each holding half a slot, 2**(8k - 1)."""
    return int.from_bytes((1 << (8 * k - 1)).to_bytes(k, "little") * n,
                          "little")


def _pack_signed(ints: list, k: int) -> int:
    """sum ints[i] * 256**(k*i), for |ints[i]| < 2**(8k - 1)."""
    half = 1 << (8 * k - 1)
    return _pack(list(map(add, ints, repeat(half))), k) - _halves(k, len(ints))


def _pack(values: list, k: int) -> int:
    """sum values[i] * 256**(k*i), for 0 <= values[i] < 256**k."""
    size = min(k, 8)
    w = k // size
    words = values
    if w > 1:
        words = [0] * (w * len(values))
        for j in range(w):
            words[j::w] = map(and_, map(rshift, values, repeat(64 * j)),
                              repeat(_WORD_MASK))
    try:
        packed = struct.pack(f"<{len(words)}{_WORD_FORMAT[size]}", *words)
    except struct.error as exc:  # what struct raises for a value not an int
        raise TypeError(exc) from None
    return int.from_bytes(packed, "little")


def _unpack(x: int, k: int, n: int) -> list:
    """The first n base-256**k digits of x (two's complement if negative)."""
    size = min(k, 8)
    w = k // size
    x &= (1 << (8 * k * n)) - 1
    words = struct.unpack(f"<{w * n}{_WORD_FORMAT[size]}",
                          x.to_bytes(k * n, "little"))
    out = words[w - 1::w]
    for j in range(w - 2, -1, -1):
        out = map(or_, map(lshift, out, repeat(64)), words[j::w])
    return list(out)


def schur_principal(p, cutoff: int) -> TSeries:
    """Principal specialization of the Schur function, via hooks and contents.

    Equals t^(2 n(lambda) + |lambda|) / prod_cells (1 - t^(2 hook)).
    """
    return _schur_principal(check_partition(p), cutoff)


@lru_cache(maxsize=None)
def _schur_principal(p: Partition, cutoff: int) -> TSeries:
    """Dividing by 1 - t^(2h) is a running sum with stride 2h, so the series
    is built in t^2 as one list, one strided prefix sum per hook."""
    low = 2 * n_stat(p) + psize(p)
    if cutoff < low:
        return TSeries.zero(cutoff)
    half = [1] + [0] * ((cutoff - low) // 2)
    for h in hooks(p):
        for r in range(min(h, len(half))):
            half[r::h] = accumulate(half[r::h])
    data = [0] * (2 * len(half) - 1)
    data[::2] = half
    return TSeries._dense(low, data, cutoff)


@lru_cache(maxsize=None)
def _strips(mu: Partition, alpha: Partition) -> tuple:
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


@lru_cache(maxsize=None)
def _skew_spec(alpha: Partition, eta: Partition, nu: Partition,
               cutoff: int) -> TSeries:
    """Skew Schur s_{alpha/eta} at x_i = t^(2i - 1 - 2 nu_i), i = 1, 2, ...

    The first len(nu) exponents may be negative; a horizontal strip uses a
    variable at most alpha_1 times, so working through cutoff plus the total
    achievable negativity keeps the truncation exact.  Variables beyond that
    window only contribute above the cutoff.

    Each state of the strip chain is one packed int over the exponents
    -max_neg..work, no exponent ever falling below -max_neg.  A coefficient
    counts semistandard tableaux of a shape inside alpha/eta with entries at
    most N, the number of variables, so N**|alpha/eta| bounds every slot.
    """
    if any(e > a for e, a in zip(eta, alpha)) or len(eta) > len(alpha):
        return TSeries.zero(cutoff)
    if not alpha:
        return TSeries.one(cutoff)
    exps = [2 * i - 1 - 2 * nu[i - 1] for i in range(1, len(nu) + 1)]
    max_neg = alpha[0] * sum(-e for e in exps if e < 0)
    if cutoff < -max_neg:
        return TSeries.zero(cutoff)
    work = cutoff + max_neg
    i = len(nu) + 1
    while 2 * i - 1 <= work:
        exps.append(2 * i - 1)
        i += 1
    k = _slot_bytes((len(exps) ** (psize(alpha) - psize(eta))).bit_length())
    slot = 8 * k
    window = (1 << ((work + max_neg + 1) * slot)) - 1
    states: dict[Partition, int] = {eta: 1 << (max_neg * slot)}
    for exp in exps:
        new: dict[Partition, int] = {}
        for mu, weight in states.items():
            for lam, gained in _strips(mu, alpha):
                shift = exp * gained
                if shift > work:
                    # past the cutoff for good: the exponents increase, so
                    # every later one is positive
                    continue
                if shift > 0:
                    shifted = (weight << (shift * slot)) & window
                elif shift < 0:
                    shifted = weight >> (-shift * slot)
                else:
                    shifted = weight
                new[lam] = new.get(lam, 0) + shifted
        states = new
    data = _unpack(states.get(alpha, 0), k, cutoff + max_neg + 1)
    return TSeries._dense(-max_neg, data, cutoff)


@lru_cache(maxsize=None)
def vertex_raw(lam, mu, nu, cutoff: int) -> TSeries:
    """The vertex amplitude for the arguments in the given order."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    mu_t, nu_t = transpose(mu), transpose(nu)
    inner = TSeries.zero(cutoff)
    cap = tuple(min(a, b) for a, b in zip(lam, mu_t))
    for eta in subdiagrams(cap):
        inner = inner + _skew_spec(lam, eta, nu_t, cutoff) * \
            _skew_spec(mu_t, eta, nu, cutoff)
    out = schur_principal(nu, cutoff) * inner if nu else inner
    return out.shift(kappa(lam) + kappa(nu))


def _least_rotation(lam, mu, nu) -> tuple:
    args = [tuple(lam), tuple(mu), tuple(nu)]
    return min(tuple(args[i:] + args[:i]) for i in range(3))


def vertex(lam, mu, nu, cutoff: int) -> TSeries:
    """Topological vertex amplitude, canonicalized over cyclic rotations."""
    return vertex_raw(*_least_rotation(lam, mu, nu), cutoff)


# ---------------------------------------------------------------------------
# GW series: Q-graded with TSeries coefficients

class GWSeries(FormalSeries):
    """A ``FormalSeries`` in Kaehler variables whose coefficients are
    ``TSeries`` (Laurent in t); its text format flattens t into one more
    exponent column."""

    __slots__ = ()

    @classmethod
    def one(cls, vars, order: int, cutoff=None):
        vars = tuple(vars)
        return cls.monomial(vars, order, (0,) * len(vars), 1, cutoff)

    @classmethod
    def monomial(cls, vars, order: int, exps, coeff=1, cutoff=None):
        """coeff * Q^exps, its coefficient the constant series coeff * t^0."""
        return cls(vars, order,
                   {tuple(exps): TSeries.monomial(0, coeff, cutoff)})

    def coefficient(self, exps) -> TSeries:
        return self.terms.get(tuple(exps), TSeries.zero())

    def min_cutoff(self):
        cuts = [ts.cutoff for ts in self.terms.values()]
        if not cuts or any(c is None for c in cuts):
            return None
        return min(cuts)

    def _lcm_log(self) -> tuple:
        """(L, L log Z) with L = lcm(1..order), for a series with constant
        term 1: the sum of (-1)^(k+1) (L / k) a^k over the integers."""
        c0 = self.coefficient((0,) * len(self.vars))
        if c0.coeffs != {0: 1}:
            raise CrepantError("log needs constant term exactly 1")
        a = GWSeries(self.vars, self.order,
                     {e: ts for e, ts in self.terms.items() if any(e)})
        out = GWSeries(self.vars, self.order)
        power = GWSeries.one(self.vars, self.order, cutoff=self.min_cutoff())
        lcm = math.lcm(*range(1, self.order + 1))
        for k in range(1, self.order + 1):
            power = power * a
            out = out + power.scale((-1) ** (k + 1) * (lcm // k))
        return lcm, out

    def sorted_terms(self):
        rows = []
        for exps, ts in self.terms.items():
            for e, c in ts.coeffs.items():
                rows.append((exps + (e,), c))
        rows.sort(key=lambda row: (sum(row[0]), row[0]))
        return rows

    def to_text(self) -> str:
        names = " ".join(self.vars + ("t",))
        lines = [names + "\t" + str(self.order)]
        for exps, coeff in self.sorted_terms():
            if coeff != int(coeff):
                raise CrepantError("text format needs integer coefficients")
            lines.append(" ".join(str(e) for e in exps) + "\t" + str(int(coeff)))
        return "\n".join(lines) + "\n"


def gw_partition_function(web: DualWeb, order: int, t_cutoff: int = 20,
                          reverse_edges: bool = False) -> GWSeries:
    """Sum over partition assignments to the internal edges of a web.

    ``order`` truncates the total Q-degree; the result's t-coefficients are
    exact at least through ``t_cutoff``.  ``reverse_edges`` evaluates with
    every edge orientation flipped (transposes and framing signs swapped),
    an independent evaluation order that must give the same series.
    """
    if not web.is_balanced():
        raise CrepantError("web is not balanced")
    edges = list(web.edges)
    qvars = tuple(e.var for e in edges)
    if not edges:
        return GWSeries.one(qvars, order, cutoff=None)
    summands = _summands(web, edges, qvars, order, reverse_edges)
    cutoff = _plan_cutoff(summands, order, t_cutoff)
    return _glue(qvars, order, summands, cutoff)


def _summands(web, edges, qvars, order, reverse_edges) -> list:
    """One entry per partition assignment to the edges: its Q-degrees, the
    sign and t-shift of its framing factor, and the vertex arguments at each
    node (slots counterclockwise, transposed at an edge's head)."""
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


def _glue(qvars, order, summands, cutoff):
    """The sum of the summands at ``cutoff``, each a framing monomial
    sign * t^shift, exact through cutoff + shift, times one amplitude per
    node, glued over packed ints as the module docstring describes.

    A summand's chain is masked after each multiply at the cutoff
    ``_pair_mul`` gives, and the summand is dropped once its valuation
    passes that cutoff.  A Q-degree's sum is cut at the least cutoff of its
    summands; their valuations share a parity, as each edge partition
    enters at both its nodes.
    """
    if cutoff < 0:
        return GWSeries(qvars, order)  # every framing monomial is cut to 0
    # [valuation, cutoff, coefficient sum, coefficients over t^2, packed
    # once the slot width is known] per distinct amplitude, shared by every
    # rotation of its arguments
    amplitudes, distinct = {}, {}
    chains, bounds = [], {}
    for exps, sign, shift, nodes in summands:
        v, k, bound, steps = shift, cutoff + shift, 1, []
        for args in nodes:
            amp = amplitudes.get(args)
            if amp is None:
                rotation = _least_rotation(*args)
                amp = distinct.get(rotation)
                if amp is None:
                    ts = vertex_raw(*rotation, cutoff)
                    amp = distinct[rotation] = [ts.valuation(), ts.cutoff,
                                                sum(ts.data), ts.data[::2]]
                amplitudes[args] = amp
            v, k = _pair_mul((v, k), amp[:2])
            if v is None or v > k:
                break
            bound *= amp[2]
            steps.append((amp, (k - v) // 2 + 1))
        else:
            bounds[exps] = bounds.get(exps, 0) + bound
            chains.append((exps, sign, v, k, steps))
    width = _slot_bytes(max(bounds.values(), default=0).bit_length())
    slot = 8 * width
    for amp in distinct.values():
        amp[3] = _pack(amp[3], width)
    sums: dict[tuple, list] = {}
    for exps, sign, v, k, steps in chains:
        x = 1
        for amp, n in steps:
            x = (x * amp[3]) & ((1 << (slot * n)) - 1)
        sums.setdefault(exps, [sign]).append((v, k, x))
    terms = {}
    for exps, (sign, *parts) in sums.items():
        low = min(v for v, _, _ in parts)
        top = min(k for _, k, _ in parts)
        n = (top - low) // 2 + 1
        half = _unpack(sum(x << (slot * ((v - low) // 2))
                           for v, _, x in parts), width, n)
        data = [0] * (2 * n - 1)
        data[::2] = half if sign > 0 else [-c for c in half]
        terms[exps] = TSeries._dense(low, data, top)
    return GWSeries(qvars, order, terms)


# ---------------------------------------------------------------------------
# Precision planning
#
# Skew Schur specializations and vertex amplitudes have nonnegative
# coefficients, and all summands of one Q-degree carry the same framing
# sign, so nothing cancels: valuations add under products and take the
# minimum under sums.  With the cutoff rules of TSeries arithmetic that
# gives the (valuation, cutoff) pair of every product and sum _glue forms
# without one coefficient.  A pair (v, K) is a series exact through K with
# lowest exponent v, or the zero series when v is None.

def _pair_mul(a, b):
    v = None if a[0] is None or b[0] is None else a[0] + b[0]
    return v, _product_cutoff(a, b)


def _pair_add(a, b):
    k = min(a[1], b[1])
    v = min((x for x in (a[0], b[0]) if x is not None), default=None)
    return (v if v is not None and v <= k else None), k


@lru_cache(maxsize=None)
def _skew_valuation(alpha: Partition, eta: Partition, nu: Partition):
    """Valuation of s_{alpha/eta}(x_i = t^(2i - 1 - 2 nu_i)), None if zero.

    The exponents increase strictly in i, so the least tableau weight is
    the column-minimal one: cell (r, c) holds r - eta'_c (from 0).  Every
    other path through _skew_spec's strip chain keeps its cutoff at or above
    the requested one, so _skew_spec(..., cutoff) is this valuation (when
    at most the cutoff) with exactly that cutoff.
    """
    if any(e > a for e, a in zip(eta, alpha)) or len(eta) > len(alpha):
        return None
    eta_t = transpose(eta)
    total = 0
    for r, row in enumerate(alpha):
        for c in range(eta[r] if r < len(eta) else 0, row):
            k = r - (eta_t[c] if c < len(eta_t) else 0)
            total += 2 * k + 1 - 2 * (nu[k] if k < len(nu) else 0)
    return total


@lru_cache(maxsize=None)
def _vertex_valuations(lam, mu, nu) -> tuple:
    """(pairs, hook, shift) for vertex(lam, mu, nu): the valuations (v1, v2)
    of the two skew factors of every inner-sum term that is not identically
    zero, in vertex_raw's order; the valuation of s_nu(q^rho), None when nu
    is empty; and the kappa shift."""
    lam, mu, nu = _least_rotation(lam, mu, nu)
    mu_t, nu_t = transpose(mu), transpose(nu)
    pairs = []
    for eta in subdiagrams(tuple(min(a, b) for a, b in zip(lam, mu_t))):
        v1 = _skew_valuation(lam, eta, nu_t)
        v2 = _skew_valuation(mu_t, eta, nu)
        if v1 is not None and v2 is not None:
            pairs.append((v1, v2))
    hook = 2 * n_stat(nu) + psize(nu) if nu else None
    return tuple(pairs), hook, kappa(lam) + kappa(nu)


@lru_cache(maxsize=None)
def _vertex_pair(lam, mu, nu, cutoff: int) -> tuple:
    """(valuation, cutoff) of vertex(lam, mu, nu, cutoff), traced through
    vertex_raw's sums and products.  A term that is identically zero adds
    (None, cutoff), which changes nothing."""
    pairs, hook, shift = _vertex_valuations(lam, mu, nu)
    inner = (None, cutoff)
    for v1, v2 in pairs:
        inner = _pair_add(inner, _pair_mul(
            ((v1 if v1 <= cutoff else None), cutoff),
            ((v2 if v2 <= cutoff else None), cutoff)))
    if hook is not None:
        # schur_principal: t^hook times a 1/(1 - t^(2h)) per hook, of
        # valuation 0 and the same cutoff, which leave (hook, cutoff) as is
        inner = _pair_mul(((hook if hook <= cutoff else None), cutoff), inner)
    v, k = inner
    return (None if v is None else v + shift), k + shift


@lru_cache(maxsize=None)
def _vertex_profile(lam, mu, nu) -> tuple:
    """(valuation, offset, threshold) with _vertex_pair(lam, mu, nu, cutoff)
    == (valuation, cutoff + offset) at every cutoff from the threshold up.

    From the threshold up no piece of the amplitude truncates to zero: every
    skew specialization that is not identically zero, the hook product and
    the inner sum all have their lowest terms at or below their cutoffs.
    """
    pairs, hook, shift = _vertex_valuations(lam, mu, nu)
    # the inner sum is (low, cutoff + offset); eta = () always contributes
    low, offset, threshold = None, 0, 0
    for v1, v2 in pairs:
        low = v1 + v2 if low is None else min(low, v1 + v2)
        offset = min(offset, v1, v2)
        threshold = max(threshold, v1, v2)
    threshold = max(threshold, low - offset)
    if hook is not None:
        low, offset, threshold = hook + low, min(low, offset + hook), \
            max(threshold, hook)
    return low + shift, offset + shift, threshold


def _summand_precision(shift: int, nodes, cutoff: int):
    """The cutoff of one summand glued at ``cutoff``, from valuations alone;
    None when it truncates to zero."""
    factor = ((shift if cutoff >= 0 else None), cutoff + shift)
    for args in nodes:
        factor = _pair_mul(factor, _vertex_pair(*args, cutoff))
        if factor[0] is None:
            return None
    return factor[1]


def _precision_table(summands) -> list:
    """(threshold, offset, shift, nodes) per summand: from the threshold on,
    the summand glues to a nonzero series exact through cutoff + offset."""
    rows = []
    for _, _, shift, nodes in summands:
        # the framing monomial is (shift, cutoff + shift) from cutoff 0 up
        low, offset, threshold = shift, shift, 0
        for args in nodes:
            v, o, t = _vertex_profile(*args)
            low, offset, threshold = low + v, min(offset + v, o + low), \
                max(threshold, t)
        rows.append((threshold, offset, shift, nodes))
    return rows


def _glued_precision(table, cutoff: int):
    """``_glue(..., summands, cutoff).min_cutoff()`` from the summands'
    precision table: the least cutoff of a summand that does not truncate to
    zero (a sum of such summands is never zero, so it keeps the least of
    their cutoffs).  Summands below their threshold are walked exactly."""
    got = None
    for threshold, offset, shift, nodes in table:
        k = cutoff + offset if cutoff >= threshold else \
            _summand_precision(shift, nodes, cutoff)
        if k is not None and (got is None or k < got):
            got = k
    return got


def _plan_cutoff(summands, order: int, t_cutoff: int) -> int:
    """The working cutoff at which one _glue reaches ``t_cutoff``.

    Walks margins 8, 16, 32, ... past ``t_cutoff`` and stops at the first
    whose planned precision suffices (or that yields no terms at all).  The
    planned precision is not a fixed offset from the working cutoff, nor
    monotone in it, because summands that truncate to zero drop out.
    """
    table = _precision_table(summands)
    margin = 8
    while True:
        cutoff = t_cutoff + margin
        got = _glued_precision(table, cutoff)
        if got is None or got >= t_cutoff:
            return cutoff
        margin *= 2
        if margin > 16 * (t_cutoff + 8) * (order + 1) ** 2:
            raise CrepantError("cannot reach requested t-precision")


def _ccw_slots(web, node):
    """The three slots at a node in counterclockwise cyclic order.  The
    directions of a balanced node span the plane positively, so the first
    two are counterclockwise exactly when their cross product is positive;
    where the cycle starts is free, as every vertex call takes the least
    rotation."""
    slots = web.slots_at(node)
    if len(slots) != 3:
        raise CrepantError("web node is not trivalent")
    (x1, y1), (x2, y2) = slots[0][2], slots[1][2]
    return slots if x1 * y2 - x2 * y1 > 0 else [slots[0], slots[2], slots[1]]


# ---------------------------------------------------------------------------
# Gopakumar-Vafa extraction

def _sinh_power(k: int, m: int, cutoff=None) -> TSeries:
    """(t^k - t^-k)^m = sum_j (-1)^j C(m, j) t^(k(m - 2j)), cut at the
    cutoff."""
    return TSeries({k * (m - 2 * j): (-1) ** j * math.comb(m, j)
                    for j in range(m + 1)}, cutoff)


def _cover_kernel(g: int, k: int, cutoff: int) -> TSeries:
    """k times (-1)^(g-1)/k * (t^k - t^-k)^(2g-2), expanded upward in t."""
    if g == 0:
        # 1/(t^k - t^-k)^2 = t^(2k) / (1 - t^(2k))^2 = sum_{m>=1} m t^(2km)
        top = cutoff + 2 * k
        return TSeries({2 * k * m: -m for m in range(1, top // (2 * k) + 1)},
                       top)
    return _sinh_power(k, 2 * g - 2, cutoff).scale((-1) ** (g - 1))


class GVTable:
    """Extracted invariants n[g, d], all ints."""

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def __getitem__(self, key):
        return self.entries.get(tuple(key), 0)

    def rows(self):
        return sorted(self.entries.items())

    def to_text(self) -> str:
        lines = ["g d\tn"]
        for (g, d), v in self.rows():
            lines.append(f"{g} {d}\t{v}")
        return "\n".join(lines) + "\n"


def gv_extract(series: GWSeries, genus_cap: int = 2) -> GVTable:
    """Integer invariants from the multiple-cover resummation of log Z.

    The series must have constant term 1; multivariate series are collapsed
    to a single degree by total Q-degree first.  It runs over the integers
    on L log Z, L = lcm(1..order), and divides each invariant by L once.
    Raises when that division is not exact, and when the t-precision cannot
    certify the requested genus range, instead of truncating silently.
    """
    if len(series.vars) != 1:
        series = series.collapse("Q")
    if not series.coefficient((0,)).coeffs == {0: 1}:
        raise CrepantError("GV extraction needs constant term exactly 1")
    lcm, free = series._lcm_log()
    entries: dict[tuple, int] = {}
    per_degree: dict[int, dict[int, int]] = {}
    for d in range(1, series.order + 1):
        residue = free.coefficient((d,))
        cutoff = residue.cutoff
        if cutoff is None:
            cutoff = 4 * genus_cap + 8
            residue = residue.truncate(cutoff)
        for k in range(2, d + 1):
            if d % k:
                continue
            for g, n in per_degree.get(d // k, {}).items():
                residue -= _cover_kernel(g, k, cutoff).scale(n * (lcm // k))
        peeled = -(residue * _sinh_power(1, 2))
        top = max((e for e, c in peeled.coeffs.items() if c), default=None)
        avail = peeled.cutoff
        if top is not None and avail is not None and top > avail - 2:
            raise PrecisionError(
                f"insufficient t-precision at degree {d}: top visible exponent"
                f" {top} too close to cutoff {avail}")
        genera: dict[int, int] = {}
        if top is not None:
            if top % 2 or top < 0:
                raise CrepantError(
                    f"degree {d} free energy is not a genus expansion")
            for g in range(top // 2, -1, -1):
                c = peeled.coefficient(2 * g)
                if c % lcm:
                    raise CrepantError(f"GV invariant n[{g},{d}] ="
                                       f" {(-1) ** g * c}/{lcm} is not an"
                                       " integer")
                if c:
                    genera[g] = (-1) ** g * c // lcm
                    peeled = peeled - _sinh_power(1, 2 * g).scale(c)
            if any(c for e, c in peeled.coeffs.items()
                   if avail is None or e <= avail):
                raise CrepantError(
                    f"degree {d} residue is not polynomial in the genus kernel")
        per_degree[d] = genera
        entries.update(((g, d), n) for g, n in genera.items() if g <= genus_cap)
    return GVTable(entries)
