"""Schur specializations, the vertex amplitude, gluing, and GV extraction."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crepant.errors import CrepantError
from crepant.series import FormalSeries, general_binomial
from crepant.toric import (BUILTIN_POLYGONS, double_triangle, dual_web,
                           p2_triangle, trapezoid, unit_square, unit_triangle,
                           unit_triangulations, zn_triangle)
from crepant.vertex import (_GLUE_BYTES, GWSeries, TSeries, _ccw_slots,
                            _check_glue_size, _convolve,
                            _cover_kernel, _glue, _glued_precision,
                            _kronecker, _least_rotation, _plan_cutoff,
                            _precision_table, _sinh_power, _skew_spec,
                            _skew_valuation, _summands, _vertex_profile,
                            gv_extract, gw_partition_function, hooks, kappa,
                            n_stat, partitions_of, psize, schur_principal,
                            subdiagrams, transpose, vertex, vertex_raw)
from support import (DictTSeries, _vertex_pair, agree_through,
                     angle_sorted_slots, fraction_log, geometric,
                     gw_series_from_text, margin_walk_plan, partitions_upto,
                     product_cover_kernel, product_u_power, retry_gluing,
                     retry_loop_oracle, slot_walk_summands,
                     strip_chain_skew_spec, tseries_glue, walked_precision)

SRC_PATH = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")]))


def ssyt_weight_oracle(shape, cutoff, variables=None):
    """Sum t^(2T_ij - 1) over semistandard tableaux, entries bounded.

    Entries above (cutoff + 1) // 2 only contribute beyond the cutoff, so
    bounding them reproduces the infinite specialization through the cutoff.
    """
    variables = variables or (cutoff + 1) // 2 + 1
    rows = len(shape)
    out: dict[int, int] = {}

    def rec(r, prev_row, weight):
        if weight > cutoff:
            return
        if r == rows:
            out[weight] = out.get(weight, 0) + 1
            return
        width = shape[r]

        def cells(c, acc, w):
            if w > cutoff:
                return
            if c == width:
                rec(r + 1, acc, w)
                return
            lo = acc[c - 1] if c else 1
            if prev_row is not None and c < len(prev_row):
                lo = max(lo, prev_row[c] + 1)
            for v in range(lo, variables + 1):
                cells(c + 1, acc + [v], w + 2 * v - 1)

        cells(0, [], weight)

    rec(0, None, 0)
    return out


@pytest.mark.parametrize("shape", [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2)])
def test_schur_principal_matches_tableau_oracle(shape):
    cutoff = 20
    series = schur_principal(shape, cutoff)
    oracle = ssyt_weight_oracle(shape, cutoff)
    assert {e: c for e, c in series.coeffs.items() if e <= cutoff} == oracle


def test_schur_principal_matches_hook_products():
    """The running sums give the series the product of one geometric
    series per hook gave, cutoff included.  Below its lowest term the
    product is formed through that term and then cut, because a geometric
    factor cut to zero forgets its valuation 0."""
    for p in partitions_upto(6):
        low = 2 * n_stat(p) + psize(p)
        for cutoff in range(-3, 41):
            work = max(cutoff, low)
            want = TSeries.monomial(low, 1, work)
            for h in hooks(p):
                want = want * geometric(2 * h, work)
            assert schur_principal(p, cutoff) == want.truncate(cutoff), \
                (p, cutoff)


def test_schur_principal_small_values():
    s = schur_principal((1,), 9)
    assert s.coeffs == {1: 1, 3: 1, 5: 1, 7: 1, 9: 1}
    assert schur_principal((), 5).coeffs == {0: 1}


def test_transpose_symmetry():
    # s_{lambda'} = t^kappa(lambda) * s_lambda
    for shape in [(2,), (2, 1), (3,), (3, 1), (2, 2)]:
        k = 20
        a = schur_principal(transpose(shape), k)
        b = schur_principal(shape, k).shift(kappa(shape))
        assert agree_through(a, b, min(a.cutoff, b.cutoff))


def test_low_cutoffs_agree_with_cutoff_sixty():
    """A result at a low cutoff has the coefficients of the same call at
    cutoff 60 at every exponent through the cutoff it claims: the vertex
    amplitude, s_p(q^rho) and the skew specializations, for partitions of
    size at most 3 and cutoffs -12..11.  Only values are compared, so this
    checks the cutoff rules of TSeries products without sharing them."""
    parts = partitions_upto(3)
    triples = list(itertools.product(parts, repeat=3))
    calls = [(vertex_raw, args) for args in triples] + \
        [(_skew_spec, args) for args in triples] + \
        [(schur_principal, (p,)) for p in parts]
    for fn, args in calls:
        high = fn(*args, 60)
        for cutoff in range(-12, 12):
            low = fn(*args, cutoff)
            case = (fn.__name__, args, cutoff, low.cutoff)
            assert high.cutoff >= low.cutoff, case
            assert agree_through(low, high, low.cutoff), case


def test_partition_helpers():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]
    assert transpose((3, 1)) == (2, 1, 1)
    assert kappa((2,)) == 2 and kappa((1, 1)) == -2
    assert kappa(transpose((3, 2))) == -kappa((3, 2))


def test_vertex_normalizations():
    assert vertex((), (), (), 10).coeffs == {0: 1}
    v = vertex((1,), (), (), 16)
    s = schur_principal((1,), 16)
    assert agree_through(v, s, min(v.cutoff, 16))


def test_vertex_cyclic_rotations_agree():
    args = ((2,), (1,), ())
    rots = [args, (args[1], args[2], args[0]), (args[2], args[0], args[1])]
    vals = [vertex_raw(*rot, 18) for rot in rots]
    thr = min(v.cutoff for v in vals)
    assert thr >= 16
    assert agree_through(vals[0], vals[1], thr)
    assert agree_through(vals[0], vals[2], thr)
    # the public entry point canonicalizes, so rotations are identical objects
    assert vertex(*args, 18) == vertex(*rots[1], 18) == vertex(*rots[2], 18)


def product_side_conifold(order, cutoff):
    """prod_k (1 - Q t^(2k))^k expanded by generalized binomials."""
    coeffs = {0: TSeries.one(cutoff)}
    for k in range(1, cutoff // 2 + 1):
        new: dict[int, TSeries] = {}
        for dq, ts in coeffs.items():
            for j in range(order - dq + 1):
                c = general_binomial(k, j) * (-1) ** j
                if not c:
                    continue
                term = ts * TSeries.monomial(2 * k * j, c, cutoff)
                new[dq + j] = new.get(dq + j, TSeries.zero(cutoff)) + term
        coeffs = new
    return coeffs


def test_conifold_gluing_matches_product():
    web = dual_web(unit_triangulations(unit_square())[0])
    series = gw_partition_function(web, 4, t_cutoff=20)
    product = product_side_conifold(4, 24)
    for d in range(5):
        a = series.coefficient((d,))
        assert agree_through(a, product[d], 20)


def test_conifold_gluing_matches_partition_sum_oracle():
    """Independent oracle: sum over single partitions of the two one-leg
    amplitudes, paired through the transpose, weighted by (-Q)^size."""
    web = dual_web(unit_triangulations(unit_square())[0])
    series = gw_partition_function(web, 3, t_cutoff=18)
    for d in range(4):
        total = TSeries.zero(24)
        for lam in partitions_of(d):
            a = vertex((), (), lam, 24)
            b = vertex((), (), transpose(lam), 24)
            total = total + (a * b).scale(-1 if d % 2 else 1)
        got = series.coefficient((d,))
        assert agree_through(got, total, min(got.cutoff, total.cutoff, 18))


def test_both_square_webs_give_the_same_series():
    t1, t2 = unit_triangulations(unit_square())
    z1 = gw_partition_function(dual_web(t1), 3, t_cutoff=16)
    z2 = gw_partition_function(dual_web(t2), 3, t_cutoff=16)
    for d in range(4):
        a, b = z1.coefficient((d,)), z2.coefficient((d,))
        assert agree_through(a, b, 16)


def test_single_vertex_web_is_one():
    web = dual_web(unit_triangulations(unit_triangle())[0])
    series = gw_partition_function(web, 5)
    assert series.coefficient(()).coeffs == {0: 1}
    assert gv_extract(series).rows() == []


def test_conifold_gv():
    web = dual_web(unit_triangulations(unit_square())[0])
    series = gw_partition_function(web, 4, t_cutoff=20)
    table = gv_extract(series)
    assert table[(0, 1)] == 1
    for d in (2, 3, 4):
        assert table[(0, d)] == 0
    assert all(g == 0 for (g, _), _ in table.rows())


def test_local_p2_gv_two_evaluation_orders():
    web = dual_web(unit_triangulations(p2_triangle())[0])
    forward = gw_partition_function(web, 3, t_cutoff=26)
    reverse = gw_partition_function(web, 3, t_cutoff=26, reverse_edges=True)
    t1 = gv_extract(forward)
    t2 = gv_extract(reverse)
    assert t1.rows() == t2.rows()
    assert [t1[(0, d)] for d in (1, 2, 3)] == [3, -6, 27]
    assert t1[(1, 3)] == -10
    for (_, _), value in t1.rows():
        assert type(value) is int


def test_double_triangle_gw_is_gv_integral():
    tri = unit_triangulations(double_triangle())[0]
    series = gw_partition_function(dual_web(tri), 2, t_cutoff=18)
    table = gv_extract(series)
    for (_, _), value in table.rows():
        assert type(value) is int


def test_glue_past_its_memory_budget_fails_before_any_amplitude():
    """The size gate refuses the glue once the plan is known: no amplitude
    is built, where without it the first one would fill memory.  The
    amplitude 1 is not counted, so one nontrivial amplitude passes at the
    budget's cutoff and fails one past it."""
    web = dual_web(unit_triangulations(unit_square())[0])
    built = vertex_raw.cache_info().currsize
    with pytest.raises(MemoryError):
        gw_partition_function(web, 3, t_cutoff=10 ** 8)
    assert vertex_raw.cache_info().currsize == built
    summands = [((1,), 1, 0, [((), (), ()), ((1,), (), ())])]
    _check_glue_size(summands, _GLUE_BYTES // 8 - 1)
    with pytest.raises(MemoryError):
        _check_glue_size(summands, _GLUE_BYTES // 8)


def test_gv_needs_unit_constant_term():
    web = dual_web(unit_triangulations(unit_square())[0])
    series = gw_partition_function(web, 2, t_cutoff=12)
    broken = series + series
    with pytest.raises(CrepantError):
        gv_extract(broken)


def test_tseries_precision_tracking():
    a = geometric(2, 10)            # exact through t^10
    b = TSeries.monomial(-4, 1, None)
    assert (a * b).cutoff == 6
    assert a.shift(3).cutoff == 13
    with pytest.raises(CrepantError):
        agree_through(a, geometric(2, 4), 6)


def test_local_p2_genus_zero_through_degree_six():
    web = dual_web(unit_triangulations(p2_triangle())[0])
    table = gv_extract(gw_partition_function(web, 6, t_cutoff=40), genus_cap=0)
    assert [table[(0, d)] for d in range(1, 7)] == [3, -6, 27, -192, 1695,
                                                    -17064]


def test_local_p2_through_genus_two_at_degree_seven():
    web = dual_web(unit_triangulations(p2_triangle())[0])
    table = gv_extract(gw_partition_function(web, 7, t_cutoff=54), genus_cap=2)
    assert [table[(g, 7)] for g in range(3)] == [188454, -1438086, 5784837]


def test_local_p2_through_genus_two_at_degree_eight():
    """n_{0,8} (Chiang-Klemm-Yau-Zaslow, hep-th/9903053), n_{1,8} and n_{2,8}
    (Katz-Klemm-Vafa, hep-th/9910181), at t-order 62, the least at which
    gv prints them (61 is a precision error)."""
    web = dual_web(unit_triangulations(p2_triangle())[0])
    table = gv_extract(gw_partition_function(web, 8, t_cutoff=62), genus_cap=2)
    assert [table[(g, 8)] for g in range(3)] == [-2228160, 25301295,
                                                 -155322234]


GRID_WEBS = {
    "square": (unit_square, 0),
    "square flopped": (unit_square, 1),
    "double triangle": (double_triangle, 0),
    "zn 1": (lambda: zn_triangle(1), 0),
    "zn 2": (lambda: zn_triangle(2), 0),
    "trapezoid 2,1": (lambda: trapezoid(2, 1), 0),
    "p2": (p2_triangle, 0),
}


@pytest.mark.parametrize("name", sorted(GRID_WEBS))
def test_planned_precision_matches_retry_loop(name):
    """One glue at the planned cutoff returns what the retry loop returned:
    the same coefficients and the same cutoffs (the grid includes zn 1 and
    zn 2 at order 4, where the precision reached is not monotone in the
    working cutoff)."""
    polygon, index = GRID_WEBS[name]
    web = dual_web(unit_triangulations(polygon())[index])
    for order in range(4 if name == "p2" else 5):
        for t_cutoff in (-8, -4, 0, 6, 12, 20, 26):
            for reverse in (False, True):
                try:
                    want = retry_loop_oracle(web, order, t_cutoff, reverse)
                except CrepantError:
                    with pytest.raises(CrepantError):
                        gw_partition_function(web, order, t_cutoff, reverse)
                    continue
                got = gw_partition_function(web, order, t_cutoff, reverse)
                case = (order, t_cutoff, reverse)
                assert (got.vars, got.order) == (want.vars, want.order), case
                assert got.terms == want.terms, case


def test_planned_pairs_match_computed_series():
    """The valuation and cutoff the plan assigns to each vertex amplitude
    are those of the computed series, and so are its profile's from the
    profile's threshold up (skew Schur specializations are checked by
    test_jacobi_trudi_skew_spec_matches_strip_chain)."""
    parts = partitions_upto(3)
    for cutoff in range(-6, 21):
        for lam in parts:
            for mu in parts:
                for nu in partitions_upto(2):
                    ts = vertex(lam, mu, nu, cutoff)
                    got = (ts.valuation(), ts.cutoff)
                    case = (lam, mu, nu, cutoff)
                    assert _vertex_pair(lam, mu, nu, cutoff) == got, case
                    v, offset, threshold = _vertex_profile(lam, mu, nu)
                    if cutoff >= threshold:
                        assert got == (v, cutoff + offset), case


def test_jacobi_trudi_skew_spec_matches_strip_chain():
    """The Jacobi-Trudi determinant over packed ints gives the series of the
    horizontal-strip chain, cutoff included, and the valuation and cutoff
    the plan assigns to each skew Schur specialization are those of the
    computed series."""
    parts = partitions_upto(4)
    for alpha in parts:
        for eta in parts:
            for nu in parts:
                v = _skew_valuation(alpha, eta, nu)
                for cutoff in range(-9, 61):
                    case = (alpha, eta, nu, cutoff)
                    ts = _skew_spec.__wrapped__(alpha, eta, nu, cutoff)
                    assert ts == strip_chain_skew_spec(*case), case
                    assert (ts.valuation(), ts.cutoff) == \
                        (v if v is not None and v <= cutoff else None,
                         cutoff), case


def test_jacobi_trudi_reaches_every_skew_call_of_local_p2_degree_seven():
    """Every distinct skew Schur specialization that local P2 at degree 7
    and t-order 54 glues, at its planned cutoff 182, equals the strip
    chain's: the determinant's packed lists reach cutoffs and partitions
    past the grid."""
    web = dual_web(unit_triangulations(p2_triangle())[0])
    qvars = tuple(e.var for e in web.edges)
    summands = _summands(web, 7, False)
    cutoff = _plan_cutoff(qvars, 7, summands, 54)
    assert cutoff == 182
    calls = set()
    for *_, nodes in summands:
        for lam, mu, nu in nodes:
            # the calls vertex_raw makes: the arguments are at their least
            # rotation already
            mu_t, nu_t = transpose(mu), transpose(nu)
            for eta in subdiagrams(tuple(min(a, b)
                                         for a, b in zip(lam, mu_t))):
                calls.update({(lam, eta, nu_t), (mu_t, eta, nu)})
    assert len(calls) == 205
    for call in sorted(calls):
        assert _skew_spec(*call, cutoff) == \
            strip_chain_skew_spec(*call, cutoff), call


# every triangulation of these polygons, at orders 0-5 and both edge
# orientations, checks the slot plans against the slot walk
SLOT_PLAN_POLYGONS = [
    *(build() for build in BUILTIN_POLYGONS.values()),
    zn_triangle(1), zn_triangle(2), trapezoid(3, 1), trapezoid(3, 2),
]


def test_summands_match_the_slot_walk():
    """The slot plans give the summands the per-summand walk gives: the
    same Q-degrees, int framing signs and shifts, in the same order, and
    each node's arguments at the least rotation of the walk's."""
    for polygon in SLOT_PLAN_POLYGONS:
        for index, tri in enumerate(unit_triangulations(polygon)):
            web = dual_web(tri)
            for order in range(6):
                for reverse in (False, True):
                    case = (polygon, index, order, reverse)
                    got = _summands(web, order, reverse)
                    want = [(exps, sign, shift,
                             [_least_rotation(*args) for args in nodes])
                            for exps, sign, shift, nodes in
                            slot_walk_summands(web, order, reverse)]
                    assert got == want, case
                    assert all(type(sign) is int and type(shift) is int
                               for _, sign, shift, _ in got), case


def _grid_summands(include_p2_orders=()):
    """(case, qvars, summands, order) for every GRID_WEBS web, order and
    edge orientation of the planned-precision grid, plus local P2 at the
    given orders."""
    for name in sorted(GRID_WEBS):
        polygon, index = GRID_WEBS[name]
        web = dual_web(unit_triangulations(polygon())[index])
        qvars = tuple(e.var for e in web.edges)
        orders = list(range(4 if name == "p2" else 5))
        if name == "p2":
            orders += list(include_p2_orders)
        for order in orders:
            for reverse in (False, True):
                yield ((name, order, reverse), qvars,
                       _summands(web, order, reverse), order)


def test_precision_table_matches_the_walk_at_every_cutoff():
    """From its threshold up, each summand is exact through the cutoff plus
    its offset, as the walk finds it; the table, glued only below the
    thresholds, gives the precision the margin-by-margin walk gave at every
    cutoff from -10 to 120, and the plan picks the walk's cutoff (local P2
    up to order 6)."""
    for case, qvars, summands, order in _grid_summands(
            include_p2_orders=(5, 6)):
        table = _precision_table(summands)
        for threshold, offset, (_, _, shift, nodes) in table:
            for cutoff in range(max(threshold, -10), 121):
                assert walked_precision([((), 1, shift, nodes)], cutoff) == \
                    cutoff + offset, (case, shift, nodes, cutoff)
        for cutoff in range(-10, 121):
            assert _glued_precision(qvars, order, table, cutoff) == \
                walked_precision(summands, cutoff), (case, cutoff)
        for t_cutoff in (-8, 0, 12, 26, 40):
            try:
                want = margin_walk_plan(summands, order, t_cutoff)
            except CrepantError:
                with pytest.raises(CrepantError, match="cannot reach"):
                    _plan_cutoff(qvars, order, summands, t_cutoff)
                continue
            assert _plan_cutoff(qvars, order, summands, t_cutoff) == want, \
                (case, t_cutoff)


def test_log_matches_fraction_log():
    """The log summed over the integers, divided by L, is the log summed in
    Fractions, on every glued GRID_WEBS series: the same terms, cutoffs and
    coefficient types."""
    for case, qvars, summands, order in _grid_summands():
        for cutoff in (4, 20):
            series = _glue(qvars, order, summands, cutoff)
            lcm, scaled = series._lcm_log()
            got = scaled.scale(Fraction(1, lcm))
            want = fraction_log(series)
            assert got == want, (case, cutoff)
            assert [(e, c, type(c)) for e, c in got.sorted_terms()] == \
                [(e, c, type(c)) for e, c in want.sorted_terms()], \
                (case, cutoff)
    assert GWSeries.one(("Q",), 0)._lcm_log() == (1, GWSeries(("Q",), 0))


def test_plan_gives_up_where_the_retry_loop_does():
    # a summand t^-1000 with no vertices is never exact through t^0
    summands = [((1,), 1, -1000, [])]
    with pytest.raises(CrepantError, match="cannot reach"):
        retry_gluing(("Q",), 1, summands, 0)
    with pytest.raises(CrepantError, match="cannot reach"):
        _plan_cutoff(("Q",), 1, summands, 0)


# the polygons of every web the CLI glues: the built-in flags, --zn 1-3 and
# --trapezoid N0,N1 with N1 <= N0 <= 3
CLI_POLYGONS = [
    *(build() for build in BUILTIN_POLYGONS.values()),
    *(zn_triangle(n) for n in (1, 2, 3)),
    *(trapezoid(n0, n1) for n0 in range(1, 4) for n1 in range(1, n0 + 1)),
]


def _cli_web_summands():
    """(case, qvars, order, summands) for every triangulation of every
    CLI_POLYGONS polygon, at orders 0-4 and both edge orientations."""
    for polygon in CLI_POLYGONS:
        for index, tri in enumerate(unit_triangulations(polygon)):
            web = dual_web(tri)
            qvars = tuple(e.var for e in web.edges)
            for order in range(5):
                for reverse in (False, True):
                    yield ((polygon, index, order, reverse), qvars, order,
                           _summands(web, order, reverse))


def test_packed_glue_matches_tseries_glue():
    """The packed glue gives the TSeries-product glue term for term, offset,
    data and cutoff of every Q-degree, on every web the CLI builds: at -1,
    where every summand truncates to zero, at cutoffs where only some
    summands have reached their thresholds, and at the planned cutoff.  The
    walked precision the plan relies on is the glued series' least cutoff
    at each."""
    for case, qvars, order, summands in _cli_web_summands():
        top = max(threshold for threshold, *_ in _precision_table(summands))
        planned = _plan_cutoff(qvars, order, summands, 12)
        for cutoff in sorted({-1, top // 2, top - 1, planned}):
            got = _glue(qvars, order, summands, cutoff)
            want = tseries_glue(qvars, order, summands, cutoff)
            assert (got.vars, got.order) == (want.vars, want.order)
            assert [(e, ts.offset, ts.data, ts.cutoff)
                    for e, ts in sorted(got.terms.items())] == \
                [(e, ts.offset, ts.data, ts.cutoff)
                 for e, ts in sorted(want.terms.items())], (case, cutoff)
            assert got.min_cutoff() == walked_precision(summands, cutoff), \
                (case, cutoff)


def test_glue_packs_only_the_amplitudes_of_kept_chains():
    """The summands of the square at order 8 still below their thresholds at
    cutoff 38 (what the plan of gv --square --order 8 --t-order 30 glues)
    all truncate to zero, so the glue keeps no chain and sizes one-byte
    slots, while their amplitudes have coefficients past 255: it packs only
    what its kept chains multiply."""
    web = dual_web(unit_triangulations(unit_square())[0])
    qvars = tuple(e.var for e in web.edges)
    summands = _summands(web, 8, False)
    below = [summand for threshold, _, summand in _precision_table(summands)
             if 38 < threshold]
    assert below
    assert _glue(qvars, 8, below, 38) == tseries_glue(qvars, 8, below, 38)


def _check_glue_preconditions(case, summands, cutoff):
    """Every amplitude has nonnegative coefficients at exponents of one
    parity; the summands of a Q-degree share their framing sign and, where
    nonzero, the parity of their valuations.  Returns the glue's slot bound:
    the largest sum over a Q-degree's summands of the largest coefficient of
    their first amplitude times the coefficient sums of the others."""
    signs, parities, bounds = {}, {}, {}
    for exps, sign, shift, nodes in summands:
        assert signs.setdefault(exps, sign) == sign, (case, exps)
        valuation, bound = shift, 1
        for i, args in enumerate(nodes):
            ts = vertex(*args, cutoff)
            assert all(c >= 0 for c in ts.data), (case, args)
            assert not any(ts.data[1::2]), (case, args)
            if not ts:
                break
            valuation += ts.offset
            bound = bound * sum(ts.data) if i else max(ts.data)
        else:
            assert parities.setdefault(exps, valuation % 2) == \
                valuation % 2, (case, exps)
            bounds[exps] = bounds.get(exps, 0) + bound
    return max(bounds.values(), default=0)


def test_glue_preconditions_and_a_slot_wider_than_64_bits():
    """What the packed glue assumes holds on every web the CLI builds at the
    planned cutoff, and on local P2 at degree 7, t-order 54, whose slot
    bound reads 64 bits (68 with every factor bounded by its coefficient
    sum).  With the summands of its widest Q-degree listed twice the bound
    needs more than 64 bits: that glue packs into 16-byte slots and still
    equals the TSeries-product glue."""
    for case, qvars, order, summands in _cli_web_summands():
        _check_glue_preconditions(case, summands,
                                  _plan_cutoff(qvars, order, summands, 12))
    web = dual_web(unit_triangulations(p2_triangle())[0])
    qvars = tuple(e.var for e in web.edges)
    summands = _summands(web, 7, False)
    cutoff = _plan_cutoff(qvars, 7, summands, 54)
    bound = _check_glue_preconditions("p2 degree 7", summands, cutoff)
    assert bound.bit_length() == 64
    by_degree = {}
    for summand in summands:
        by_degree.setdefault(summand[0], []).append(summand)
    widest = max(by_degree.values(), key=lambda group:
                 _check_glue_preconditions("p2 degree 7", group, cutoff))
    summands += widest
    bound = _check_glue_preconditions("p2 degree 7, doubled", summands,
                                      cutoff)
    assert bound.bit_length() > 64
    assert _glue(qvars, 7, summands, cutoff) == \
        tseries_glue(qvars, 7, summands, cutoff)


int_coefficients = st.integers(-4, 4)
coefficients = st.one_of(
    int_coefficients,
    st.fractions(min_value=-3, max_value=3, max_denominator=5))


def laurent_series(coefficients):
    """(coeffs, cutoff) with exponents spaced 1, 2 or 4 apart, so series in
    t^2 (the common case the kernel packs) come up as often as general
    ones."""
    return st.builds(
        lambda step, coeffs, cutoff: (
            {step * e: c for e, c in coeffs.items()}, cutoff),
        st.sampled_from((1, 2, 4)),
        st.dictionaries(st.integers(-6, 6), coefficients, max_size=8),
        st.one_of(st.none(), st.integers(-26, 26)))


# products take int coefficients; sums, scale, shift and truncate any
# exact numbers
laurent = laurent_series(coefficients)
int_laurent = laurent_series(int_coefficients)


def both(spec):
    coeffs, cutoff = spec
    return TSeries(coeffs, cutoff), DictTSeries(coeffs, cutoff)


def same(dense, ref):
    return dense.cutoff == ref.cutoff and dense.coeffs == ref.coeffs \
        and dense.valuation() == ref.valuation() \
        and (not dense) == ref.is_zero()


@settings(max_examples=300, deadline=None)
@given(laurent, laurent, int_laurent, int_laurent, coefficients,
       st.integers(-6, 6), st.integers(-26, 26))
def test_dense_tseries_matches_dict_reference(x, y, u, w, c, k, through):
    """Every operation against the dict reference: products over int
    coefficients, everything else over ints and fractions."""
    (a, ra), (b, rb) = both(x), both(y)
    (m, rm), (n, rn) = both(u), both(w)
    assert same(a, ra) and same(b, rb)
    assert same(a + b, ra + rb)
    assert same(a - b, ra - rb)
    assert same(m * n, rm * rn)
    assert all(type(v) is int for v in (m * n).data)
    assert same(a.scale(c), ra.scale(c))
    assert same(a.shift(k), ra.shift(k))
    assert same(a.truncate(through), ra.truncate(through))
    for e in range(-30, 31):
        assert a.coefficient(e) == ra.coefficient(e)
    assert (a == b) == (ra == rb)
    assert (m.shift(k) * n == (m * n).shift(k)) == \
        (rm.shift(k) * rn == (rm * rn).shift(k))


wide_coefficients = st.one_of(
    st.integers(-2 ** 200, 2 ** 200),
    st.integers(-3, 3))
long_laurent = st.builds(
    lambda offset, step, coeffs, cutoff: (
        {offset + step * i: c for i, c in enumerate(coeffs)}, cutoff),
    st.integers(-10, 10),
    st.sampled_from((1, 2)),
    st.lists(wide_coefficients, max_size=60),
    st.one_of(st.none(), st.integers(-20, 140)))


@settings(max_examples=200, deadline=None)
@given(long_laurent, long_laurent)
def test_wide_products_match_dict_reference(x, y):
    """Products of long series with int coefficients up to 2^200 in size,
    of mixed signs."""
    (a, ra), (b, rb) = both(x), both(y)
    assert same(a * b, ra * rb)


@settings(max_examples=300, deadline=None)
@given(st.integers(-6, 6), int_coefficients.filter(bool), int_laurent,
       st.sampled_from((1, 2, -1, -3)))
def test_one_term_products_match_dict_reference(e, c, y, scalar):
    """A product by a one-term series is a scaled copy, on either side, with
    the value of the dict reference and the int coefficients of the packed
    product."""
    b, rb = both(y)
    for coeff in (c, scalar):
        mono, rmono = TSeries.monomial(e, coeff, None), DictTSeries({e: coeff})
        assert same(mono * b, rmono * rb)
        assert same(b * mono, rb * rmono)
        cut = TSeries.monomial(e, coeff, e + 3)
        assert same(cut * b, DictTSeries({e: coeff}, e + 3) * rb)
        data = b.data
        for n in range(len(data) + 1):
            want = _kronecker([coeff], data, n) if n else []
            for got in (_convolve([coeff], data, n),
                        _convolve(data, [coeff], n)):
                assert got == want
                assert all(type(v) is int for v in got)


def test_cold_local_p2_product_counts():
    """Work pin: a cold gw_partition_function(local P2, 6, 40) makes at most
    80 packed products, 219 TSeries products, 1245 glue multiplies (one
    per node of each of the 415 summands) and 55 Jacobi-Trudi multiplies
    (one per factor after the first of each skew Schur determinant term).
    Before the glue multiplied packed amplitudes it made 821 packed and
    1464 TSeries products, and before monomials were scaled copies and hook
    products running sums 1810 packed products, one per TSeries product."""
    probe = (
        "import json, crepant.vertex as v\n"
        "from crepant.toric import (dual_web, p2_triangle,\n"
        "                           unit_triangulations)\n"
        "counts = {'packed': 0, 'mul': 0, 'glue': 0, 'skew': 0}\n"
        "kron, mul, pack = v._kronecker, v.TSeries.__mul__, v._pack\n"
        "complete = v._packed_complete\n"
        "def counted(key):\n"
        "    # a glue packs amplitudes with _pack and multiplies a chain's\n"
        "    # plain int by one; a determinant multiplies its packed lists,\n"
        "    # the first two with each other; _kronecker subtracts before\n"
        "    # multiplying\n"
        "    class Counted(int):\n"
        "        def __mul__(self, other):\n"
        "            counts[key] += 1\n"
        "            return int(self) * other\n"
        "        __rmul__ = __mul__\n"
        "    return Counted\n"
        "glue_int, skew_int = counted('glue'), counted('skew')\n"
        "def packed(*args):\n"
        "    counts['packed'] += 1\n"
        "    return kron(*args)\n"
        "def product(*args):\n"
        "    counts['mul'] += 1\n"
        "    return mul(*args)\n"
        "def counted_pack(*args):\n"
        "    return glue_int(pack(*args))\n"
        "def counted_complete(*args):\n"
        "    return tuple(map(skew_int, complete(*args)))\n"
        "v._kronecker, v.TSeries.__mul__, v._pack = packed, product, \\\n"
        "    counted_pack\n"
        "v._packed_complete = counted_complete\n"
        "web = dual_web(unit_triangulations(p2_triangle())[0])\n"
        "v.gw_partition_function(web, 6, 40)\n"
        "print(json.dumps(counts))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC_PATH))
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["packed"] <= 80, counts
    assert counts["mul"] <= 219, counts
    assert 0 < counts["glue"] <= 1245, counts
    assert 0 < counts["skew"] <= 55, counts


def test_only_ints_reach_the_product_kernel():
    """Integer contract: every coefficient list reaching _convolve holds only
    ints, through a cold gw_partition_function(local P2, 6, 40) with
    gv_extract on it, and through one compare op."""
    probe = (
        "import contextlib, io, json, crepant.vertex as v\n"
        "from crepant.cli import main\n"
        "from crepant.toric import (dual_web, p2_triangle,\n"
        "                           unit_triangulations)\n"
        "calls, bad = {'gv': 0, 'compare': 0}, []\n"
        "phase, convolve = 'gv', v._convolve\n"
        "def checked(a, b, n):\n"
        "    calls[phase] += 1\n"
        "    if not all(type(x) is int for x in a + b):\n"
        "        bad.append(phase)\n"
        "    return convolve(a, b, n)\n"
        "v._convolve = checked\n"
        "web = dual_web(unit_triangulations(p2_triangle())[0])\n"
        "v.gv_extract(v.gw_partition_function(web, 6, 40))\n"
        "phase = 'compare'\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['compare', 'conifold', '--order', '2', '--theta',\n"
        "                 '0=-1,1=-2', '--map', 'q0=-Q0*t,q1=Q0', '--json'])\n"
        "print(json.dumps({'calls': calls, 'bad': bad, 'code': code}))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC_PATH))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["code"] == 0 and got["bad"] == [], got
    assert got["calls"]["gv"] > 0 and got["calls"]["compare"] > 0, got


def test_packed_product_rejects_a_fraction():
    """A Fraction reaching the packed route raises TypeError wherever it sits
    in the list, at 1-byte and at wider-than-8-byte slots."""
    half = Fraction(1, 2)
    for a in ([half, 1, 1], [1, half, 1], [1, 1, -half], [2 ** 100, half, 1]):
        with pytest.raises(TypeError):
            _kronecker(a, [1, 1, 1], 5)
        with pytest.raises(TypeError):
            _kronecker([1, 1, 1], a, 5)
    with pytest.raises(TypeError):
        TSeries({0: 1, 1: half}) * TSeries({0: 1, 1: 1})
    with pytest.raises(TypeError):
        TSeries({0: 1, 2: half}) * TSeries({0: 1, 2: 1})


def test_gv_extract_raises_on_a_non_integral_invariant():
    """Z = 1 + Q^2/2 has n[1,2] = 1/2: the division of the peeled
    coefficient by L = lcm(1, 2) is not exact, so extraction refuses."""
    series = GWSeries(("Q",), 2, {(0,): TSeries({0: 1}, 20),
                                  (2,): TSeries({0: Fraction(1, 2)}, 20)})
    with pytest.raises(CrepantError,
                       match=r"n\[1,2\] = 1/2 is not an integer"):
        gv_extract(series)


def test_gv_entries_are_ints():
    web = dual_web(unit_triangulations(p2_triangle())[0])
    table = gv_extract(gw_partition_function(web, 4, t_cutoff=30))
    assert table.rows() and all(type(n) is int for _, n in table.rows())


@pytest.mark.parametrize("bits", [29, 61, 125])
@pytest.mark.parametrize("sign", [1, -1])
def test_product_at_the_packing_width(bits, sign):
    """63 coefficients of magnitude 2^bits - 1 on each side: the middle
    coefficient of the product needs 2 * bits + 7 bits as a signed slot,
    one more than 64, 128 or 256 bits, so a width one bit smaller than the
    kernel's fails here."""
    top = 2 ** bits - 1
    a = {e: top for e in range(63)}
    b = {e: sign * top for e in range(63)}
    assert same(TSeries(a) * TSeries(b), DictTSeries(a) * DictTSeries(b))


def test_dense_tseries_edge_cases():
    zero = TSeries.zero(5)
    assert not zero and zero.valuation() is None and zero.coeffs == {}
    assert zero == TSeries({3: 0}, 5) == TSeries({9: 1}, 5)
    assert (zero * TSeries.one(None)).cutoff == 5
    assert (TSeries({-3: 2}, None) * TSeries({1: Fraction(1, 2)}, None)
            ).coeffs == {-2: 1}
    assert (TSeries({0: 1, 2: 1}, None) - TSeries({0: 1}, None)).coeffs == \
        {2: 1}
    assert not TSeries.monomial(4, 1, 3)
    with pytest.raises(TypeError):
        TSeries.one(3).coeffs[0] = 2


def lift(series: FormalSeries) -> GWSeries:
    """The int series with every coefficient c a constant TSeries c*t^0."""
    return GWSeries(series.vars, series.order,
                    {e: TSeries.monomial(0, c, None)
                     for e, c in series.terms.items()})


@st.composite
def int_series_pairs(draw):
    order = draw(st.integers(0, 5))
    terms = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                            st.integers(-3, 3), max_size=8)
    return (FormalSeries(("Q1", "Q2"), order, draw(terms)),
            FormalSeries(("Q1", "Q2"), order, draw(terms)))


# every built-in polygon, trapezoid N0 <= 4 and zn 1-3: 1182 web nodes
ORIENTATION_POLYGONS = CLI_POLYGONS + [trapezoid(4, n1) for n1 in range(1, 5)]


def test_ccw_slots_match_the_angle_sort():
    """The cross product of the first two directions gives the cyclic order
    the full angle sort gave, on every node of every triangulation."""
    nodes = 0
    for polygon in ORIENTATION_POLYGONS:
        for tri in unit_triangulations(polygon):
            web = dual_web(tri)
            for node in range(len(web.nodes)):
                got = _ccw_slots(web, node)
                want = angle_sorted_slots(web, node)
                assert got in [want[i:] + want[:i] for i in range(3)], \
                    (polygon, tri, node)
                nodes += 1
    assert nodes == 1182


def test_closed_form_kernels_match_the_products():
    """The binomial expansions equal the series products they replaced, in
    value and cutoff; the cover kernel is k times its product form, with
    int coefficients."""
    for g in range(5):
        assert _sinh_power(1, 2 * g) == product_u_power(g)
        for k in range(1, 5):
            for cutoff in range(-10, 41):
                got = _cover_kernel(g, k, cutoff)
                want = product_cover_kernel(g, k, cutoff)
                assert all(type(v) is int for v in got.data), (g, k, cutoff)
                assert got.scale(Fraction(1, k)) == want and \
                    got.cutoff == want.cutoff, (g, k, cutoff)


@settings(max_examples=100, deadline=None)
@given(int_series_pairs(), st.integers(-3, 3))
def test_gw_series_shares_formal_series_arithmetic(pair, c):
    """GWSeries arithmetic is FormalSeries arithmetic over TSeries: lifting
    int coefficients to constant t-series commutes with every operation."""
    a, b = pair
    cases = {"+": (a + b, lift(a) + lift(b)),
             "-": (a - b, lift(a) - lift(b)),
             "*": (a * b, lift(a) * lift(b)),
             "neg": (-a, -lift(a)),
             "scale": (a.scale(c), lift(a).scale(c)),
             "mul int": (a * c, lift(a) * c),
             "rmul int": (c * a, c * lift(a)),
             "collapse": (a.collapse("Q"), lift(a).collapse("Q"))}
    for name, (plain, lifted) in cases.items():
        assert type(plain) is FormalSeries, name
        assert type(lifted) is GWSeries, name
        assert lifted == lift(plain), name
        assert lifted.sorted_terms() == [
            (e + (0,), v) for e, v in plain.sorted_terms()], name


def test_gw_series_one_and_monomial():
    one = GWSeries.one(("Q1", "Q2"), 3, cutoff=8)
    assert one.terms == {(0, 0): TSeries.monomial(0, 1, 8)}
    assert GWSeries.one(("Q",), 2).terms == {(0,): TSeries.one()}
    mono = GWSeries.monomial(("Q1", "Q2"), 3, (1, 2), 5, cutoff=8)
    assert mono.terms == {(1, 2): TSeries.monomial(0, 5, 8)}
    assert mono * one == mono


def test_gw_series_text_round_trip():
    web = dual_web(unit_triangulations(p2_triangle())[0])
    series = gw_partition_function(web, 3, t_cutoff=12)
    text = series.to_text()
    back = gw_series_from_text(text)
    assert back.to_text() == text
    assert back.vars == series.vars and back.order == series.order
    assert gw_series_from_text(GWSeries.one((), 2).to_text()) == \
        GWSeries.one((), 2)
    whole = GWSeries(("Q",), 1, {(1,): TSeries({-1: Fraction(-3)})})
    assert whole.to_text() == "Q t\t1\n1 -1\t-3\n"
    half = GWSeries(("Q",), 1, {(0,): TSeries({0: 1}),
                                (1,): TSeries({-1: Fraction(1, 2)})})
    with pytest.raises(CrepantError,
                       match="^text format needs integer coefficients$"):
        half.to_text()
