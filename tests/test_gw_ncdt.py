"""The GW/NCDT identity as a cross-route oracle.

Where the paper's correspondence is a theorem, the crystal series of the
quiver with potential equals a product of the glued vertex series of the
resolution under a change of variables.  The two sides share no code: one
is the layer DP over crystal ideals, the other the topological vertex glued
along the toric web.
"""

import pytest
from support import gw_as_crystal

from crepant.crystal import family_for, ncdt_series
from crepant.toric import LatticePolygon, dual_web, unit_square, unit_triangulations
from crepant.vertex import gw_partition_function

A1_STRIP = LatticePolygon(((0, 0), (2, 0), (0, 1)))
A2_STRIP = LatticePolygon(((0, 0), (3, 0), (0, 1)))


def mismatches(family, polygon, order, t_cutoff, sign):
    """The exponents where the crystal series and the glued GW side differ.

    The factor Z(Q_i -> 1/q_(i+1)) reaches Q-degree (n - 1) N at crystal
    order N, so the web is glued to order N times its internal edges."""
    web = dual_web(unit_triangulations(polygon)[0])
    z = gw_partition_function(web, len(web.edges) * order, t_cutoff=t_cutoff)
    gw = gw_as_crystal(z, order, sign)
    dt = ncdt_series(family_for(family), order)
    return sorted(e for e in set(gw.terms) | set(dt.terms)
                  if gw.coefficient(e) != dt.coefficient(e))


@pytest.mark.parametrize("order", [6, 8, 12])
def test_conifold_pyramids_are_the_resolved_conifold_vertex(order):
    """Szendroi's pyramid count is M(q)^2 Z(-q1) Z(-1/q1) for the square's
    GW series Z, at t-cutoff 2N."""
    assert mismatches("conifold", unit_square(), order, 2 * order, -1) == []


def test_a1_crystal_is_the_a1_strip_vertex():
    """The C^2/Z_2 x C crystal is M(q)^2 Z(q1) Z(1/q1) for the A1 strip's GW
    series, at a t-cutoff high enough for the glue to be exact."""
    assert mismatches("mckay:2:1,1,0", A1_STRIP, 10, 60, 1) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the glue drops summands whose chains truncate to"
                          " zero, so Q-degrees near the cutoff are wrong"
                          " (ROADMAP item 1)")
@pytest.mark.parametrize("order, t_cutoff", [(10, 20), (8, 16)])
def test_a1_crystal_is_the_a1_strip_vertex_at_t_cutoff_2n(order, t_cutoff):
    """1 mismatch at N = 10, t 20 and 7 at N = 8, t 16 today."""
    assert mismatches("mckay:2:1,1,0", A1_STRIP, order, t_cutoff, 1) == []


@pytest.mark.parametrize("order, t_cutoff", [(6, 36), (4, 16)])
def test_a2_crystal_is_the_a2_strip_vertex(order, t_cutoff):
    """The C^2/Z_3 x C crystal is M(q)^3 Z(q1, q2) Z(1/q1, 1/q2) for the A2
    strip's GW series, glued to Q-order 2N."""
    assert mismatches("mckay:3:1,2,0", A2_STRIP, order, t_cutoff, 1) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the glue drops summands whose chains truncate to"
                          " zero, so Q-degrees near the cutoff are wrong"
                          " (ROADMAP item 1)")
@pytest.mark.parametrize("order, t_cutoff", [(6, 18), (5, 10)])
def test_a2_crystal_is_the_a2_strip_vertex_at_low_t_cutoffs(order, t_cutoff):
    """1 mismatch today at each size, at q0^N."""
    assert mismatches("mckay:3:1,2,0", A2_STRIP, order, t_cutoff, 1) == []
