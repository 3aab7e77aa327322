"""Monomial representations: relations, subsets, stability, cyclicity."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (framed_c3_modules, framed_conifold_modules,
                     fraction_framed_theta, fraction_is_semistable,
                     fraction_theta_infinity)

from crepant.crystal import configuration_to_module, configurations, family_for
from crepant.errors import CrepantError
from crepant.quiver import c3_quiver, conifold_quiver, frame, relations_from_potential
from crepant.reps import (MonomialRepresentation, check_relations, framed_theta,
                          is_cyclic, is_semistable, normalize_theta, rep_from_json,
                          rep_to_json, subrep_dimension_vectors, theta_infinity)


def c3_rep(action, n_basis):
    q, _ = c3_quiver()
    vertex_of = {i: "0" for i in range(n_basis)}
    return MonomialRepresentation(q, vertex_of, action)


def test_theta_infinity_examples():
    assert theta_infinity({"0": 0, "1": 0}, {"0": 2, "1": 5}) == 0
    assert theta_infinity({"0": 2, "1": -3}, {"0": 1, "1": 1}) == 1
    theta = {"0": Fraction(1, 3), "1": Fraction(-2, 7)}
    alpha = {"0": 4, "1": 5}
    total = theta_infinity(theta, alpha) + sum(theta[v] * alpha[v] for v in alpha)
    assert total == 0
    with pytest.raises(CrepantError):
        theta_infinity({"0": 1}, {"0": 1, "1": 1})


@pytest.mark.parametrize("gauge", [{"0": -1}, {"0": -1, "1": -1, "7": 3},
                                   {"0": -1, "1": -1, "inf": 2}])
def test_framed_theta_needs_exactly_the_gauge_vertices(gauge):
    """A gauge vertex missing, an extra vertex or the framing vertex itself
    is the error ``theta_infinity`` gives, not a KeyError or a kept entry."""
    with pytest.raises(CrepantError) as info:
        framed_theta(gauge, {"0": 1, "1": 1, "inf": 1}, "inf")
    assert str(info.value) == \
        "theta and the dimension vector disagree on vertices"


def test_theta_entries_reject_bools():
    """``True`` is an int to Python but not a stability entry, as quiver
    JSON takes no bool for a coefficient."""
    with pytest.raises(CrepantError, match="exact rationals, got True"):
        normalize_theta({"0": True, "1": -1})
    with pytest.raises(CrepantError, match="exact rationals, got False"):
        framed_theta({"0": False, "1": -1}, {"0": 1, "1": 1, "inf": 1}, "inf")
    assert normalize_theta({"0": 1, "1": "-1/2"}) == \
        {"0": Fraction(1), "1": Fraction(-1, 2)}


def test_check_relations_c3():
    q, w = c3_quiver()
    rels = relations_from_potential(q, w)
    assert check_relations(c3_rep({}, 0), rels)
    assert check_relations(c3_rep({}, 1), rels)
    good = c3_rep({"x": {0: 1}}, 2)
    assert check_relations(good, rels)
    # y*x and x*y disagree on basis element 0
    bad = c3_rep({"x": {0: 1}, "y": {1: 0}}, 2)
    assert not check_relations(bad, rels)


def test_subrep_dimension_vectors_chain():
    rep = c3_rep({"x": {0: 1}}, 2)
    assert subrep_dimension_vectors(rep) == {(0,), (1,), (2,)}


def test_subrep_dimension_vectors_conifold():
    q, _ = conifold_quiver()
    rep = MonomialRepresentation(q, {"b0": "0", "b1": "1"}, {"A": {"b0": "b1"}})
    assert subrep_dimension_vectors(rep) == {(0, 0), (0, 1), (1, 1)}


def test_subrep_vectors_zero_rep():
    rep = c3_rep({}, 0)
    assert subrep_dimension_vectors(rep) == {(0,)}


def test_subset_lattice_closed_under_union():
    fam = family_for("c3")
    for config in configurations(fam, 4):
        rep = configuration_to_module(fam, config)
        basis, closed = [], []
        # recompute closed subsets through the public surface
        vectors = subrep_dimension_vectors(rep)
        # union closure is checked on the subsets themselves
        from crepant.reps import _closed_subsets
        basis, masks = _closed_subsets(rep)
        mask_set = set(masks)
        for s in masks:
            for t in masks:
                assert (s | t) in mask_set


def test_theta_zero_never_unstable():
    fam = family_for("conifold")
    for config in configurations(fam, 4):
        rep = configuration_to_module(fam, config)
        theta = {v: 0 for v in rep.quiver.vertices}
        report = is_semistable(rep, theta)
        assert report.classification in ("stable", "semistable")


def test_inadmissible_theta_rejected():
    rep = c3_rep({}, 2)
    with pytest.raises(CrepantError):
        is_semistable(rep, {"0": 1})


def test_stability_scaling_invariance():
    fam = family_for("conifold")
    for config in configurations(fam, 4):
        rep = configuration_to_module(fam, config)
        alpha = rep.dimension_vector()
        theta = framed_theta({"0": -2, "1": Fraction(-1, 2)}, alpha,
                             rep.framed.framing_vertex)
        scaled = {v: 7 * x for v, x in theta.items()}
        assert is_semistable(rep, theta).classification == \
            is_semistable(rep, scaled).classification


def test_is_cyclic_examples():
    fam = family_for("c3")
    empty = configuration_to_module(fam, frozenset())
    assert is_cyclic(empty)
    two = configuration_to_module(fam, frozenset({(0, 0, 0), (1, 0, 0)}))
    assert is_cyclic(two)

    # an unreachable box: same quiver, but drop the arrow into it
    q = two.quiver
    vertex_of = dict(two.vertex_of)
    action = {name: dict(m) for name, m in two.action.items()}
    del action["z1_0"]
    broken = MonomialRepresentation(q, vertex_of, action, framed=two.framed)
    assert not is_cyclic(broken)


def test_is_cyclic_requires_framing():
    rep = c3_rep({}, 1)
    with pytest.raises(CrepantError):
        is_cyclic(rep)


def test_rep_json_round_trip():
    fam = family_for("conifold")
    config = max(configurations(fam, 3), key=lambda c: (len(c), sorted(c)))
    rep = configuration_to_module(fam, config)
    text = rep_to_json(rep)
    # atoms are stringified on serialization, so compare the JSON form
    rt = rep_from_json(text, rep.quiver, framed=rep.framed)
    assert rep_to_json(rt) == text
    assert is_cyclic(rt) == is_cyclic(rep)


# ---------------------------------------------------------------------------
# exhaustive stability = cyclicity sweeps

def assert_stable_iff_cyclic(rep):
    alpha = rep.dimension_vector()
    gauge = {v: -1 for v in rep.quiver.vertices
             if v != rep.framed.framing_vertex}
    theta = framed_theta(gauge, alpha, rep.framed.framing_vertex)
    verdict = is_semistable(rep, theta).classification
    if is_cyclic(rep):
        assert verdict == "stable", rep_to_json(rep)
    else:
        assert verdict == "unstable", rep_to_json(rep)


def test_cyclicity_equals_stability_c3_total_dim_5():
    count = 0
    for rep in framed_c3_modules(4):
        assert_stable_iff_cyclic(rep)
        count += 1
    assert count > 1000


def test_cyclicity_equals_stability_conifold_total_dim_6():
    count = 0
    for rep in framed_conifold_modules(5):
        assert_stable_iff_cyclic(rep)
        count += 1
    assert count > 1000


def test_cyclicity_equals_stability_c3_dim6_composites():
    """Gauge dimension 5: cyclic stacks plus a detached unreachable stack.

    The fully exhaustive sweep stops at gauge dimension 4; this covers the
    six-dimensional layer with every module of the form (crystal stack
    reachable from the framing) + (disjoint unreachable stack).
    """
    fam = family_for("c3")
    stacks = {n: [c for c in configurations(fam, 5) if len(c) == n]
              for n in range(6)}
    q, w = c3_quiver()
    fr = frame(q, w, "0")
    checked = 0
    for reach in range(6):
        for free in range(6 - reach):
            if free == 0 and reach < 5:
                continue
            for c1 in stacks[reach]:
                for c2 in stacks[free]:
                    if free and not c2:
                        continue
                    vertex_of = {("r", b): "0" for b in c1}
                    vertex_of.update({("u", b): "0" for b in c2})
                    vertex_of["fr"] = fr.framing_vertex
                    action = {}
                    for name, coord in (("x", 0), ("y", 1), ("z", 2)):
                        m = {}
                        for tag, conf in (("r", c1), ("u", c2)):
                            for b in conf:
                                img = list(b)
                                img[coord] += 1
                                img = tuple(img)
                                if img in conf:
                                    m[(tag, b)] = (tag, img)
                        if m:
                            action[name] = m
                    if c1:
                        action[fr.framing_arrow] = {"fr": ("r", (0, 0, 0))}
                    rep = MonomialRepresentation(fr.quiver, vertex_of, action,
                                                 framed=fr)
                    assert_stable_iff_cyclic(rep)
                    checked += 1
    assert checked > 50


small_theta = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@settings(max_examples=30, deadline=None)
@given(small_theta, st.integers(1, 9))
def test_scaling_preserves_classification_property(theta, scale):
    fam = family_for("conifold")
    config = max(configurations(fam, 3), key=lambda c: (len(c), sorted(c)))
    rep = configuration_to_module(fam, config)
    alpha = rep.dimension_vector()
    gauge = {"0": theta[0], "1": theta[1]}
    t1 = framed_theta(gauge, alpha, rep.framed.framing_vertex)
    t2 = {v: scale * x for v, x in t1.items()}
    assert is_semistable(rep, t1).classification == \
        is_semistable(rep, t2).classification


# ---------------------------------------------------------------------------
# integer weights against the Fraction scan

# zeros make tight ("semistable") subsets; the denominators 2, 3, 4 and 6
# make the integer weights differ from the numerators
RATIONALS = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
             Fraction(-5, 6))


def assert_matches_fraction_scan(rep, theta):
    report = is_semistable(rep, theta)
    assert report == fraction_is_semistable(rep, theta), rep_to_json(rep)
    return report.classification


def test_integer_weights_match_fraction_scan_on_crystal_modules():
    """Every c3 and conifold crystal module of total dimension <= 4, under
    every gauge theta over ``RATIONALS``: same verdict, same subset."""
    verdicts = set()
    for name in ("c3", "conifold"):
        fam = family_for(name)
        for config in configurations(fam, 3):
            rep = configuration_to_module(fam, config)
            assert len(rep.vertex_of) <= 4
            alpha = rep.dimension_vector()
            framing = rep.framed.framing_vertex
            gauge = rep.framed.gauge_vertices()
            for values in product(RATIONALS, repeat=len(gauge)):
                theta = framed_theta(dict(zip(gauge, values)), alpha, framing)
                verdicts.add(assert_matches_fraction_scan(rep, theta))
    assert verdicts == {"stable", "semistable", "unstable"}


@st.composite
def monomial_modules(draw):
    """A c3 or conifold module, framed at vertex 0 or not, on at most six
    basis elements, with each arrow a random partial injection."""
    name = draw(st.sampled_from(["c3", "conifold"]))
    q, w = c3_quiver() if name == "c3" else conifold_quiver()
    framed = frame(q, w, "0") if draw(st.booleans()) else None
    vertex_of = {i: draw(st.sampled_from(q.vertices))
                 for i in range(draw(st.integers(0, 5)))}
    if framed is not None:
        q = framed.quiver
        vertex_of["fr"] = framed.framing_vertex
    action = {}
    for arrow in q.arrows:
        sources = [b for b, v in vertex_of.items() if v == arrow.tail]
        targets = draw(st.permutations(
            [b for b, v in vertex_of.items() if v == arrow.head]))
        keep = draw(st.lists(st.booleans(), min_size=len(sources),
                             max_size=len(sources)))
        action[arrow.name] = {b: t for b, t, k in zip(sources, targets, keep)
                              if k}
    return MonomialRepresentation(q, vertex_of, action, framed=framed)


@settings(max_examples=300, deadline=None)
@given(monomial_modules(), st.lists(st.sampled_from(RATIONALS), min_size=3,
                                    max_size=3))
def test_integer_weights_match_fraction_scan_property(rep, values):
    """Random modules under a rational theta completed to an admissible one:
    framed at the framing entry, unframed at the last vertex with a basis
    element (any theta is admissible on the zero module)."""
    alpha = rep.dimension_vector()
    if rep.framed is not None:
        gauge = rep.framed.gauge_vertices()
        theta = framed_theta(dict(zip(gauge, values)), alpha,
                             rep.framed.framing_vertex)
    else:
        theta = dict(zip(rep.quiver.vertices, map(Fraction, values)))
        support = [v for v in rep.quiver.vertices if alpha[v]]
        if support:
            v = support[-1]
            rest = sum((theta[u] * alpha[u] for u in alpha if u != v),
                       Fraction(0))
            theta[v] = -rest / alpha[v]
    assert_matches_fraction_scan(rep, theta)


# ---------------------------------------------------------------------------
# the framing entry and admissibility on scaled ints against Fractions

theta_entries = st.one_of(
    st.sampled_from(RATIONALS),
    st.fractions(min_value=-100, max_value=100, max_denominator=60),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-50, 50),
              st.integers(1, 40)),
    st.integers(-9, 9).map(str))


def _error_text(call, *args):
    try:
        call(*args)
    except CrepantError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.lists(theta_entries, min_size=0, max_size=4),
       st.lists(st.integers(0, 7), min_size=5, max_size=5),
       st.tuples(theta_entries, theta_entries))
def test_scaled_ints_match_the_fraction_route_property(values, dims, pair):
    """Gauge theta over rationals and rational strings with random
    dimension vectors: ``framed_theta`` and ``theta_infinity`` equal their
    Fraction references entry for entry, every value a ``Fraction``, and an
    inadmissible theta gives ``is_semistable`` the reference's error text."""
    gauge = [str(i) for i in range(len(values))]
    theta = dict(zip(gauge, values))
    alpha = dict(zip(gauge, dims))
    alpha["inf"] = dims[-1]
    got = framed_theta(theta, alpha, "inf")
    assert got == fraction_framed_theta(theta, alpha, "inf")
    assert list(got) == gauge + ["inf"]
    assert all(type(x) is Fraction for x in got.values())
    gauge_alpha = {v: alpha[v] for v in gauge}
    entry = theta_infinity(theta, gauge_alpha)
    assert type(entry) is Fraction
    assert entry == fraction_theta_infinity(theta, gauge_alpha)

    # at most six basis elements: an admissible theta runs both scans
    rep = MonomialRepresentation(
        conifold_quiver()[0],
        {**{("a", i): "0" for i in range(dims[0] % 4)},
         **{("b", i): "1" for i in range(dims[1] % 4)}}, {})
    conifold_theta = dict(zip(("0", "1"), pair))
    expected = _error_text(fraction_is_semistable, rep, conifold_theta)
    assert _error_text(is_semistable, rep, conifold_theta) == expected


@pytest.mark.parametrize("dims,theta,text", [
    ((1, 0), {"0": "1/2", "1": 0}, "1/2"),
    ((3, 3), {"0": -1, "1": 0}, "-3"),
    ((3, 3), {"0": Fraction(1, 6), "1": "-1/4"}, "-1/4"),
])
def test_inadmissible_theta_text_is_the_fraction_text(dims, theta, text):
    """theta . alpha is printed as the reduced ``Fraction`` of the int
    pairing over the scale, as the Fraction route prints it."""
    rep = MonomialRepresentation(
        conifold_quiver()[0],
        {**{("a", i): "0" for i in range(dims[0])},
         **{("b", i): "1" for i in range(dims[1])}}, {})
    message = f"theta is not admissible: theta . alpha = {text}"
    for check in (is_semistable, fraction_is_semistable):
        assert _error_text(check, rep, theta) == message


def test_framed_stability_does_no_fraction_arithmetic(monkeypatch):
    """The ``framed_theta`` -> ``is_semistable`` path on every c3 and
    conifold crystal module of at most five atoms under integer gauges,
    with every ``Fraction`` operator it might use made to raise: the
    framing entry, the admissibility check and the scan work on ints."""
    cases = []
    for name in ("c3", "conifold"):
        fam = family_for(name)
        for config in configurations(fam, 5):
            rep = configuration_to_module(fam, config)
            gauge = rep.framed.gauge_vertices()
            for values in ((-1, -1), (2, -3), (0, 5)):
                cases.append((rep, dict(zip(gauge, values))))
    expected = [fraction_is_semistable(
        rep, fraction_framed_theta(gauge, rep.dimension_vector(),
                                   rep.framed.framing_vertex))
        for rep, gauge in cases]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the stability path")

    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
               "__neg__", "__eq__", "__lt__", "__gt__"):
        monkeypatch.setattr(Fraction, op, forbidden)
    with pytest.raises(AssertionError):
        Fraction(1) + 1
    got = []
    for rep, gauge in cases:
        theta = framed_theta(gauge, rep.dimension_vector(),
                             rep.framed.framing_vertex)
        got.append(is_semistable(rep, theta))
    monkeypatch.undo()
    assert got == expected
    assert len(cases) > 200
    assert {r.classification for r in got} >= {"stable", "unstable"}
