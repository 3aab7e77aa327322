"""Monomial representations: relations, subsets, stability, cyclicity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import framed_c3_modules, framed_conifold_modules

from crepant.crystal import configuration_to_module, configurations, family_for
from crepant.errors import CrepantError
from crepant.quiver import c3_quiver, conifold_quiver, frame, relations_from_potential
from crepant.reps import (MonomialRepresentation, check_relations, framed_theta,
                          is_cyclic, is_semistable, rep_from_json, rep_to_json,
                          subrep_dimension_vectors, theta_infinity)


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
