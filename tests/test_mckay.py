"""McKay quiver construction for diagonal cyclic actions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (SMALL_ACTIONS, per_arrow_cyclic_derivative,
                     six_orientation_superpotential)

from crepant.errors import CrepantError
from crepant.mckay import (AbelianAction, mckay_quiver, mckay_superpotential,
                           parse_action)
from crepant.quiver import (Superpotential, local_p2_quiver,
                            relations_from_potential)


def test_action_validation():
    AbelianAction.cyclic(3, (1, 1, 1))
    with pytest.raises(CrepantError):
        AbelianAction.cyclic(3, (1, 1, 2))  # weights sum to 4 != 0 mod 3
    with pytest.raises(CrepantError):
        AbelianAction.cyclic(0, (0, 0, 0))


def test_parse_action():
    act = parse_action("7:1,1,5")
    assert act.orders == (7,) and act.weights == ((1,), (1,), (5,))
    with pytest.raises(CrepantError):
        parse_action("7:1,1")


def test_z3_quiver_counts():
    q = mckay_quiver(AbelianAction.cyclic(3, (1, 1, 1)))
    assert len(q.vertices) == 3
    assert len(q.arrows) == 9
    for a in q.arrows:
        assert a.head == str((int(a.tail) + 1) % 3)


def test_n1_is_three_loops():
    q = mckay_quiver(AbelianAction.cyclic(1, (0, 0, 0)))
    assert len(q.vertices) == 1
    assert len(q.arrows) == 3
    assert all(a.tail == a.head for a in q.arrows)


def test_n2_crossing_and_loops():
    q = mckay_quiver(AbelianAction.cyclic(2, (1, 1, 0)))
    crossing = [a for a in q.arrows if a.tail != a.head]
    loops = [a for a in q.arrows if a.tail == a.head]
    assert len(crossing) == 4 and len(loops) == 2
    assert all(a.name.startswith("z3") for a in loops)


def _arrow_heads(act):
    """(tail character, coordinate i) -> head character, read off the McKay
    quiver's arrows z{i}_{tail}: the target character of multiplication by
    z_i on each graded piece."""
    return {(a.tail, int(a.name[1])): a.head for a in mckay_quiver(act).arrows}


def test_character_table_examples():
    table = _arrow_heads(AbelianAction.cyclic(3, (1, 1, 1)))
    assert table[("0", 1)] == "1" and table[("1", 1)] == "2" and table[("2", 1)] == "0"
    t1 = _arrow_heads(AbelianAction.cyclic(1, (0, 0, 0)))
    assert set(t1.values()) == {"0"}
    t7 = _arrow_heads(AbelianAction.cyclic(7, (1, 1, 5)))
    assert t7[("0", 3)] == "5"


def test_z3_potential_matches_printed_six_terms():
    """The constructed potential equals the three-vertex antisymmetrized one.

    Rename the generated arrows by their (coordinate, source) roles onto the
    a/b/c labels of the printed quiver and compare superpotentials exactly.
    """
    act = AbelianAction.cyclic(3, (1, 1, 1))
    w = mckay_superpotential(act)
    rename = {}
    for i in (1, 2, 3):
        rename[f"z{i}_0"] = f"a{i}"
        rename[f"z{i}_1"] = f"b{i}"
        rename[f"z{i}_2"] = f"c{i}"
    renamed = Superpotential([(t.coeff, tuple(rename[x] for x in t.word))
                              for t in w.terms])
    _, printed = local_p2_quiver()
    assert renamed == printed


def test_n1_commutator_potential():
    w = mckay_superpotential(AbelianAction.cyclic(1, (0, 0, 0)))
    coeffs = sorted(t.coeff for t in w.terms)
    assert coeffs == [-1, 1]
    assert all(len(t.word) == 3 for t in w.terms)


def test_z3_relations_have_commutation_shape():
    act = AbelianAction.cyclic(3, (1, 1, 1))
    q = mckay_quiver(act)
    w = mckay_superpotential(act)
    rels = relations_from_potential(q, w)
    assert len(rels) == 9
    for rel in rels:
        terms = rel.sorted_terms()
        assert len(terms) == 2
        assert sorted(c for _, c in terms) == [-1, 1]
        (p1, _), (p2, _) = terms
        assert len(p1.arrows) == len(p2.arrows) == 2
        assert (p1.source, p1.target) == (p2.source, p2.target)


triples = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1)))


@settings(max_examples=60, deadline=None)
@given(triples)
def test_quiver_invariants_all_weights(data):
    n, w1, w2 = data
    act = AbelianAction.cyclic(n, (w1, w2, (-w1 - w2) % n))
    q = mckay_quiver(act)
    assert len(q.arrows) == 3 * n
    indeg = {v: 0 for v in q.vertices}
    for a in q.arrows:
        indeg[a.head] += 1
    assert set(indeg.values()) == {3}


@settings(max_examples=40, deadline=None)
@given(triples)
def test_weight_permutation_gives_isomorphic_quiver(data):
    n, w1, w2 = data
    weights = (w1, w2, (-w1 - w2) % n)
    act = AbelianAction.cyclic(n, weights)
    permuted = AbelianAction.cyclic(n, (weights[1], weights[2], weights[0]))
    q1, q2 = mckay_quiver(act), mckay_quiver(permuted)
    # relabel arrows by the weight permutation; vertices map identically
    relabel = {"z1": "z3", "z2": "z1", "z3": "z2"}
    mapped = sorted((relabel[a.name[:2]] + a.name[2:], a.tail, a.head)
                    for a in q1.arrows)
    assert mapped == sorted((a.name, a.tail, a.head) for a in q2.arrows)


@settings(max_examples=30, deadline=None)
@given(triples)
def test_potential_cycles_and_derivative_shapes(data):
    n, w1, w2 = data
    act = AbelianAction.cyclic(n, (w1, w2, (-w1 - w2) % n))
    q = mckay_quiver(act)
    w = mckay_superpotential(act)
    w.validate_on(q)
    for term in w.terms:
        assert len(term.word) == 3
        assert {name.split("_")[0] for name in term.word} == {"z1", "z2", "z3"}
    for arrow in q.arrows:
        d = per_arrow_cyclic_derivative(q, w, arrow.name)
        terms = d.sorted_terms()
        assert len(terms) == 2
        assert sorted(c for _, c in terms) == [-1, 1]
        assert all(len(p.arrows) == 2 for p, _ in terms)


def test_product_group_constructs():
    act = AbelianAction((2, 2), ((1, 0), (0, 1), (1, 1)))
    q = mckay_quiver(act)
    assert len(q.vertices) == 4 and len(q.arrows) == 12
    mckay_superpotential(act).validate_on(q)


def test_z3_derivative_exact_value():
    act = AbelianAction.cyclic(3, (1, 1, 1))
    q = mckay_quiver(act)
    w = mckay_superpotential(act)
    d = per_arrow_cyclic_derivative(q, w, "z1_0")  # the a1 arrow out of vertex 0
    terms = {p.arrows: c for p, c in d.terms.items()}
    assert terms == {("z2_1", "z3_2"): 1, ("z3_1", "z2_2"): -1}


def test_superpotential_matches_the_six_orientation_oracle():
    assert len(SMALL_ACTIONS) == 205
    for act in SMALL_ACTIONS:
        w = mckay_superpotential(act)
        assert w == six_orientation_superpotential(act), act
        assert len(w.terms) == 2 * act.size, act
        assert sorted({t.coeff for t in w.terms}) == [-1, 1], act
