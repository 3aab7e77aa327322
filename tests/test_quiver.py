"""Path composition, cyclic derivatives, relations, framing, JSON."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (REPEAT_AND_LOOP_JSON, per_arrow_cyclic_derivative,
                     small_quivers)

from crepant.errors import CrepantError
from crepant.quiver import (CyclicWord, PathAlgebraElement, Quiver,
                            Superpotential, c3_quiver, compose,
                            conifold_quiver, frame, laufer_quiver, local_p2_quiver, quiver_from_json,
                            quiver_to_json, relations_from_potential)


@pytest.fixture
def conifold():
    return conifold_quiver()


def test_compose_identity_and_endpoints(conifold):
    q, _ = conifold
    e0 = q.path((), at="0")
    assert compose(e0, e0) == e0
    a = q.path(("A",))
    c = q.path(("C",))
    ac = compose(a, c)
    assert ac == q.path(("A", "C"))
    assert ac.source == ac.target == "0"
    b = q.path(("B",))
    assert compose(a, b) is None


def test_compose_trivial_path_is_identity(conifold):
    q, _ = conifold
    a = q.path(("A",))
    assert compose(q.path((), at="0"), a) == a
    assert compose(a, q.path((), at="1")) == a


def test_compose_associative_on_short_conifold_paths(conifold):
    q, _ = conifold
    paths = [q.path((), at=v) for v in q.vertices]
    names = [a.name for a in q.arrows]
    for k in (1, 2, 3):
        for seq in itertools.product(names, repeat=k):
            try:
                paths.append(q.path(seq))
            except CrepantError:
                pass
    for p1 in paths:
        for p2 in paths:
            for p3 in paths:
                left = compose(p1, p2)
                right = compose(p2, p3)
                lhs = compose(left, p3) if left else None
                rhs = compose(p1, right) if right else None
                assert lhs == rhs


def test_cyclic_derivative_conifold(conifold):
    q, w = conifold
    d = per_arrow_cyclic_derivative(q, w, "A")
    expected = PathAlgebraElement([(q.path(("D", "B", "C")), 1),
                                   (q.path(("C", "B", "D")), -1)])
    assert d == expected


def test_cyclic_derivative_is_rotation_invariant(conifold):
    q, _ = conifold
    w1 = Superpotential([(1, ("B", "C", "A", "D")), (-1, ("A", "C", "B", "D"))])
    w2 = Superpotential([(1, ("A", "D", "B", "C")), (-1, ("B", "D", "A", "C"))])
    assert w1 == w2
    for name in "ABCD":
        assert per_arrow_cyclic_derivative(q, w1, name) == \
            per_arrow_cyclic_derivative(q, w2, name)


@pytest.mark.parametrize("m", range(1, 9))
def test_loop_power_rule(m):
    q = Quiver(("v",), [("X", "v", "v")])
    w = Superpotential([(1, ("X",) * m)])
    d = per_arrow_cyclic_derivative(q, w, "X")
    assert d == PathAlgebraElement([(q.path(("X",) * (m - 1), at="v"), m)])


def test_cyclic_derivative_unknown_arrow(conifold):
    q, w = conifold
    with pytest.raises(CrepantError):
        per_arrow_cyclic_derivative(q, w, "nope")


def test_relations_conifold_count_and_shape(conifold):
    q, w = conifold
    rels = relations_from_potential(q, w)
    assert len(rels) == 4
    for rel in rels:
        terms = rel.sorted_terms()
        assert len(terms) == 2
        assert sorted(c for _, c in terms) == [-1, 1]
        (p1, _), (p2, _) = terms
        assert (p1.source, p1.target) == (p2.source, p2.target)


def test_relations_zero_potential(conifold):
    q, _ = conifold
    assert relations_from_potential(q, Superpotential()) == []


def test_relations_match_the_per_arrow_oracle():
    """One pass over the words gives the nonzero cyclic derivatives by each
    arrow, in arrow-name order, as one derivative per arrow does."""
    quivers = list(small_quivers())
    assert len(quivers) == 213
    for name, q, w in quivers:
        derivatives = (per_arrow_cyclic_derivative(q, w, a)
                       for a in sorted(a.name for a in q.arrows))
        assert relations_from_potential(q, w) == \
            [d for d in derivatives if not d.is_zero()], name


def test_relations_of_a_repeated_arrow_and_a_loop_word():
    """Each occurrence of a counts, and the one-arrow word x leaves the
    trivial path at its vertex."""
    q, w = quiver_from_json(REPEAT_AND_LOOP_JSON)
    assert [str(r) for r in relations_from_potential(q, w)] == [
        "4*b*a*b + b*x*x", "4*a*b*a + x*x*a", "- 3*e_0 + a*b*x + x*a*b"]


def test_relations_validate_the_potential_on_a_quiver_without_arrows():
    q = Quiver(("v",), [])
    with pytest.raises(CrepantError, match="unknown arrow 'x'"):
        relations_from_potential(q, Superpotential([(1, ("x",))]))


def test_frame_counts(conifold):
    q, w = conifold
    f = frame(q, w, "0")
    assert len(f.quiver.vertices) == 3
    assert len(f.quiver.arrows) == 5
    assert f.potential == w

    c3, w3 = c3_quiver()
    f3 = frame(c3, w3, "0")
    assert (len(f3.quiver.vertices), len(f3.quiver.arrows)) == (2, 4)

    ff = frame(f, w, f.base_vertex)
    assert (len(ff.quiver.vertices), len(ff.quiver.arrows)) == (4, 6)
    assert (ff.framing_vertex, ff.framing_arrow) == ("inf1", "fr1")
    fff = frame(ff, w, f.base_vertex)
    assert (fff.framing_vertex, fff.framing_arrow) == ("inf2", "fr2")


def test_frame_unknown_vertex(conifold):
    q, w = conifold
    with pytest.raises(CrepantError):
        frame(q, w, "7")


def test_json_round_trip_is_byte_stable(conifold):
    q, w = conifold
    text = quiver_to_json(q, w)
    q2, w2 = quiver_from_json(text)
    assert (q2, w2) == (q, w)
    assert quiver_to_json(q2, w2) == text


def test_laufer_potential_signs():
    q, w = laufer_quiver(1)  # (-1)^(n(n-1)/2) = 1
    coeffs = {t.word: t.coeff for t in w.terms}
    assert coeffs[("X", "X")] == -1
    assert coeffs[("Y", "Y")] == -1
    q2, w2 = laufer_quiver(2)  # sign flips
    coeffs2 = {t.word: t.coeff for t in w2.terms}
    assert coeffs2[("X",) * 3] == 1
    assert coeffs2[("Y",) * 3] == 1
    # four mixed cubic terms with the printed coefficients survive merging
    cubes = {word: c for word, c in coeffs.items() if len(set(word)) == 3}
    assert sorted(cubes.values()) == [-1, -1, 1, 1]
    w.validate_on(q)
    w2.validate_on(q2)


def test_laufer_relations_exist_for_all_arrows():
    q, w = laufer_quiver(3)
    rels = relations_from_potential(q, w)
    assert len(rels) == 6


def test_p2_quiver_shape():
    q, w = local_p2_quiver()
    assert len(q.vertices) == 3 and len(q.arrows) == 9
    assert len(w.terms) == 6
    rels = relations_from_potential(q, w)
    assert len(rels) == 9


words = st.lists(st.sampled_from("ABCD"), min_size=1, max_size=6).map(tuple)


@settings(max_examples=100, deadline=None)
@given(words, st.integers(0, 5))
def test_canonical_rotation_idempotent(word, shift):
    w1 = CyclicWord(word, 1)
    rotated = word[shift % len(word):] + word[:shift % len(word)]
    w2 = CyclicWord(rotated, 1)
    assert w1.word == w2.word
    assert CyclicWord(w1.word, 1).word == w1.word


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), words), max_size=5))
def test_superpotential_merges_rotations(terms):
    w = Superpotential(terms)
    seen = set()
    for term in w.terms:
        assert term.coeff != 0
        assert term.word not in seen
        seen.add(term.word)
        assert CyclicWord(term.word, 1).word == term.word
