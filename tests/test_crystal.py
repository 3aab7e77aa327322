"""Crystal counts against independent order-ideal oracles and product formulas."""

from functools import cache

import pytest
from support import reverse_search_ideals

from crepant.crystal import (configuration_to_module, configurations,
                             enumerate_configurations, dimension_vector,
                             family_for, ncdt_series)
from crepant.errors import CrepantError
from crepant.mckay import AbelianAction, parse_action
from crepant.quiver import relations_from_potential
from crepant.reps import check_relations, framed_theta, is_cyclic, is_semistable
from crepant.series import FormalSeries, product_series


def ideal_oracle(family, max_size):
    """Breadth-first ideal enumeration deduplicated by the sets themselves.

    Independent of the layer-chain walk and of the reverse search: no layer
    rule and no canonical-parent rule, just set semantics.
    """
    seen = {frozenset()}
    frontier = [frozenset()]
    for _ in range(max_size):
        new = []
        for ideal in frontier:
            cands = {family.apex} if not ideal else \
                {s for a in ideal for s in family.successors(a)} - ideal
            for atom in cands:
                if all(p in ideal for p in family.predecessors(atom)):
                    grown = ideal | {atom}
                    if grown not in seen:
                        seen.add(grown)
                        new.append(grown)
        frontier = new
    return seen


def counts_by_dimension(family, ideals):
    out = {}
    for ideal in ideals:
        d = dimension_vector(family, ideal)
        out[d] = out.get(d, 0) + 1
    return out


def pyramid_product(order):
    # prod_k (1+q0^k q1^(k-1))^k (1+q0^k q1^(k+1))^k (1-q0^k q1^k)^(-2k)
    factors = []
    for k in range(1, order + 2):
        factors.append((1, (k, k - 1), k))
        factors.append((1, (k, k + 1), k))
        factors.append((-1, (k, k), -2 * k))
    return product_series(("q0", "q1"), order, factors)


def test_c3_counts_match_oracle_and_known_values():
    fam = family_for("c3")
    counts = enumerate_configurations(fam, 6)
    oracle = counts_by_dimension(fam, ideal_oracle(fam, 6))
    assert counts == oracle
    assert [counts.get((d,), 0) for d in range(7)] == [1, 1, 3, 6, 13, 24, 48]


def test_conifold_counts_match_oracle():
    fam = family_for("conifold")
    counts = enumerate_configurations(fam, 5)
    oracle = counts_by_dimension(fam, ideal_oracle(fam, 5))
    assert counts == oracle
    by_size = {}
    for d, c in counts.items():
        by_size[sum(d)] = by_size.get(sum(d), 0) + c
    assert [by_size.get(i, 0) for i in range(6)] == [1, 1, 2, 5, 10, 18]


def test_conifold_counts_match_closed_product_form():
    # two-colour refinement of the pyramid count equals the closed product
    assert pyramid_product(6) == ncdt_series(family_for("conifold"), 6)


def test_conifold_small_dimension_refinement():
    fam = family_for("conifold")
    counts = enumerate_configurations(fam, 3)
    assert counts == {(0, 0): 1, (1, 0): 1, (1, 1): 2, (2, 1): 4, (1, 2): 1}


def test_z3_counts_small():
    fam = family_for(AbelianAction.cyclic(3, (1, 1, 1)))
    counts = enumerate_configurations(fam, 2)
    assert counts[(1, 0, 0)] == 1
    assert counts.get((1, 1, 0), 0) == 3
    assert (2, 0, 0) not in counts
    oracle = counts_by_dimension(fam, ideal_oracle(fam, 4))
    assert enumerate_configurations(fam, 4) == oracle


def test_family_for_resolves_mckay_descriptors():
    by_text = family_for("mckay:3:1,1,1")
    assert by_text.act == AbelianAction.cyclic(3, (1, 1, 1))
    for bad in ("3:1,1,1", "C3", None):
        with pytest.raises(CrepantError, match="unknown crystal family"):
            family_for(bad)
    with pytest.raises(CrepantError, match="bad action descriptor"):
        family_for("mckay:3:1,1")


def test_enumeration_has_no_duplicates():
    fam = family_for("conifold")
    seen = list(configurations(fam, 4))
    assert len(seen) == len(set(seen))


def test_c3_monotonicity():
    fam = family_for("c3")
    counts = enumerate_configurations(fam, 8)
    by_size = {}
    for d, c in counts.items():
        by_size[sum(d)] = by_size.get(sum(d), 0) + c
    for d in range(1, 9):
        assert by_size[d] >= by_size[d - 1]


def test_configuration_to_module_examples():
    fam3 = family_for(AbelianAction.cyclic(3, (1, 1, 1)))
    empty = configuration_to_module(fam3, frozenset())
    assert is_cyclic(empty)
    assert sum(empty.dimension_vector().values()) == 1  # framing line only

    single = configuration_to_module(fam3, frozenset({(0, 0, 0)}))
    dims = single.dimension_vector()
    assert dims["0"] == 1 and dims["1"] == 0 and dims["2"] == 0

    fam1 = family_for("c3")
    rels = relations_from_potential(fam1.quiver, fam1.potential)
    two = configuration_to_module(fam1, frozenset({(0, 0, 0), (1, 0, 0)}))
    assert check_relations(two, rels)
    assert two.apply_arrow("z1_0", (0, 0, 0)) == (1, 0, 0)


def test_modules_satisfy_relations_and_are_cyclic_and_stable():
    for name in ("c3", "conifold"):
        fam = family_for(name)
        rels = relations_from_potential(fam.quiver, fam.potential)
        for config in configurations(fam, 5):
            rep = configuration_to_module(fam, config)
            assert check_relations(rep, rels)
            assert is_cyclic(rep)
            alpha = rep.dimension_vector()
            gauge = {v: -1 for v in fam.framed.gauge_vertices()}
            theta = framed_theta(gauge, alpha, rep.framed.framing_vertex)
            assert is_semistable(rep, theta).classification == "stable"


def test_ncdt_series_c3_matches_product_oracle():
    fam = family_for("c3")
    series = ncdt_series(fam, 8)
    product = product_series(("q0",), 8,
                             [(-1, (k,), -k) for k in range(1, 9)])
    assert series == product


def test_ncdt_series_degree_zero():
    series = ncdt_series(family_for("conifold"), 0)
    assert series == FormalSeries.one(series.vars, 0)


def test_ncdt_z3_total_degree_two():
    fam = family_for(AbelianAction.cyclic(3, (1, 1, 1)))
    series = ncdt_series(fam, 2)
    assert series.coefficient((1, 0, 0)) == 1
    assert series.coefficient((1, 1, 0)) == 3
    assert series.coefficient((2, 0, 0)) == 0


def test_ncdt_sign_conventions():
    fam = family_for("c3")
    unsigned = ncdt_series(fam, 4)
    signed = ncdt_series(fam, 4, sign="dimension")
    for exps, coeff in unsigned.terms.items():
        assert signed.coefficient(exps) == (-1) ** sum(exps) * coeff
    with pytest.raises(CrepantError):
        ncdt_series(fam, 2, sign="bogus")


def test_colour_specialization_consistency():
    for n, weights in ((2, (1, 1, 0)), (3, (1, 1, 1))):
        fam = family_for(AbelianAction.cyclic(n, weights))
        refined = ncdt_series(fam, 6).collapse()
        plain = ncdt_series(family_for("c3"), 6).collapse()
        assert refined == plain


def test_union_of_ideals_is_ideal():
    fam = family_for("conifold")
    ideals = list(configurations(fam, 3))
    for a in ideals:
        for b in ideals:
            union = a | b
            assert all(p in union for atom in union
                       for p in fam.predecessors(atom))


def test_pyramid_predecessor_successor_duality():
    fam = family_for("conifold")
    atoms = set()
    frontier = {fam.apex}
    for _ in range(6):
        atoms |= frontier
        frontier = {s for a in frontier for s in fam.successors(a)} - atoms
    atoms |= frontier
    for atom in atoms:
        for s in fam.successors(atom):
            assert atom in set(fam.predecessors(s)), (atom, s)
        for p in fam.predecessors(atom):
            assert atom in set(fam.successors(p)), (p, atom)


FAMILIES = ["c3", "conifold", "3:1,1,1", "2:1,1,0", "5:1,1,3"]


def named_family(name):
    return family_for(parse_action(name) if ":" in name else name)


ORACLE_TOP = 11


@cache
def oracle_ideals(name):
    return frozenset(reverse_search_ideals(named_family(name), ORACLE_TOP))


@pytest.mark.parametrize("name", FAMILIES)
def test_layer_dp_matches_reverse_search(name):
    fam = named_family(name)
    listed = counts_by_dimension(fam, oracle_ideals(name))
    for n in range(ORACLE_TOP + 1):
        expected = {d: c for d, c in listed.items() if sum(d) <= n}
        assert enumerate_configurations(fam, n) == expected, n


@pytest.mark.parametrize("name", FAMILIES)
def test_layer_walk_matches_reverse_search(name):
    fam = named_family(name)
    oracle = oracle_ideals(name)
    for n in range(ORACLE_TOP + 1):
        listed = list(configurations(fam, n))
        assert listed[0] == frozenset()
        assert len(listed) == len(set(listed)), n
        assert set(listed) == {i for i in oracle if len(i) <= n}, n
    assert all(p in ideal for ideal in listed for atom in ideal
               for p in fam.predecessors(atom))


@pytest.mark.parametrize("name", ["c3", "conifold", "3:1,1,1"])
def test_layer_walk_matches_layer_dp_past_the_oracle(name):
    fam = named_family(name)
    top = 15
    assert counts_by_dimension(fam, configurations(fam, top)) == \
        enumerate_configurations(fam, top)


def test_layer_dp_c3_matches_macmahon_to_order_20():
    order = 20
    product = product_series(("q0",), order,
                             [(-1, (k,), -k) for k in range(1, order + 1)])
    assert ncdt_series(family_for("c3"), order) == product


def test_layer_dp_conifold_matches_pyramid_product_to_order_18():
    order = 18
    assert ncdt_series(family_for("conifold"), order) == pyramid_product(order)


@pytest.mark.parametrize("name", ["c3", "conifold"])
def test_atoms_are_graded_with_predecessors_one_layer_down(name):
    fam = family_for(name)

    def layer(atom):
        return fam.sort_key(atom)[0]

    assert layer(fam.apex) == 0
    atoms, frontier = set(), {fam.apex}
    while frontier:
        atoms |= frontier
        frontier = {s for a in frontier for s in fam.successors(a)
                    if layer(s) <= 8} - atoms
    assert max(map(layer, atoms)) == 8
    for atom in atoms - {fam.apex}:
        preds = list(fam.predecessors(atom))
        assert preds, atom
        assert all(layer(p) == layer(atom) - 1 for p in preds), atom
    assert not list(fam.predecessors(fam.apex))


def test_negative_size_bound_is_a_domain_error():
    for fam in (family_for("c3"), family_for("conifold")):
        with pytest.raises(CrepantError, match="nonnegative"):
            enumerate_configurations(fam, -1)
        with pytest.raises(CrepantError, match="nonnegative"):
            next(configurations(fam, -1))
