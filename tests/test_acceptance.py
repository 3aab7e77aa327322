"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance here is exact (integer or rational equality); runtime
budgets are asserted alongside the results.
"""

import subprocess
import sys
import time

from support import (agree_through, brute_affine_a1_roots,
                     brute_product_one_minus_qk_inverse, framed_c3_modules,
                     framed_conifold_modules)

from crepant.crystal import family_for, ncdt_series
from crepant.geometry import (builtin_geometry, verify_contraction,
                              verify_equivariance)
from crepant.mckay import AbelianAction, mckay_quiver, mckay_superpotential
from crepant.quiver import (Superpotential, local_p2_quiver,
                            relations_from_potential)
from crepant.reps import framed_theta, is_cyclic, is_semistable
from crepant.roots import CartanMatrix, positive_roots, walls_between
from crepant.series import product_series
from crepant.toric import (double_triangle, dual_web, flop_adjacent, p2_triangle,
                           unit_square, unit_triangulations)
from crepant.vertex import (TSeries, gv_extract, gw_partition_function,
                            partitions_of, transpose, vertex)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def ok(self):
        return self.elapsed < self.limit


def report(name, passed, budget):
    marker = "PASS" if passed and budget.ok() else "FAIL"
    print(f"[{marker}] {name} ({budget.elapsed:.2f}s / {budget.limit:.0f}s)")
    assert passed, name
    assert budget.ok(), f"{name} exceeded its runtime budget"


def test_criterion_1_triangulation_counts():
    budget = Budget(1.0)
    square = unit_triangulations(unit_square())
    triangle = unit_triangulations(double_triangle())
    ok = len(square) == 2 and len(triangle) == 4
    # flop graph on the four subdivisions is connected
    adj = {i: {j for j in range(4) if j != i
               and flop_adjacent(triangle[i], triangle[j])} for i in range(4)}
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    ok = ok and seen == {0, 1, 2, 3}
    report("criterion 1: triangulation counts and flop connectivity", ok, budget)


def test_criterion_2_geometry_identities():
    budget = Budget(5.0)
    equations = ("equation_chart1", "equation_chart2")
    ok = verify_contraction(builtin_geometry("conifold"), 100, seed=0,
                            only=equations).holds()
    for k in (1, 2, 3, 4):
        geo = builtin_geometry("laufer1", k=k)
        ok = ok and verify_contraction(geo, 100, seed=k, only=equations).holds()
        ok = ok and verify_equivariance(geo, 100, seed=k).holds()
    report("criterion 2: exact geometry identities at 100 points", ok, budget)


def test_criterion_3_mckay_relations():
    budget = Budget(1.0)
    act = AbelianAction.cyclic(3, (1, 1, 1))
    q = mckay_quiver(act)
    w = mckay_superpotential(act)
    ok = len(q.vertices) == 3 and len(q.arrows) == 9
    rels = relations_from_potential(q, w)
    ok = ok and len(rels) == 9
    for rel in rels:
        terms = rel.sorted_terms()
        ok = ok and len(terms) == 2 and sorted(c for _, c in terms) == [-1, 1]
        ok = ok and all(len(p.arrows) == 2 for p, _ in terms)
        (p1, _), (p2, _) = terms
        ok = ok and (p1.source, p1.target) == (p2.source, p2.target)
    rename = {f"z{i}_{v}": f"{'abc'[v]}{i}"
              for i in (1, 2, 3) for v in (0, 1, 2)}
    renamed = Superpotential([(t.coeff, tuple(rename[x] for x in t.word))
                              for t in w.terms])
    ok = ok and renamed == local_p2_quiver()[1]
    report("criterion 3: Z3 McKay quiver, potential, and relation shapes",
           ok, budget)


def test_criterion_4_crystal_oracle():
    budget = Budget(30.0)
    series = ncdt_series(family_for("c3"), 8)
    product = product_series(("q0",), 8, [(-1, (k,), -k) for k in range(1, 9)])
    ok = series == product
    brute = brute_product_one_minus_qk_inverse(6)
    small = product_series(("q",), 6, [(-1, (k,), -k) for k in range(1, 7)])
    ok = ok and {e[0]: c for e, c in small.terms.items()} == brute
    ok = ok and [series.coefficient((d,)) for d in range(7)] == \
        [1, 1, 3, 6, 13, 24, 48]
    report("criterion 4: crystal series equals the product expansion", ok, budget)


def test_criterion_5_stability_equals_cyclicity():
    budget = Budget(60.0)
    checked = 0
    ok = True
    for generator in (framed_c3_modules(4), framed_conifold_modules(4)):
        for rep in generator:
            alpha = rep.dimension_vector()
            gauge = {v: -1 for v in rep.quiver.vertices
                     if v != rep.framed.framing_vertex}
            theta = framed_theta(gauge, alpha, rep.framed.framing_vertex)
            verdict = is_semistable(rep, theta).classification
            expected = "stable" if is_cyclic(rep) else "unstable"
            if verdict != expected:
                ok = False
                break
            checked += 1
    ok = ok and checked > 100000
    report(f"criterion 5: stability = cyclicity on {checked} framed modules",
           ok, budget)


def test_criterion_6_conifold_vertex_oracle():
    budget = Budget(60.0)
    web = dual_web(unit_triangulations(unit_square())[0])
    glued = gw_partition_function(web, 4, t_cutoff=20)

    # partition-sum oracle: pairs of one-leg amplitudes through the transpose
    ok = True
    for d in range(5):
        total = TSeries.zero(26)
        for lam in partitions_of(d):
            a = vertex((), (), lam, 26)
            b = vertex((), (), transpose(lam), 26)
            total = total + (a * b).scale(-1 if d % 2 else 1)
        got = glued.coefficient((d,))
        ok = ok and agree_through(got, total, 20)

    # product expansion oracle
    coeffs = {0: TSeries.one(24)}
    from crepant.series import general_binomial
    for k in range(1, 13):
        new = {}
        for dq, ts in coeffs.items():
            for j in range(4 - dq + 1):
                c = general_binomial(k, j) * (-1) ** j
                if c:
                    term = ts * TSeries.monomial(2 * k * j, c, 24)
                    new[dq + j] = new.get(dq + j, TSeries.zero(24)) + term
        coeffs = new
    for d in range(5):
        ok = ok and agree_through(glued.coefficient((d,)), coeffs[d], 20)

    table = gv_extract(glued)
    ok = ok and table[(0, 1)] == 1
    ok = ok and all(table[(0, d)] == 0 for d in (2, 3, 4))
    ok = ok and all(g == 0 for (g, _), _ in table.rows())
    report("criterion 6: conifold vertex sum = product, n0_1 = 1", ok, budget)


def test_criterion_7_local_p2_integrality():
    budget = Budget(300.0)
    web = dual_web(unit_triangulations(p2_triangle())[0])
    forward = gv_extract(gw_partition_function(web, 3, t_cutoff=26))
    reverse = gv_extract(gw_partition_function(web, 3, t_cutoff=26,
                                               reverse_edges=True))
    ok = forward.rows() == reverse.rows()
    ok = ok and all(v == int(v) for _, v in forward.rows())
    ok = ok and [forward[(0, d)] for d in (1, 2, 3)] == [3, -6, 27]
    report("criterion 7: local P2 integral invariants from two orders",
           ok, budget)


def test_criterion_8_root_system():
    budget = Budget(1.0)
    cm = CartanMatrix(("0", "1"), ((2, -2), (-2, 2)))
    roots = positive_roots(cm, 9)
    reals = {r.vector for r in roots if r.kind == "real"}
    imags = {r.vector for r in roots if r.kind == "imaginary"}
    oracle_reals, oracle_imags = brute_affine_a1_roots(9)
    ok = reals == oracle_reals and imags == oracle_imags

    theta = (3, -1)
    walls = walls_between(theta, tuple(-t for t in theta), roots)
    nonzero = {r.vector for r in roots
               if 3 * r.vector[0] - r.vector[1] != 0}
    ok = ok and {r.vector for r in walls.separating} == nonzero
    ok = ok and {r.vector for r in walls.on_wall} == \
        {r.vector for r in roots} - nonzero
    report("criterion 8: affine A1 roots match the reflection oracle", ok, budget)


def test_criterion_9_cli_determinism(tmp_path):
    budget = Budget(120.0)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(
        '{"basis": [{"id": "b0", "vertex": "0"}, {"id": "b1", "vertex": "1"}],'
        ' "actions": [{"arrow": "A", "pairs": [["b0", "b1"]]}]}')
    commands = [
        ("mckay", "3:1,1,1", "--potential"),
        ("relations", "--mckay", "3:1,1,1"),
        ("frame", "--builtin", "conifold", "--v0", "0"),
        ("stability", "--builtin", "conifold", "--rep", str(rep_path),
         "--theta", "0=1,1=-1"),
        ("roots", "--cartan", "[[2,-2],[-2,2]]", "--height", "8"),
        ("walls", "--cartan", "[[2,-2],[-2,2]]", "--height", "6",
         "--theta1=3,-1", "--theta2=-3,1"),
        ("ncdt", "c3", "--order", "6"),
        ("ncdt", "conifold", "--order", "4"),
        ("triangulate", "--square"),
        ("flops", "--triangle2"),
        ("web", "--p2"),
        ("gw", "--square", "--order", "3", "--t-order", "12"),
        ("gv", "--square", "--order", "3", "--t-order", "16", "--json"),
        ("--seed", "3", "verify-geometry", "laufer1", "--k", "2",
         "--trials", "20"),
        ("compare", "conifold", "--order", "2", "--theta", "0=-1,1=-2",
         "--map", "q0=-Q0*t,q1=Q0", "--json"),
    ]
    ok = True
    for args in commands:
        runs = [subprocess.run([sys.executable, "-m", "crepant", *args],
                               capture_output=True) for _ in range(2)]
        ok = ok and runs[0].returncode == runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout
    report("criterion 9: CLI outputs byte-identical across runs", ok, budget)
