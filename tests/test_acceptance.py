"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each test prints a PASS line on success (visible with ``pytest -s`` or in
the captured output); a failure prints the offending cases.  Everything
asserted here is exact rational arithmetic; the only inequalities are the
wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import gcd


from plumbcalc.census import minimal_det_one
from plumbcalc.classify import classify
from plumbcalc.graph import (
    PlumbingGraph,
    canonical_code,
    delete,
    is_isomorphic,
    is_minimal,
    nodes,
    subgraph,
)
from plumbcalc.lattice import chi, determinant, is_negative_definite
from plumbcalc.laufer import is_rational, z_min, zmin_multiplicities
from plumbcalc.seifert import (
    SeifertData,
    brieskorn_seifert,
    foliation_criterion,
    orbifold_euler,
    pinkham_nonrational,
    realizable,
    seifert_to_graph,
    star_to_seifert,
)
from plumbcalc.surgery import (
    TAG_CASE1,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    cut_and_fill,
    lo_certificate,
)

from oracles import reference_chi, reference_laufer_run, with_weight
from test_surgery import _walk, seeded_mutations


def _report(number: int, description: str, failures: list, elapsed: float,
            budget: float | None = None) -> None:
    status = "PASS" if not failures and (budget is None or elapsed <= budget) else "FAIL"
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description} "
          f"[{elapsed:.1f}s{budget_note}]")
    assert not failures, failures[:10]
    if budget is not None:
        assert elapsed <= budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_e8_fixture(e8):
    t0 = time.perf_counter()
    failures = []
    rep = classify(e8)
    if not (rep.rational and rep.det == 1 and rep.zhs):
        failures.append(f"classify: {rep}")
    z, _ = z_min(e8)
    if chi(e8, z) != 1:
        failures.append(f"chi(Z_min) = {chi(e8, z)} != 1")
    _report(1, "E8 is a rational ZHS with chi(Z_min) = 1",
            failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_02_s237_fixture(s237):
    t0 = time.perf_counter()
    failures = []
    verdict = is_rational(s237)
    if verdict.rational:
        failures.append("Sigma(2,3,7) classified rational")
    if (verdict.jump.step, verdict.jump.vertex, verdict.jump.value) != (0, "c", 2):
        failures.append(f"jump witness: {verdict.jump}")
    if verdict.z_min != {"c": 6, "p2": 3, "p3": 2, "p7": 1}:
        failures.append(f"z_min: {verdict.z_min}")
    if verdict.chi_zmin != 0:
        failures.append(f"chi: {verdict.chi_zmin}")
    sd = star_to_seifert(s237)
    pink, witness = pinkham_nonrational(sd)
    if not pink or witness != 1:
        failures.append(f"pinkham: {(pink, witness)}")
    if foliation_criterion(sd) is not True:
        failures.append("foliation criterion false")
    ok, wit = realizable(*(Fraction(o, a) for a, o in sd.legs))
    if not ok or (wit.m, wit.a) != (5, 3):
        failures.append(f"realizability witness: {wit}")
    _report(2, "Sigma(2,3,7): jump (0,c,2), Z_min (6,3,2,1), chi 0, "
               "Pinkham l=1, foliation via (5,3)",
            failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_03_laufer_artin_agreement(census6):
    t0 = time.perf_counter()
    failures = []
    for g in census6:
        z, seq = z_min(g)
        jump_free = all(step.pairing_value == 1 for step in seq.steps)
        chi_val = reference_chi(g, z)
        if jump_free != (chi_val >= 1):
            failures.append(f"mismatch on {canonical_code(g)}")
    _report(3, f"Laufer and Artin criteria agree on all {len(census6)} "
               "census graphs", failures, time.perf_counter() - t0, budget=300.0)


def test_criterion_04_tie_break_independence(census6):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    sample = rng.sample(census6, 500)
    failures = []
    for g in sample:
        # the library steps the least id; the oracle's run steps at random
        base, rational = zmin_multiplicities(g), is_rational(g).rational
        for seed in range(100):
            z, _, jump = reference_laufer_run(g, random.Random(seed))
            if z != base or (jump is None) != rational:
                failures.append(f"{canonical_code(g)} seed {seed}")
                break
    _report(4, "Z_min and verdict identical across 100 tie-break seeds on 500 graphs",
            failures, time.perf_counter() - t0)


def test_criterion_05_cut_and_fill_suite(census6):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for i, g in enumerate(census6):
        det_g = determinant(g)
        for a, b in g.edges:
            orientations = [(a, b), (b, a)] if i % 10 == 0 else [(a, b)]
            for v, w in orientations:
                cut = cut_and_fill(g, (v, w))  # verifies internally, but:
                det_w_minus = determinant(delete(cut.side_w, vertices=[w]))
                if determinant(cut.filled_w) != 0:
                    failures.append(f"det(filled_w) != 0 on {canonical_code(g)}")
                if not is_negative_definite(cut.filled_v):
                    failures.append(f"filled_v not definite on {canonical_code(g)}")
                if determinant(cut.decorated_v) * det_w_minus != det_g:
                    failures.append(f"det identity fails on {canonical_code(g)}")
                checked += 1
    _report(5, f"slope-duality identities exact on {checked} (graph, edge) cuts",
            failures, time.perf_counter() - t0)


def _three_leg_star_agreement(sd, failures):
    if orbifold_euler(sd) >= 0:
        return False
    pink, _ = pinkham_nonrational(sd)
    fol = foliation_criterion(sd)
    rational = is_rational(seifert_to_graph(sd)).rational
    if not (pink == fol == (not rational)):
        failures.append(f"{sd}: pinkham={pink} foliation={fol} rational={rational}")
    return True


def test_criterion_06_criterion_equivalence(census6):
    t0 = time.perf_counter()
    failures = []
    checked = 0
    # (a) every minimal 3-leg star in the census (all alphas that occur)
    for g in census6:
        ns = nodes(g)
        if len(ns) == 1 and g.degree(ns[0]) == 3 and is_minimal(g):
            checked += _three_leg_star_agreement(star_to_seifert(g), failures)
    # (b) direct Seifert sweep over alpha_i <= 12, e0 in {-1, -2, -3}
    from itertools import combinations_with_replacement

    pairs = [
        (a, o) for a in range(2, 13) for o in range(1, a) if gcd(a, o) == 1
    ]
    for e0 in (-1, -2, -3):
        for legs in combinations_with_replacement(pairs, 3):
            checked += _three_leg_star_agreement(SeifertData(e0, legs), failures)
    _report(6, f"Pinkham = foliation = non-rational on {checked} three-leg stars",
            failures, time.perf_counter() - t0, budget=300.0)


def test_criterion_07_certificate_round_trip(census6, two_star_m2, case2_shallow,
                                             case2_deep):
    t0 = time.perf_counter()
    failures = []
    targets = [g for g in census6 if is_minimal(g) and not is_rational(g).rational]
    fixtures = [two_star_m2, case2_shallow, case2_deep]
    case1_chain_checks = 0
    pool = []
    for g in targets + fixtures:
        cert = lo_certificate(g)
        res = check_certificate(cert)
        if not res.ok:
            failures.append(f"certificate rejected for {canonical_code(g)}: {res.reason}")
        for node in _walk(cert):
            if node.tag == TAG_CASE1:
                child = node.children[0]
                if not len(nodes(child.graph)) < len(nodes(node.graph)):
                    failures.append(f"node count did not drop at {canonical_code(g)}")
                case1_chain_checks += 1
        pool.append(certificate_to_json(cert))
    if case1_chain_checks == 0:
        failures.append("no Case-1 links exercised")
    survived = 0
    for data in seeded_mutations(pool):
        if check_certificate(certificate_from_json(data)).ok:
            survived += 1
    if survived:
        failures.append(f"{survived}/100 mutated certificates passed the checker")
    _report(7, f"{len(targets) + len(fixtures)} certificates verified, "
               "100/100 mutations rejected",
            failures, time.perf_counter() - t0)


def test_criterion_08_zhs_dichotomy(e8):
    t0 = time.perf_counter()
    failures = []
    records = minimal_det_one(8, -7)
    if len(records) < 100:
        failures.append(f"suspiciously small det-1 census: {len(records)}")
    rational = [r.graph for r in records if r.rational]
    single = PlumbingGraph({"a": -1})
    expected = {canonical_code(single), canonical_code(e8)}
    got = {canonical_code(g) for g in rational}
    if got != expected:
        failures.append(f"rational det-1 classes: {sorted(got)}")
    s237 = PlumbingGraph(
        {"c": -1, "p2": -2, "p3": -3, "p7": -7},
        [("c", "p2"), ("c", "p3"), ("c", "p7")],
    )
    if not any(is_isomorphic(r.graph, s237)[0] for r in records):
        failures.append("Sigma(2,3,7) missing from the det-1 census")
    _report(8, f"rational unimodular minimal graphs (of {len(records)}, "
               "<= 8 vertices, weights >= -7) are exactly S^3 and E8",
            failures, time.perf_counter() - t0, budget=1800.0)


def test_criterion_09_brieskorn_cross_check():
    t0 = time.perf_counter()
    failures = []
    triples = [
        (p, q, r)
        for p in range(2, 14)
        for q in range(p + 1, 14)
        for r in range(q + 1, 14)
        if gcd(p, q) == 1 and gcd(p, r) == 1 and gcd(q, r) == 1
    ]
    rational_triples = []
    for p, q, r in triples:
        g = seifert_to_graph(brieskorn_seifert(p, q, r))
        laufer = is_rational(g).rational
        inequality = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) > 1
        if laufer != inequality:
            failures.append(f"({p},{q},{r}): laufer={laufer} inequality={inequality}")
        if laufer:
            rational_triples.append((p, q, r))
    if rational_triples != [(2, 3, 5)]:
        failures.append(f"rational triples: {rational_triples}")
    _report(9, f"Brieskorn rationality = spherical inequality on {len(triples)} "
               "coprime triples (only (2,3,5))",
            failures, time.perf_counter() - t0)


def test_criterion_10_monotonicity(census6):
    t0 = time.perf_counter()
    rng = random.Random(1000)
    rational_graphs = [g for g in census6 if is_rational(g).rational]
    failures = []
    for i in range(1000):
        g = rng.choice(rational_graphs)
        if rng.random() < 0.5:
            # random connected induced subgraph
            start = rng.choice(g.vertices)
            keep = {start}
            frontier = list(g.neighbors(start))
            target = rng.randint(1, len(g))
            while frontier and len(keep) < target:
                v = frontier.pop(rng.randrange(len(frontier)))
                if v in keep:
                    continue
                keep.add(v)
                frontier.extend(n for n in g.neighbors(v) if n not in keep)
            perturbed = subgraph(g, keep)
        else:
            v = rng.choice(g.vertices)
            perturbed = with_weight(g, v, g.weight(v) - rng.randint(1, 3))
        if not is_rational(perturbed).rational:
            failures.append(f"pair {i}: rationality lost")
    _report(10, "rationality preserved on 1000 subgraph/decrease perturbations",
            failures, time.perf_counter() - t0)
