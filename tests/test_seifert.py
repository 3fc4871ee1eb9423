import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumbcalc.errors import GraphStructureError
from plumbcalc.graph import is_isomorphic, minimize, nodes, parse_graph
from plumbcalc.lattice import definiteness, determinant
from plumbcalc.laufer import is_rational
from plumbcalc.seifert import (
    SeifertData,
    brieskorn_seifert,
    foliation_criterion,
    hirzebruch_cf,
    orbifold_euler,
    pinkham_nonrational,
    realizable,
    seifert_to_graph,
    star_to_seifert,
)

from oracles import (
    brieskorn_cover_rational,
    cf_eval_convergents,
    oracle_pinkham,
    reference_brieskorn,
    reference_realizable,
    reference_star_to_seifert,
)


E8_DATA = SeifertData(-2, ((2, 1), (3, 2), (5, 4)))
S237_DATA = SeifertData(-1, ((2, 1), (3, 1), (7, 1)))


# -- data model and conversions ----------------------------------------------


def test_seifert_data_validation():
    with pytest.raises(GraphStructureError):
        SeifertData(-1, ((2, 1), (3, 1)))  # two legs
    with pytest.raises(GraphStructureError):
        SeifertData(-1, ((2, 2), (3, 1), (5, 1)))  # omega = alpha
    with pytest.raises(GraphStructureError):
        SeifertData(-1, ((4, 2), (3, 1), (5, 1)))  # not coprime


def test_hirzebruch_cf():
    assert hirzebruch_cf(2, 1) == (2,)
    assert hirzebruch_cf(3, 2) == (2, 2)
    assert hirzebruch_cf(5, 4) == (2, 2, 2, 2)
    assert hirzebruch_cf(7, 2) == (4, 2)


def test_hirzebruch_cf_bulk_against_convergents():
    # every coprime pair with alpha < 200, evaluated by a second route
    pairs = 0
    for alpha in range(2, 200):
        for omega in range(1, alpha):
            if gcd(alpha, omega) == 1:
                terms = hirzebruch_cf(alpha, omega)
                assert min(terms) >= 2
                assert cf_eval_convergents(terms) == Fraction(alpha, omega)
                pairs += 1
    assert pairs == 12151


def test_e8_star_to_seifert(e8):
    assert star_to_seifert(e8) == E8_DATA


def test_s237_star_to_seifert(s237):
    assert star_to_seifert(s237) == S237_DATA


def test_round_trip_through_graph():
    for sd in (E8_DATA, S237_DATA, SeifertData(-3, ((2, 1), (5, 3), (9, 2)))):
        assert star_to_seifert(seifert_to_graph(sd)) == sd


def test_seifert_to_graph_is_e8(e8):
    assert is_isomorphic(seifert_to_graph(E8_DATA), e8)[0]


def test_star_to_seifert_errors():
    with pytest.raises(GraphStructureError):
        star_to_seifert(parse_graph("vertex a -2\nvertex b -2\nedge a b"))
    bad_leg = parse_graph(
        "vertex c -2\nvertex x -1\nvertex y -2\nvertex z -2\n"
        "edge c x\nedge c y\nedge c z"
    )
    with pytest.raises(GraphStructureError):
        star_to_seifert(bad_leg)  # leg weight -1 is not normal form


def _data_or_error(read, g):
    try:
        return read(g)
    except GraphStructureError as exc:
        return str(exc)


def test_star_to_seifert_matches_cf_eval_route(census6):
    # the legs read as (D, P) against their terms evaluated one by one, on
    # each one-node graph and its minimized form; a leg weight above -2
    # must fail alike, on the same vertex
    outcomes = {SeifertData: 0, str: 0}
    for g in census6:
        if len(nodes(g)) != 1:
            continue
        for h in (g, minimize(g)):
            got = _data_or_error(star_to_seifert, h)
            assert got == _data_or_error(reference_star_to_seifert, h), h
            outcomes[type(got)] += 1
    assert all(outcomes.values()), outcomes


# -- orbifold Euler number -----------------------------------------------


def test_orbifold_euler_examples():
    assert orbifold_euler(E8_DATA) == Fraction(-1, 30)
    assert orbifold_euler(S237_DATA) == Fraction(-1, 42)
    assert orbifold_euler(SeifertData(-3, ((2, 1), (2, 1), (2, 1)))) == Fraction(-3, 2)


def test_euler_negative_iff_definite():
    rng = random.Random(31)
    for _ in range(60):
        legs = []
        while len(legs) < 3:
            a = rng.randint(2, 9)
            o = rng.randint(1, a - 1)
            if gcd(a, o) == 1:
                legs.append((a, o))
        sd = SeifertData(rng.randint(-3, -1), tuple(legs))
        g = seifert_to_graph(sd)
        assert (orbifold_euler(sd) < 0) == definiteness(g).is_negative_definite


# -- Pinkham criterion --------------------------------------------------------


def test_pinkham_s237_witness():
    assert pinkham_nonrational(S237_DATA) == (True, 1)


def test_pinkham_e8_rational():
    found, witness = pinkham_nonrational(E8_DATA)
    assert not found and witness is None
    # the complete scan bound for this data is 30; nothing hides beyond it
    assert oracle_pinkham(E8_DATA, 300) == []


def test_pinkham_l0_never_witnesses():
    # l = 0 reads 0 <= -2
    for sd in (E8_DATA, S237_DATA):
        assert 0 not in oracle_pinkham(sd, 50)


def test_pinkham_bound_complete():
    # scanning 10x past the derived bound finds no witness the bounded
    # scan missed
    import math

    rng = random.Random(37)
    for _ in range(40):
        legs = []
        while len(legs) < 3:
            a = rng.randint(2, 12)
            o = rng.randint(1, a - 1)
            if gcd(a, o) == 1:
                legs.append((a, o))
        sd = SeifertData(rng.randint(-2, -1), tuple(legs))
        e = orbifold_euler(sd)
        if e >= 0:
            continue
        bound = math.ceil(Fraction(sd.nu - 2) / (-e))
        found, witness = pinkham_nonrational(sd)
        deep = oracle_pinkham(sd, 10 * bound)
        assert found == bool(deep)
        if found:
            assert witness == deep[0]
        else:
            assert not deep


def test_pinkham_requires_negative_euler():
    with pytest.raises(GraphStructureError):
        pinkham_nonrational(SeifertData(-1, ((2, 1), (3, 2), (5, 4))))


# -- realizability -------------------------------------------------------------


def test_realizable_237():
    ok, wit = realizable(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
    assert ok and (wit.m, wit.a) == (5, 3)
    assert wit.assignment == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))


def test_not_realizable_235():
    ok, wit = realizable(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    assert not ok and wit is None


def test_realizable_m2_boundary():
    # with every entry >= 1/2 even m = 2 has no room
    ok, _ = realizable(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert not ok


def test_realizable_matches_reference():
    rng = random.Random(67)
    hits = 0
    for _ in range(300):
        triple = [Fraction(rng.randint(1, q - 1), q) for q in rng.choices(range(2, 40), k=3)]
        found, wit = realizable(*triple)
        ref = reference_realizable(*triple)
        assert found == (ref is not None)
        assert ref is None or (wit.m, wit.a, wit.assignment) == ref
        hits += found
    assert 0 < hits < 300  # 47 triples are realizable


def test_realizable_small_z():
    # m runs up to 3199: the witness needs m = 1501, and with x + y = 1 no
    # m has room at all
    z = Fraction(1, 3200)
    found, wit = realizable(Fraction(1, 2), Fraction(1, 2) - Fraction(1, 3000), z)
    assert found and (wit.m, wit.a) == (1501, 751)
    assert realizable(Fraction(1, 2), Fraction(1, 2), z) == (False, None)


def test_realizable_domain():
    with pytest.raises(GraphStructureError):
        realizable(Fraction(0), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(GraphStructureError):
        realizable(Fraction(1), Fraction(1, 2), Fraction(1, 2))


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value="1/100", max_value="99/100"),
    st.fractions(min_value="1/100", max_value="99/100"),
    st.fractions(min_value="1/100", max_value="99/100"),
    st.permutations([0, 1, 2]),
)
def test_realizable_permutation_invariant(x, y, z, perm):
    triple = (x, y, z)
    shuffled = tuple(triple[i] for i in perm)
    assert realizable(*triple)[0] == realizable(*shuffled)[0]


# -- foliation criterion -------------------------------------------------------


def test_foliation_s237_true():
    assert foliation_criterion(S237_DATA) is True


def test_foliation_e8_false():
    assert foliation_criterion(E8_DATA) is False


def test_foliation_deep_center_false_and_rational():
    sd = SeifertData(-3, ((2, 1), (3, 1), (7, 1)))
    assert foliation_criterion(sd) is False
    g = seifert_to_graph(sd)
    # every vertex satisfies e_v <= -valency, hence rational
    assert all(g.weight(v) <= -g.degree(v) for v in g.vertices)
    assert is_rational(g).rational


def test_foliation_needs_three_legs():
    sd = SeifertData(-2, ((2, 1), (3, 1), (5, 1), (7, 1)))
    with pytest.raises(GraphStructureError):
        foliation_criterion(sd)


# -- Brieskorn -------------------------------------------------------------


def test_brieskorn_235_is_e8(e8):
    sd = brieskorn_seifert(2, 3, 5)
    assert sd == E8_DATA
    assert is_isomorphic(seifert_to_graph(sd), e8)[0]


def test_brieskorn_237():
    assert brieskorn_seifert(2, 3, 7) == S237_DATA


def test_brieskorn_matches_exhaustive_scan():
    checked = 0
    for p in range(2, 12):
        for q in range(p + 1, 14):
            for r in range(q + 1, 16):
                if gcd(p, q) == gcd(q, r) == gcd(p, r) == 1:
                    ((e0, legs),) = reference_brieskorn(p, q, r)  # unique
                    assert brieskorn_seifert(p, q, r) == SeifertData(e0, legs)
                    checked += 1
    assert checked > 50


def test_brieskorn_large_coprime_indices():
    sd = brieskorn_seifert(149, 151, 157)
    assert orbifold_euler(sd) == Fraction(-1, 149 * 151 * 157)


def test_brieskorn_det_one_random_triples():
    rng = random.Random(53)
    done = 0
    while done < 20:
        p = rng.randint(2, 7)
        q = rng.randint(2, 9)
        r = rng.randint(2, 11)
        if gcd(p, q) != 1 or gcd(p, r) != 1 or gcd(q, r) != 1:
            continue
        sd = brieskorn_seifert(p, q, r)
        g = seifert_to_graph(sd)
        assert determinant(g) == 1
        assert orbifold_euler(sd) == Fraction(-1, p * q * r)
        done += 1


def test_brieskorn_rejects_non_coprime():
    with pytest.raises(GraphStructureError):
        brieskorn_seifert(2, 4, 5)
    with pytest.raises(GraphStructureError):
        brieskorn_seifert(1, 2, 3)


def test_cover_rationality():
    assert brieskorn_cover_rational(3, 5) is True
    assert brieskorn_cover_rational(3, 7) is False
    assert brieskorn_cover_rational(5, 3) is True  # symmetric
    assert brieskorn_cover_rational(2, 9) is True  # torus-link family
    with pytest.raises(GraphStructureError):
        brieskorn_cover_rational(1, 5)
