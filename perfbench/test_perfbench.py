"""Self-tests of the benchmark's generators, oracles and tracer.

    python3 -m pytest perfbench/test_perfbench.py

The repository's own suite (``tests/``) does not collect this file.
"""

import random
import sys
import tempfile
from pathlib import Path

import pytest

import inputs
import run
from spans import Tracer

sys.path.insert(0, str(run.SRC))

from plumbcalc.graph import PlumbingGraph, is_minimal  # noqa: E402
from plumbcalc.lattice import definiteness, determinant  # noqa: E402
from plumbcalc.laufer import is_rational  # noqa: E402

GENERATORS = {
    "classify-large": lambda seed: inputs.classify_large_inputs(seed, count=20),
    "certify": inputs.certify_inputs,
    "cli-cold": inputs.cli_cold_inputs,
}


def graph(tree: inputs.Tree) -> PlumbingGraph:
    return PlumbingGraph(tree.weight_map(), tree.edge_names())


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs(name):
    gen = GENERATORS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_certify_mix_per_block():
    trees = inputs.certify_inputs(5)
    for start in range(0, len(trees), len(inputs.CORE_MIX)):
        block = trees[start:start + len(inputs.CORE_MIX)]
        cores = sorted(sum(1 for w in t.weights if w == -1) for t in block)
        assert cores == sorted(inputs.CORE_MIX)


def _random_trees(rng, count):
    """Random trees, most of them indefinite, to test both verdicts."""
    for _ in range(count):
        n = rng.randint(1, 12)
        yield inputs.Tree(
            tuple(rng.randint(-4, -1) for _ in range(n)),
            tuple((rng.randrange(i), i) for i in range(1, n)),
        )


def test_dp_check_agrees_with_definiteness():
    trees = list(_random_trees(random.Random(1), 300))
    trees += inputs.classify_large_inputs(2, count=10) + inputs.certify_inputs(2)
    verdicts = set()
    for tree in trees:
        g = graph(tree)
        nd, det = inputs.dp_check(tree)
        assert nd == definiteness(g).is_negative_definite
        assert det == determinant(g)
        verdicts.add(nd)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generated_trees_are_negative_definite(name):
    assert all(inputs.dp_check(t)[0] for t in GENERATORS[name](11))


def test_classify_large_trees_stay_under_the_cost_ceiling():
    longer_than_tree = 0
    for tree in inputs.classify_large_inputs(12, count=40):
        rational, mult = inputs.laufer_oracle(tree)
        steps = sum(mult) - len(tree)
        assert 64 <= len(tree) <= 1024
        assert steps * len(tree) <= inputs.LAUFER_COST_CEILING
        longer_than_tree += steps > len(tree)
    assert longer_than_tree > 0  # heavy Laufer runs are kept


@pytest.mark.parametrize("name", ["certify", "cli-cold"])
def test_certify_family_is_minimal_and_nonrational(name):
    for tree in GENERATORS[name](4):
        g = graph(tree)
        assert is_minimal(g) and inputs.is_minimal(tree)
        assert is_rational(g).rational is False


def test_laufer_oracle_agrees_with_is_rational():
    rng = random.Random(2)
    trees = [t for t in _random_trees(rng, 300) if inputs.dp_check(t)[0]]
    trees += inputs.classify_large_inputs(4, count=10) + inputs.cli_cold_inputs(4)
    verdicts = set()
    for tree in trees:
        verdict = is_rational(graph(tree))
        rational, mult = inputs.laufer_oracle(tree)
        assert rational == verdict.rational
        assert mult == [verdict.z_min[v] for v in tree.names()]
        verdicts.add(rational)
    assert verdicts == {True, False}


def test_sigma237_takes_eight_laufer_steps():
    s237 = PlumbingGraph(
        {"c": -1, "p2": -2, "p3": -3, "p7": -7},
        [("c", "p2"), ("c", "p3"), ("c", "p7")],
    )
    tracer = Tracer()
    tracer.install()
    try:
        import plumbcalc.laufer

        verdict = plumbcalc.laufer.is_rational(s237)
    finally:
        tracer.uninstall()
    assert sum(verdict.z_min.values()) == 12
    assert tracer.counters["laufer.steps"] == 8
    assert plumbcalc.laufer.is_rational is is_rational  # uninstalled


def _traced_pass(name: str, seed: int, items: int) -> Tracer:
    wl = run.WORKLOADS[name]()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        wl.setup(seed, Path(tmp))
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        try:
            wl.start_pass()
            for i in range(items):
                assert wl.item(i).ok
        finally:
            tracer.uninstall()
            wl.close()
    return tracer


def test_work_counters_repeat_exactly():
    first = _traced_pass("certify", 9, 20)
    second = _traced_pass("certify", 9, 20)
    assert first.counters == second.counters
    assert list(first.calls) == list(second.calls)
    assert first.counters["laufer.min_bad.subsets_tried"] > 0
    assert first.counters["surgery.cert.nodes"] >= 20


def test_self_times_fit_inside_items():
    tracer = _traced_pass("certify", 1, 20)
    own = tracer.self_times()
    item = tracer.name_id("item")
    wall = sum(e - s for n, s, e in zip(tracer.name, tracer.start, tracer.end) if n == item)
    layer = sum(t for n, t in zip(tracer.name, own) if n != item)
    assert min(own) > -run.TIME_EPS
    assert 0 < layer <= wall
