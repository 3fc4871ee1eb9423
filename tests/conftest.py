import importlib.util
import sys
from pathlib import Path

import pytest

from plumbcalc.graph import PlumbingGraph
from plumbcalc.census import census_graphs


def make_star(prefix: str, center_w: int, leg_ws) -> tuple[dict, list]:
    ws = {f"{prefix}c": center_w}
    edges = []
    for i, lw in enumerate(leg_ws, 1):
        ws[f"{prefix}l{i}"] = lw
        edges.append((f"{prefix}c", f"{prefix}l{i}"))
    return ws, edges


@pytest.fixture(scope="session")
def e8() -> PlumbingGraph:
    ws = {f"a{i}": -2 for i in range(1, 9)}
    edges = [(f"a{i}", f"a{i+1}") for i in range(1, 7)] + [("a5", "a8")]
    return PlumbingGraph(ws, edges)


@pytest.fixture(scope="session")
def s237() -> PlumbingGraph:
    """The Brieskorn Sigma(2,3,7) star: the smallest non-rational fixture."""
    return PlumbingGraph(
        {"c": -1, "p2": -2, "p3": -3, "p7": -7},
        [("c", "p2"), ("c", "p3"), ("c", "p7")],
    )


def two_star_chain(chain_len: int = 2, tip2: int = -8) -> PlumbingGraph:
    """Two Sigma(2,3,7)-style star cores joined tip-to-tip by a (-2)-chain.

    The second deep tip is -8 rather than -7 to keep the join negative
    definite; both cores stay non-rational, which forces m = 2.
    """
    ws1, e1 = make_star("x", -1, [-2, -3, -7])
    ws2, e2 = make_star("y", -1, [-2, -3, tip2])
    ws = {**ws1, **ws2}
    edges = e1 + e2
    prev = "xl3"
    for k in range(1, chain_len + 1):
        ws[f"m{k}"] = -2
        edges.append((prev, f"m{k}"))
        prev = f"m{k}"
    edges.append((prev, "yl3"))
    return PlumbingGraph(ws, edges)


@pytest.fixture(scope="session")
def two_star_m2() -> PlumbingGraph:
    return two_star_chain()


@pytest.fixture(scope="session")
def case2_shallow() -> PlumbingGraph:
    """Two adjacent nodes whose blow-up vertex is the only bad vertex."""
    ws1, e1 = make_star("x", -2, [-2, -3, -7])
    ws2, e2 = make_star("y", -2, [-2, -3, -7])
    return PlumbingGraph({**ws1, **ws2}, e1 + e2 + [("xc", "yc")])


@pytest.fixture(scope="session")
def case2_deep() -> PlumbingGraph:
    """Two adjacent 4-legged nodes; after blowing up the node edge the new
    vertex is NOT the only bad vertex, forcing the recursive branch."""
    ws = {"xc": -2, "yc": -2}
    edges = [("xc", "yc")]
    for p in ("x", "y"):
        for i in range(1, 5):
            ws[f"{p}l{i}"] = -5
            edges.append((f"{p}c", f"{p}l{i}"))
    return PlumbingGraph(ws, edges)


@pytest.fixture(scope="session")
def census6() -> list[PlumbingGraph]:
    """The full default census: connected negative-definite decorated trees
    up to isomorphism, <= 6 vertices, weights in [-5, -1]."""
    return list(census_graphs(6, -5))


def perfbench_module(name: str):
    """A module of the benchmark, loaded from ``perfbench/<name>.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def certify_inputs(seed: int) -> list[PlumbingGraph]:
    """The certify workload's input trees, from the benchmark's generator."""
    inputs = perfbench_module("inputs")
    return [
        PlumbingGraph(t.weight_map(), t.edge_names()) for t in inputs.certify_inputs(seed)
    ]
