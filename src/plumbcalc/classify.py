"""End-user classification: one report tying every verdict together.

For a connected negative-definite tree the topological verdicts all
reduce to Artin rationality of the graph: the link is an L-space iff the
graph is rational, and it has left-orderable fundamental group iff it
carries a coorientable taut foliation iff the graph is NOT rational.  The
report simply evaluates the rationality verdict once and populates the
equivalent fields; the value of the tool is that the verdict is exact and
cross-checked against Artin on every call: a run stops at its first jump,
and chi of the cycle just after that jump must be <= 0; only a run with no
jump goes on to Z_min, where chi(Z_min) >= 1 must hold.

Graphs that are not negative definite still get the arithmetic fields
(determinant, definiteness, det = 1) but the topology fields are null:
the equivalences above assume negative definiteness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, VertexId, nodes, serialize_graph
from .lattice import definiteness, determinant
from .laufer import DEFAULT_BAD_SET_CAP, is_bad_set, is_rational, min_bad


class ClassificationReport(NamedTuple):
    graph_text: str
    negative_definite: bool
    definiteness_kind: str
    det: Fraction
    zhs: bool
    rational: bool | None
    l_space: bool | None
    lo: bool | None
    taut_foliation: bool | None
    m: int | None = None
    m_is_upper_bound: bool = False
    bad_set: tuple[VertexId, ...] | None = None
    certificate_path: str | None = None


def classify(
    g: PlumbingGraph,
    with_bad_set: bool = False,
    bad_set_cap: int = DEFAULT_BAD_SET_CAP,
) -> ClassificationReport:
    """Full report for a connected tree.

    ``with_bad_set`` adds the minimal bad set; the exact subset search is
    exponential, so above ``bad_set_cap`` vertices the node-set upper
    bound is reported instead (flagged via ``m_is_upper_bound``).
    """
    if len(g) == 0:
        raise GraphStructureError("empty graph")
    if not g.is_connected():
        raise GraphStructureError("classification requires a connected graph")
    det, verdict_def = determinant(g), definiteness(g)
    nd = verdict_def.is_negative_definite
    rational = l_space = lo = taut = None
    if nd and g.has_integer_weights():
        rational = is_rational(g).rational
        l_space = rational
        lo = not rational
        taut = not rational
    m = None
    upper = False
    witness = None
    if with_bad_set and rational is not None:
        if len(g) <= bad_set_cap:
            m, bad = min_bad(g)
            witness = tuple(sorted(bad))
        else:
            bad = nodes(g)
            if not is_bad_set(g, bad):
                raise InternalCheckError("node set failed to be a bad set")
            m, witness, upper = len(bad), tuple(bad), True
    return ClassificationReport(
        graph_text=serialize_graph(g),
        negative_definite=nd,
        definiteness_kind=verdict_def.kind.value,
        det=det,
        zhs=det == 1,
        rational=rational,
        l_space=l_space,
        lo=lo,
        taut_foliation=taut,
        m=m,
        m_is_upper_bound=upper,
        bad_set=witness,
    )


def report_to_json(rep: ClassificationReport) -> dict:
    """Frozen-schema JSON dict; exact rationals as "p/q" strings.

    The equivalences (l_space = rational, lo = taut_foliation = not
    rational) are asserted here so that no report can serialize with
    inconsistent fields.
    """
    if rep.rational is not None:
        if rep.l_space != rep.rational:
            raise InternalCheckError("report violates l_space = rational")
        if rep.lo != (not rep.rational) or rep.taut_foliation != (not rep.rational):
            raise InternalCheckError("report violates lo = taut = not rational")
    out = {
        "negative_definite": rep.negative_definite,
        "det": str(rep.det),
        "zhs": rep.zhs,
        "rational": rep.rational,
        "l_space": rep.l_space,
        "lo": rep.lo,
        "taut_foliation": rep.taut_foliation,
        "m": rep.m,
        "bad_set": list(rep.bad_set) if rep.bad_set is not None else None,
        "input": rep.graph_text,
    }
    if rep.m is not None:
        out["m_is_upper_bound"] = rep.m_is_upper_bound
    if rep.certificate_path is not None:
        out["certificate_path"] = rep.certificate_path
    return out
