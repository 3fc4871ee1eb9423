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

from collections import namedtuple

from .errors import GraphStructureError, InternalCheckError
from .graph import PlumbingGraph, nodes, serialize_graph
from .lattice import _det_definiteness
from .laufer import is_bad_set, is_rational, min_bad

DEFAULT_BAD_SET_CAP = 14  # vertices up to which classify runs min_bad


ClassificationReport = namedtuple(
    "ClassificationReport",
    "graph_text negative_definite definiteness_kind det zhs rational l_space lo"
    " taut_foliation m m_is_upper_bound bad_set certificate_path",
    defaults=(None, False, None, None),
)


def classify(
    g: PlumbingGraph,
    with_bad_set: bool = False,
    bad_set_cap: int = DEFAULT_BAD_SET_CAP,
) -> ClassificationReport:
    """Full report for a connected tree.

    ``with_bad_set`` adds the least bad set, from ``min_bad``, up to
    ``bad_set_cap`` vertices; above that the node set, an upper bound, is
    reported (flagged via ``m_is_upper_bound``).  The cap and its default
    of 14 stay although ``min_bad`` no longer tries every subset: raising
    the cap changes the report of a larger graph (an exact m, and
    ``m_is_upper_bound`` false), and the search's cost has no known bound.
    """
    if len(g) == 0:
        raise GraphStructureError("empty graph")
    if not g.is_connected():
        raise GraphStructureError("classification requires a connected graph")
    det, verdict_def = _det_definiteness(g)
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
    text, nd, _, det, zhs, rational, l_space, lo, taut, m, upper, bad_set, path = rep
    if rational is not None:
        if l_space != rational:
            raise InternalCheckError("report violates l_space = rational")
        if lo != (not rational) or taut != (not rational):
            raise InternalCheckError("report violates lo = taut = not rational")
    out = {
        "negative_definite": nd,
        "det": str(det),
        "zhs": zhs,
        "rational": rational,
        "l_space": l_space,
        "lo": lo,
        "taut_foliation": taut,
        "m": m,
        "bad_set": list(bad_set) if bad_set is not None else None,
        "input": text,
    }
    if m is not None:
        out["m_is_upper_bound"] = upper
    if path is not None:
        out["certificate_path"] = path
    return out
