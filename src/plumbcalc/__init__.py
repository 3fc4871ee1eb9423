"""Exact-arithmetic calculus for negative-definite plumbing trees.

Decides Artin rationality of a plumbing tree via Laufer's computation
sequence, and with it the topology of the plumbed 3-manifold: L-space
status, left-orderability of the fundamental group, and existence of a
coorientable taut foliation (the three are equivalent to non-rationality
for singularity links).  Ships machine-checkable decomposition
certificates, Seifert/star criteria, and census enumeration.  All
arithmetic is exact; no floating point enters any verdict.
"""

from .errors import (
    GraphStructureError,
    InternalCheckError,
    ParseError,
    PlumbingError,
    SingularFormError,
)
from .graph import (
    PlumbingGraph,
    blow_down,
    blow_up_edge,
    canonical_code,
    components,
    delete,
    is_isomorphic,
    is_minimal,
    minimize,
    nodes,
    parse_graph,
    serialize_graph,
    subgraph,
)
from .lattice import (
    Definiteness,
    DefinitenessKind,
    canonical_cycle,
    chi,
    definiteness,
    determinant,
    intersection_form,
    is_negative_definite,
)
from .laufer import (
    ComputationSequence,
    RationalityVerdict,
    is_bad_set,
    is_rational,
    min_bad,
    stabilize,
    z_min,
)
from .surgery import (
    CertificateNode,
    CutResult,
    attach_string,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    cut_and_fill,
    lo_certificate,
    semidef_decompose,
)
from .seifert import (
    ContinuedFraction,
    SeifertData,
    brieskorn_seifert,
    foliation_criterion,
    negative_cf,
    orbifold_euler,
    pinkham_nonrational,
    realizable,
    seifert_to_graph,
    star_to_seifert,
)
from .classify import ClassificationReport, classify, report_to_json
from .census import CensusRecord, census, census_graphs, minimal_det_one

__version__ = "0.1.0"
