"""Certificate-producing algorithms for wheel-free graph structure, with
brute-force oracles for desk-scale exhaustive verification."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CertificateError,
    GraphError,
    NoFragmentsError,
    ParseError,
    ParseWarning,
    TheoremViolationError,
    ToolkitError,
)
from .graph import Graph, frontier_complement, induced_subgraph, neighborhood
from .formats import (
    parse_dimacs_col,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
    read_graphs,
    to_dimacs_col,
    to_edge_list,
    to_graph6,
)
from .generators import (
    circulant,
    complete,
    complete_bipartite,
    cycle,
    icosahedron,
    octahedron,
    path,
    petersen,
    star,
    tight_example,
)
from .connectivity import (
    EndBlock,
    Fan,
    end_block,
    ends,
    extend_fan,
    find_k_fan,
    is_fragment,
    vertex_connectivity,
)
from .wheels import (
    WMCertificate,
    Wheel,
    find_cycle_through,
    find_cycle_through_edge,
    find_k_wheel,
    is_almost_4_wheel_free,
    is_wheel_center,
    wheel_centers,
    wm_certificate,
)
from .structure import (
    Coloring,
    ColoringResult,
    LowDegree,
    PoolReport,
    STATEMENTS,
    Stuck,
    TwinPair,
    VerifyResult,
    VerifyStatus,
    color4,
    find_twins,
    reduction_witness,
    verify_pool,
    verify_statement,
)
from .oracles import (
    GraphPool,
    brute_chromatic_number,
    brute_fragments,
    brute_has_k_wheel,
    brute_vertex_connectivity,
    curated_pool,
    enumerate_graphs,
    parse_pool_descriptor,
    random_pool,
)
from .isomorphism import canonical_code, canonical_form, is_isomorphic, relabel

__all__ = [
    "__version__",
    # errors
    "ToolkitError", "GraphError", "ParseError", "ParseWarning",
    "BudgetExceededError", "NoFragmentsError", "TheoremViolationError",
    "CertificateError",
    # graph core
    "Graph", "induced_subgraph", "neighborhood", "frontier_complement",
    "parse_graph6", "parse_graph6_lines", "to_graph6", "parse_dimacs_col",
    "to_dimacs_col", "parse_edge_list", "to_edge_list", "read_graphs",
    # generators
    "complete", "complete_bipartite", "cycle", "path", "star", "circulant",
    "petersen", "octahedron", "icosahedron", "tight_example",
    # connectivity
    "vertex_connectivity", "Fan", "find_k_fan", "extend_fan",
    "is_fragment", "ends", "EndBlock", "end_block",
    # wheels
    "Wheel", "WMCertificate", "find_cycle_through", "find_cycle_through_edge",
    "is_wheel_center", "wheel_centers", "find_k_wheel",
    "is_almost_4_wheel_free", "wm_certificate",
    # structure
    "TwinPair", "LowDegree", "Stuck", "Coloring", "ColoringResult",
    "find_twins", "reduction_witness", "color4",
    "VerifyStatus", "VerifyResult", "verify_statement", "STATEMENTS",
    "PoolReport", "verify_pool",
    # oracles
    "brute_chromatic_number", "brute_has_k_wheel", "brute_vertex_connectivity",
    "brute_fragments",
    "GraphPool", "enumerate_graphs", "random_pool", "curated_pool",
    "parse_pool_descriptor",
    # isomorphism
    "canonical_code", "canonical_form", "is_isomorphic", "relabel",
]
