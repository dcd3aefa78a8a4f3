"""Star structure detection, eigenvalue multiplicity, spectrum-preserving
reduction, and Fiedler partitioning for weighted undirected graphs."""

__version__ = "0.1.0"

from .errors import StarlapError
from .graphs import (
    Graph,
    build_graph,
    connected_components,
    induced_subgraph,
    strengths,
)
from .eigen import (
    Check,
    MultiplicityTable,
    Spectrum,
    eigenvector_at,
    group_multiplicities,
    spectral_gap_index,
    sym_eigen,
)
from .stars import (
    GraphAnalysis,
    LDependentPartition,
    MkStar,
    StarClass,
    analyze,
    detect_stars,
    group_by_weight,
    plant_ldependent_graph,
    plant_star_graph,
    predict_multiplicities,
    verify_ldependent,
    verify_star_predictions,
)
from .reduction import (
    Reduction,
    lift_vector,
    reduce_all,
    star_frame,
    verify_reduction,
)
from .partition import (
    FiedlerResult,
    Partition,
    SignAgreementReport,
    compare_signs,
    fiedler,
    kway,
    recursive_bisection,
    sign_bipartition,
)
from .fileio import (
    emit_dot,
    graph_summary,
    load_graph,
    parse_graph_file,
    save_graph,
    to_json,
    write_graph_file,
)
from .verify import GraphVerification, verify_graph

__all__ = [
    "Check",
    "Graph",
    "GraphAnalysis",
    "GraphVerification",
    "LDependentPartition",
    "MkStar",
    "MultiplicityTable",
    "Partition",
    "FiedlerResult",
    "Reduction",
    "SignAgreementReport",
    "Spectrum",
    "StarClass",
    "StarlapError",
    "analyze",
    "build_graph",
    "compare_signs",
    "connected_components",
    "detect_stars",
    "eigenvector_at",
    "emit_dot",
    "fiedler",
    "graph_summary",
    "group_by_weight",
    "group_multiplicities",
    "induced_subgraph",
    "kway",
    "lift_vector",
    "load_graph",
    "parse_graph_file",
    "plant_ldependent_graph",
    "plant_star_graph",
    "predict_multiplicities",
    "recursive_bisection",
    "reduce_all",
    "save_graph",
    "sign_bipartition",
    "spectral_gap_index",
    "star_frame",
    "strengths",
    "sym_eigen",
    "to_json",
    "verify_graph",
    "verify_ldependent",
    "verify_reduction",
    "verify_star_predictions",
    "write_graph_file",
]
