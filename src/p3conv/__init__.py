"""P3-convexity parameters of caterpillar trees and unit interval graphs.

Vertices spread an infection: a vertex with two infected neighbors becomes
infected in the next round.  This package computes the minimum seed sizes
(one-round and iterated) and the worst-case number of rounds in closed form
for caterpillars and unit interval graphs, and ships brute-force oracles and
cross-validation suites to back the formulas up.
"""

from .graph import (
    BlockDecomposition,
    Graph,
    blocks,
    contains_induced,
    is_biconnected,
)
from .oracle import (
    CapExceeded,
    DEFAULT_HULL_CAP,
    DEFAULT_PROPERTY_CAP,
    DEFAULT_TIME_CAP,
    P3Parameters,
    geodetic_number_bruteforce,
    hull_closure,
    hull_number_bruteforce,
    interval,
    interval_idempotent_bruteforce,
    minimum_hull_sets,
    p3_parameters_bruteforce,
    percolate,
    percolation_time_bruteforce,
    vertex_percolation_time_bruteforce,
)
from .caterpillar import (
    CaterpillarStructure,
    PercolationSequence,
    SpineFactorization,
    decompose_degree_sequence,
    geodetic_number,
    hull_number,
    is_basic_sequence,
    percolation_sequence,
    recognize_caterpillar,
)
from .caterpillar import percolation_time as caterpillar_percolation_time
from .unit_interval import (
    CutSegment,
    UnitIntervalModel,
    build_model,
    cut_segments,
    diameter_endpoints,
    percolation_time_biconnected,
    recognize_unit_interval,
    singular_positions,
    split_singular_vertices,
)
from .unit_interval import percolation_time as unit_interval_percolation_time
from .hereditary import (
    FORBIDDEN_PATTERNS,
    CrosscheckReport,
    ForbiddenPattern,
    crosscheck_interval_idempotence,
    find_forbidden_patterns,
    interval_idempotent_by_patterns,
)
from .generators import (
    DEFAULT_SEED,
    connected_graphs,
    random_biconnected_chain,
    random_caterpillar,
    random_clique_chain,
    random_connected_graph,
    random_tree,
    random_unit_interval_graph,
    realize_caterpillar,
    shuffle_labels,
    spine_sequences,
)
from .graphio import (
    GraphDocument,
    ParseError,
    document_for,
    parse_document,
    parse_documents,
    serialize_document,
    serialize_documents,
    to_graph6,
)
from .crossval import (
    CheckRow,
    ValidationReport,
    caterpillar_suite,
    full_suite,
    idempotence_suite,
    merge_reports,
    uig_suite,
)

__version__ = "0.1.0"
