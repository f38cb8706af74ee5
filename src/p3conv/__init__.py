"""P3-convexity parameters of caterpillar trees and unit interval graphs.

Vertices spread an infection: a vertex with two infected neighbors becomes
infected in the next round.  This package computes the minimum seed sizes
(one-round and iterated) and the worst-case number of rounds in closed form
for caterpillars and unit interval graphs, and ships brute-force oracles and
cross-validation suites to back the formulas up.

The public names below are imported from their modules on first access
(PEP 562), so ``import p3conv`` loads no module until a name is used.
"""

from importlib import import_module

# Each module with the public names it defines.
_EXPORTS = {
    "graph": (
        "BlockDecomposition",
        "Graph",
        "blocks",
        "contains_induced",
        "is_biconnected",
    ),
    "oracle": (
        "CapExceeded",
        "DEFAULT_HULL_CAP",
        "DEFAULT_PROPERTY_CAP",
        "DEFAULT_TIME_CAP",
        "P3Parameters",
        "geodetic_number_bruteforce",
        "hull_closure",
        "hull_number_bruteforce",
        "interval",
        "interval_idempotent_bruteforce",
        "minimum_hull_sets",
        "p3_parameters_bruteforce",
        "percolate",
        "percolation_time_bruteforce",
        "vertex_percolation_time_bruteforce",
    ),
    "caterpillar": (
        "CaterpillarStructure",
        "PercolationSequence",
        "SpineFactorization",
        "decompose_degree_sequence",
        "geodetic_number",
        "hull_number",
        "is_basic_sequence",
        "percolation_sequence",
        "recognize_caterpillar",
    ),
    "unit_interval": (
        "CutSegment",
        "UnitIntervalModel",
        "build_model",
        "cut_segments",
        "diameter_endpoints",
        "percolation_time_biconnected",
        "recognize_unit_interval",
        "singular_positions",
        "split_singular_vertices",
    ),
    "hereditary": (
        "FORBIDDEN_PATTERNS",
        "CrosscheckReport",
        "ForbiddenPattern",
        "crosscheck_interval_idempotence",
        "find_forbidden_patterns",
        "interval_idempotent_by_patterns",
    ),
    "generators": (
        "DEFAULT_SEED",
        "connected_graphs",
        "random_biconnected_chain",
        "random_caterpillar",
        "random_clique_chain",
        "random_connected_graph",
        "random_tree",
        "random_unit_interval_graph",
        "realize_caterpillar",
        "shuffle_labels",
        "spine_sequences",
    ),
    "graphio": (
        "GraphDocument",
        "ParseError",
        "document_for",
        "parse_document",
        "parse_documents",
        "serialize_document",
        "serialize_documents",
        "to_graph6",
    ),
    "crossval": (
        "CheckRow",
        "ValidationReport",
        "caterpillar_suite",
        "full_suite",
        "idempotence_suite",
        "merge_reports",
        "uig_suite",
    ),
}

# Public name -> (module, name there).
_ORIGIN = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_ORIGIN["caterpillar_percolation_time"] = ("caterpillar", "percolation_time")
_ORIGIN["unit_interval_percolation_time"] = ("unit_interval", "percolation_time")

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    try:
        module, attr = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), attr)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
