"""Epsilon-chains, Rips skeletons, and discrete homotopy on finite metric samples."""

from .chain import (Chain, Delete, Insert, apply_move, chain_from_doc,
                    chain_to_doc, collapse, components, find_chain, legal_moves)
from .homotopy import (HomotopyVerdict, SearchBudget, are_homotopic, is_null,
                       is_short, oracle_classes, replay)
from .joinability import (ConstructionFailure, GeneralizedPathApprox,
                          JoinabilityReport, PairOutcome, RefinementFailure,
                          ScaleFiltration, build_generalized_path, crest_gap_check,
                          local_joinability_scan, refine_chain, texas_crest_loop,
                          texas_dichotomy, texas_obstruction_report,
                          weakly_chained_probe)
from .rips import CycleClass, RipsSkeleton, build
from .space import (PointCloud, Scale, as_scale, circle_cloud, crest_height,
                    generate, interval_cloud, load_cloud, parallel_lines_cloud,
                    save_cloud, texas_circle_cloud, texas_pair, texas_sample)

__version__ = "0.1.0"

__all__ = [
    "Chain", "ConstructionFailure", "CycleClass", "Delete",
    "GeneralizedPathApprox", "HomotopyVerdict", "Insert", "JoinabilityReport",
    "PairOutcome", "PointCloud", "RefinementFailure", "RipsSkeleton", "Scale",
    "ScaleFiltration", "SearchBudget", "apply_move", "are_homotopic",
    "as_scale", "build", "build_generalized_path", "chain_from_doc",
    "chain_to_doc", "circle_cloud", "collapse", "components",
    "crest_gap_check", "crest_height", "find_chain", "generate",
    "interval_cloud", "is_null", "is_short",
    "legal_moves", "local_joinability_scan", "load_cloud", "oracle_classes",
    "parallel_lines_cloud", "refine_chain", "replay", "save_cloud",
    "texas_circle_cloud", "texas_crest_loop", "texas_dichotomy",
    "texas_obstruction_report", "texas_pair", "texas_sample",
    "weakly_chained_probe",
]
