"""Targeted reverse sketching (TRS) — Section 3.1 of the paper.

Reverse-reachable (RR) sets are sampled with roots drawn uniformly from
the *target set* rather than from all nodes — the paper's key refinement
of Borgs et al. / Tang et al. reverse sketching to the targeted setting,
preserving the ``(1 - 1/e - ε)`` guarantee (Theorem 5).
"""

from repro.sketch.coverage import CoverageResult, greedy_max_coverage
from repro.sketch.imm import IMMResult, imm_select_seeds
from repro.sketch.incremental import (
    REPAIR_MODES,
    RepairableSketch,
    SketchCapacityError,
    build_repairable_sketch,
    repair_sketches,
    trs_build_repairable_sketch,
)
from repro.sketch.rr_sets import (
    rr_set_from_edge_mask,
    reverse_reachable_set,
    sample_rr_sets,
    sample_rr_sets_validated,
)
from repro.sketch.theta import SketchConfig, compute_theta, estimate_opt_t
from repro.sketch.trs import (
    TRSResult,
    TRSSketch,
    trs_build_sketch,
    trs_select_from_sketch,
    trs_select_seeds,
)

__all__ = [
    "CoverageResult",
    "IMMResult",
    "REPAIR_MODES",
    "RepairableSketch",
    "SketchCapacityError",
    "SketchConfig",
    "TRSResult",
    "TRSSketch",
    "build_repairable_sketch",
    "compute_theta",
    "estimate_opt_t",
    "greedy_max_coverage",
    "imm_select_seeds",
    "repair_sketches",
    "reverse_reachable_set",
    "rr_set_from_edge_mask",
    "sample_rr_sets",
    "sample_rr_sets_validated",
    "trs_build_repairable_sketch",
    "trs_build_sketch",
    "trs_select_from_sketch",
    "trs_select_seeds",
]
