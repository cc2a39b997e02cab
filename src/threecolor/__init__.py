"""Combinatorial coloring of 3-colorable graphs with certified progress claims."""

from .graph import (
    Coloring,
    DuplicateEdge,
    Graph,
    GraphError,
    OddCycle,
    PartialColoring,
    SelfLoop,
    TwoColoring,
    VertexOutOfRange,
    bipartition,
    build_graph,
    is_proper_coloring,
)
from .generate import GenParams, MinDegreeUnreachable, generate_planted
from .dimacs import ParseError, emit_coloring, emit_dimacs, parse_coloring, parse_dimacs
from .params import Params
from .progress import (
    Claim,
    Defer,
    DriverStats,
    EXHAUSTED,
    MonoSet,
    Progress,
    Sink,
    Type0,
    Type1,
    Type2,
    UnsoundProgress,
    color_with_progress,
    type1_threshold,
)
from .structure import (
    EmptyResult,
    MultichromaticGuaranteed,
    Not3Colorable,
    RegularPair,
    SetTooSmall,
    build_two_level,
    multichromatic_test,
    regularize,
)
from .search import (
    CutResult,
    MonochromaticIfDiffer,
    RoundAudit,
    SeekOutcome,
    SideCut,
    SparseCut,
    audit_round,
    best_side_cut,
    check_sparse_cut,
    cut_or_color,
    inner_loop,
    seek_progress,
)
from .oracle import (
    ColoringSummary,
    TooLarge,
    Verdict,
    enumerate_3colorings,
    verify_logged_claim,
    verify_progress_claim,
)
from .baselines import (
    BaselineReport,
    PipelineReport,
    greedy_color,
    neighborhood_extraction_color,
    pipeline_color,
    seek_only_color,
)

__all__ = [name for name in dir() if not name.startswith("_")]
