"""Whitehead-graph and arc-system decisions for free groups and graphs of groups."""

from .errors import (
    FreesplitError,
    InternalConsistencyError,
    InvalidInputError,
    ParseError,
    ResourceCapError,
    UnsupportedExportError,
)
from .words import (
    Alphabet,
    CyclicWord,
    FreeGroupMap,
    MultiplierAutomorphism,
    PermutationAutomorphism,
    WhiteheadAutomorphism,
    apply_automorphism,
    cyclic_reduce,
    conjugacy_class_rep,
    format_word,
    free_reduce,
    parse_word,
    total_cyclic_length,
)
from .graphs import Multigraph
from .whitehead import (
    DECOMPOSABLE,
    INDECOMPOSABLE,
    IndecomposabilityVerdict,
    MinimizationTrace,
    build_whitehead_graph,
    decide_indecomposable,
    family_from_texts,
    minimize,
    recognize_basis,
    whitehead_moves,
)
from .tree import DEFAULT_VERTEX_CAP, TreeBall, build_ball, predicted_vertex_count
from .arcs import (
    Axis,
    Interval,
    StarCertificate,
    SubtreeAnalysis,
    analyze_subtree,
    class_count_profile,
    edge_arc_count,
    edge_counts,
    enumerate_axes,
    lemma33_certificate,
    star_graph,
)
from .gog import (
    CyclicVertex,
    EdgeSpec,
    FreeVertex,
    GraphOfGroups,
    NOT_ONE_ENDED,
    ONE_ENDED,
    OneEndednessVerdict,
    OpaqueVertex,
    double,
    one_ended,
    parse_gog,
    presentation,
    serialize_gog,
    trivial_vertices,
    validate,
)

__version__ = "0.1.0"
