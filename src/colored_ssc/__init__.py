"""Controllability analysis for leader-follower networks on colored graphs.

Edges sharing a color are constrained to identical nonzero weights.  The
package decides controllability sufficiency with exact combinatorial
certificates (zero forcing with a colored change rule, elementary edge
operations) and corroborates or falsifies verdicts numerically through
sampled realizations.
"""

__version__ = "0.1.0"

from .analysis import AnalysisReport, SoundnessError, analyze
from .bipartite import (
    ColoredBipartite,
    DetPolynomial,
    Matching,
    MatchingClass,
    SizeMismatchError,
    enumerate_matchings,
    equivalence_classes,
    pattern_nonsingular,
    symbolic_det,
)
from .edgeops import (
    EdgeOp,
    EeoTrace,
    RemoveEdges,
    TurnColor,
    apply_remove_edges,
    apply_turn_color,
    edges_to_white,
    eeo_derived_set,
    find_edge_ops,
)
from .forcing import (
    DerivationTrace,
    Force,
    SearchBoundExceededError,
    SearchConfig,
    derived_set_greedy,
    find_forces,
    is_color_perfect,
    is_zero_forcing_set,
)
from .graph import (
    ColoredDigraph,
    GraphFormatError,
    induced_bipartite,
    load_graph,
    out_neighbors,
    serialize,
    to_dot,
    validate,
    vset,
    vset_from_labels,
    vset_labels,
    vset_members,
    white_out_neighbors,
)
from .oracle import (
    OracleVerdict,
    Realization,
    ZeroExtensionTrace,
    is_balancing_set,
    sample_realization,
    sampled_verdict,
    uncontrollable_witness,
    weighted_adjacency,
    zero_extension_derived_set,
)
