"""Embed labelled transition systems into Petri net reachability graphs.

The pipeline: decide embeddability via regions (exact integer arithmetic),
synthesize witnessing nets, search minimum-alphabet label splittings when an
LTS does not embed as-is, and generate subset-sum gadget LTSs whose known
answers exercise the whole stack end to end.
"""

from .linalg import integer_echelon, nullspace_basis
from .lts import (
    Edge,
    FormatError,
    Lts,
    SpanningTree,
    cycle_base,
    format_lts,
    parse_lts,
    spanning_tree,
    validate,
)
from .petri import (
    NotEnabled,
    PetriNet,
    Verification,
    enabled,
    fire,
    format_net,
    marking_name,
    parse_net,
    reachability_graph,
    synthesize,
    verify_embedding,
)
from .reduction import (
    ReductionParams,
    SubsetSumInstance,
    build_lts,
    extract_solution,
    params,
    subset_sum_brute,
    unit_word,
)
from .regions import (
    EmbeddabilityReport,
    NotEmbeddable,
    Region,
    effect_space,
    is_embeddable,
    region_from_effect,
    separating_regions,
)
from .splitting import (
    LabelSplitting,
    SplitOutcome,
    apply_splitting,
    decide,
    from_partitions,
    optimize,
    parse_splitting,
    serialize_splitting,
    set_partitions,
)

__version__ = "0.1.0"
