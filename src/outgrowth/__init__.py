"""Growth rates, train track verification and Lipschitz displacement for
automorphisms of free products of finite groups with a free group."""

import os

# the matrices here are small, so OpenBLAS's worker threads cost more to start than they save
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import InputError, NonConvergenceError, OutgrowthError, ResourceLimitError
from .free_product import (
    FACTOR,
    FREE,
    Automorphism,
    FiniteGroupTable,
    FreeProduct,
    Word,
    relative_conjugacy_length,
    relative_length,
    word_str,
)
from .graph_of_groups import (
    GraphPath,
    MarkedMetricGraph,
    MarkingInverter,
    Violation,
    cyclically_reduce,
    reduce_path,
    standard_rose,
    validate_graph,
)
from .graph_map import (
    StrataDecomposition,
    Stratum,
    TopologicalRepresentative,
    assign_pf_metric,
    attach_eigendata,
    pf_eigen,
    r_length,
    rescale_family,
    stratify,
    transition_matrix,
    verify_representative,
)
from .legality import (
    LegalityTable,
    Turn,
    classify_turns,
    derivative_turn,
    find_r_legal_hyperbolic,
    illegal_turn,
    make_turn,
    verify_rtt,
    verify_train_track,
)
from .dynamics import (
    BoundReport,
    DisplacementReport,
    GrowthReport,
    LengthFunction,
    bound_check,
    coefficient_matrix,
    displacement_bracket,
    growth_rate_estimate,
    growth_report,
    growth_sequence,
    index_count,
    lipschitz_constant,
    relative_length_function,
    tree_length_function,
)
from .document import InputDocument, parse_document
from .examples import bundled_text, load_bundled

__version__ = "0.1.0"
