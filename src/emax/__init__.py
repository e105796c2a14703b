"""Edge-maximal graph embeddings on surfaces.

Combinatorial schemes (rotation systems with edge signatures) for
pseudographs, face tracing and surface recognition, the face surgeries
that reduce edge-maximal schemes to bipartite degree-4 questions, and an
exact-arithmetic engine for the impurity recurrence, its published
tables, and the certified analytic bounds.
"""

from .graphs import (
    Bipartition,
    Graph,
    GraphError,
    bipartite_genus_lower_bound,
    check_bipartition,
    closed_neighborhood,
    is_connected,
    format_edge_list,
    parse_edge_list,
)
from .embedding import (
    FacialWalk,
    PseudoEmbedding,
    SchemeError,
    SurfaceInfo,
    edges_short,
    four_distinct_window,
    is_edge_maximal_embedding,
    is_triangulation,
    orientability,
    scheme_from_dict,
    scheme_from_json,
    surface_info,
    trace_faces,
)
from .constructions import (
    LowerBoundFamily,
    complete_bipartite,
    complete_graph,
    construct_proposition2,
    graph_q,
    graph_q_scheme,
    k8_minus_c5,
    lower_bound_family,
    paste_block,
    regenerate_k8_c5_fixture,
    scheme_census,
    toroidal_embedding_k8_minus_c5,
)
from .surgery import (
    SurgeryReport,
    bipartite_extract,
    chord_faces,
    chord_positions,
    complete_to_triangulation,
    face_split_count,
    find_ordered_sequence,
    insert_apexes,
    is_ordered_sequence,
    run_lemma5_pipeline,
)
from .bounds import (
    AnalyticContext,
    BoundsError,
    BoundsTableRow,
    ScheduleResult,
    analytic_context,
    analytic_upper_bound,
    claim1_consistency,
    f_exact_s2,
    generate_table,
    lambda_interval,
    optimal_schedule,
    verify_theorem,
)
from .intervals import (
    Interval,
    PrecisionError,
    alpha7_interval,
    certified_ceil,
    ceil_sqrt,
    ln2_interval,
)

__version__ = "0.1.0"
