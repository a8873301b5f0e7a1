"""Gibbs models on sparse random K-uniform hypergraphs.

Builds the example model zoo, computes log-partition functions exactly and
by Monte Carlo, certifies the convexity hypotheses behind the interpolation
method, and runs seeded desk-scale experiments for the log-partition bounds,
interpolation monotonicity, superadditivity, and concentration.
"""

from .convexity import (
    ModelCertificate,
    PsdCertificate,
    certify_model,
    min_alpha_psd,
    partition_kernel_classify,
)
from .graphs import (
    DegreeStats,
    Hypergraph,
    InterpolationPoint,
    degree_stats,
    degree_tail_probability,
    edge_count,
    graph_from_json,
    graph_to_json,
    sample_er,
    sample_interpolated,
)
from .harness import (
    ExperimentRecord,
    MeanEstimate,
    concentration_experiment,
    convergence_experiment,
    estimate_mean_logz,
    interpolation_monotonicity,
    moment_inequality_check,
    random_base_instance,
    replay_record,
    verify_replay,
)
from .models import (
    Discrete,
    EdgePotentialSpec,
    ModelConfigError,
    ModelSpec,
    NodePotentialSpec,
    PiecewiseContinuous,
    PotentialDraws,
    PowerSumWitness,
    SoftStateParams,
    ZOO_MODELS,
    build_model,
    draw_potentials,
    embed_discrete,
    gaussian_kernel_potential,
    verify_soft_state,
)
from .partition import (
    Instance,
    LogZ,
    McLogZ,
    StateSpaceCapError,
    add_edge,
    edge_change_bound,
    instance_from_json,
    instance_to_json,
    log_z_exact,
    log_z_mc,
    logz_bounds,
    logz_row,
    make_instance,
    node_change_bound,
    replace_node_table,
    z_exact_rational,
    z_exact_rational_edge_added,
)

__version__ = "0.14.2"
