"""LRU cache performance analysis and prediction under dynamic catalogs.

Trace-driven LRU simulation via stack distances, semi-experiment trace
randomizations, per-document lifespan/rate estimation, and analytic
hit-ratio prediction for Poisson-published catalogs with box-shaped
document popularities (an extension of the Che approximation), validated
against simulation on synthetic traces.
"""

__version__ = "0.2.0"

from .trace import (
    ObservationWindow,
    Trace,
    TraceParseError,
    TraceSummary,
    build_trace,
    consolidate_sessions,
    extract_subtrace,
    parse_trace,
    serialize_trace,
    trace_stats,
)
from .lrusim import (
    HitRatioCurve,
    StackDistanceProfile,
    brute_force_lru,
    hit_ratio_curve,
    log_size_grid,
    mare,
    read_curve_csv,
    stack_distances,
    write_curve_csv,
)
from .shuffle import (
    RANDOMIZATION_KINDS,
    SemiExperimentReport,
    randomize,
    randomize_global,
    randomize_local,
    randomize_positional,
    run_semi_experiments,
)
from .estimators import (
    EmpiricalJointSample,
    build_joint_sample,
    estimate_catalog_rate,
    rank_frequency,
    solve_n_prime,
)
from .boxmodel import (
    CharacteristicTime,
    WorkingSetModel,
    box_hit_ratio_curve,
    box_working_set,
    characteristic_time,
    expected_hits_per_doc,
    irm_che_curve,
    mean_expected_hits,
    noise_working_set,
    repeat_doc_window_mean,
)
from .synth import (
    DocumentProfile,
    GeneratorConfig,
    MonteCarloDistinct,
    Population,
    generate_box_trace,
    generate_irm_trace,
    monte_carlo_distinct_docs,
    sample_population,
)
