"""LRU cache performance analysis and prediction under dynamic catalogs.

Trace-driven LRU simulation via stack distances, semi-experiment trace
randomizations, per-document lifespan/rate estimation, and analytic
hit-ratio prediction for Poisson-published catalogs with box-shaped
document popularities (an extension of the Che approximation), validated
against simulation on synthetic traces.

Each public name is imported from its submodule on first use (PEP 562),
so a process loads only the submodules whose names it uses.
"""

from importlib import import_module

__version__ = "0.2.0"

#: The randomizations of :mod:`cachechurn.shuffle`, by name; defined here
#: so that the command line can offer them without loading that module.
RANDOMIZATION_KINDS = ("global", "positional", "local")

_EXPORTS = {
    "trace": ("ObservationWindow", "Trace", "TraceParseError", "TraceSummary", "build_trace",
              "consolidate_sessions", "extract_subtrace", "parse_trace", "serialize_trace",
              "trace_stats"),
    "lrusim": ("HitRatioCurve", "StackDistanceProfile", "brute_force_lru", "hit_ratio_curve",
               "log_size_grid", "mare", "read_curve_csv", "stack_distances", "write_curve_csv"),
    "shuffle": ("SemiExperimentReport", "randomize", "randomize_global", "randomize_local",
                "randomize_positional", "run_semi_experiments"),
    "estimators": ("EmpiricalJointSample", "build_joint_sample", "estimate_catalog_rate",
                   "rank_frequency", "solve_n_prime"),
    "boxmodel": ("CharacteristicTime", "WorkingSetModel", "box_hit_ratio_curve",
                 "box_working_set", "characteristic_time", "expected_hits_per_doc",
                 "irm_che_curve", "mean_expected_hits", "noise_working_set",
                 "repeat_doc_window_mean"),
    "synth": ("DocumentProfile", "GeneratorConfig", "MonteCarloDistinct", "Population",
              "generate_box_trace", "generate_irm_trace", "monte_carlo_distinct_docs",
              "sample_population"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["RANDOMIZATION_KINDS", *_OWNERS]


def __getattr__(name):
    """A public name or a library submodule, imported on first access."""
    if name not in _OWNERS and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_OWNERS.get(name, name)}")
    value = getattr(module, name) if name in _OWNERS else module
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
