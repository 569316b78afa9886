"""Dataflow throughput analysis for NoC-based MPSoCs with software-to-hardware
task migration modeling."""

from .analysis import (
    DEFAULT_STATE_BUDGET,
    ExecutionState,
    ThroughputResult,
    iterate_states,
    mcm_throughput,
    self_timed_throughput,
    to_frames_per_second,
)
from .graph import (
    Actor,
    ActorKind,
    Channel,
    Diagnostic,
    SDFG,
    compute_repetition_vector,
    disable_auto_concurrency,
    validate,
)
from .migration import (
    MigrationCandidate,
    MigrationResult,
    MigrationSpec,
    explore_single_migrations,
    migrate_task,
)
from .mpsoc import (
    BindingKind,
    ChannelBinding,
    NocConnection,
    Platform,
    PlatformMapping,
    Tile,
    TileKind,
    compute_etam,
    tdma_wait,
    validate_mapping,
)
from .scenario import (
    ExplorationReport,
    Scenario,
    bundled_scenario_path,
    emit_report,
    list_bundled_scenarios,
    load_scenario,
    save_scenario,
)
from .transforms import (
    build_bound_graph,
    connection_actor_time,
)

__all__ = [
    "Actor",
    "ActorKind",
    "BindingKind",
    "Channel",
    "ChannelBinding",
    "DEFAULT_STATE_BUDGET",
    "Diagnostic",
    "ExecutionState",
    "ExplorationReport",
    "MigrationCandidate",
    "MigrationResult",
    "MigrationSpec",
    "NocConnection",
    "Platform",
    "PlatformMapping",
    "SDFG",
    "Scenario",
    "ThroughputResult",
    "Tile",
    "TileKind",
    "build_bound_graph",
    "bundled_scenario_path",
    "compute_etam",
    "compute_repetition_vector",
    "connection_actor_time",
    "disable_auto_concurrency",
    "emit_report",
    "explore_single_migrations",
    "iterate_states",
    "list_bundled_scenarios",
    "load_scenario",
    "mcm_throughput",
    "migrate_task",
    "save_scenario",
    "self_timed_throughput",
    "tdma_wait",
    "to_frames_per_second",
    "validate",
    "validate_mapping",
]

__version__ = "0.1.0"
