"""Trace-driven emulator: record, replay, and compare configurations."""

from .emulator import Emulator, OverheadStudy, UNCONSTRAINED_HEAP
from .events import (
    AccessEvent,
    AllocEvent,
    FreeEvent,
    InvokeEvent,
    TraceEvent,
    WorkEvent,
    event_from_row,
)
from ..net.faults import FaultReport, FaultSchedule, FaultSpec
from ..net.mobility import LinkProfile, MobilityConfig, MobilityReport
from ..rpc.retry import RetryPolicy
from .columnar import ColumnarTrace, read_ctrace, write_ctrace
from .fleet import (
    ClientDemand,
    ClientOutcome,
    FleetConfig,
    FleetEmulator,
    FleetResult,
    SurrogateStats,
)
from .parallel import (
    AggregateReplayResult,
    ClientReplay,
    ReplayShard,
    ShardedReplayer,
    replicate,
)
from .recorder import TraceRecorder, collect_class_traits, record_application
from .replay import EmulationResult, EmulatorConfig, ReplayOffload, TraceReplayer
from .timemodel import (
    migration_cost,
    migration_payload,
    remote_access_cost,
    remote_invoke_cost,
)
from .traces import Trace, load_any, save_any

__all__ = [
    "AccessEvent",
    "AggregateReplayResult",
    "AllocEvent",
    "ClientDemand",
    "ClientOutcome",
    "ClientReplay",
    "ColumnarTrace",
    "EmulationResult",
    "Emulator",
    "EmulatorConfig",
    "FaultReport",
    "FaultSchedule",
    "FaultSpec",
    "FleetConfig",
    "FleetEmulator",
    "FleetResult",
    "FreeEvent",
    "InvokeEvent",
    "LinkProfile",
    "MobilityConfig",
    "MobilityReport",
    "OverheadStudy",
    "ReplayOffload",
    "ReplayShard",
    "RetryPolicy",
    "ShardedReplayer",
    "SurrogateStats",
    "Trace",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "UNCONSTRAINED_HEAP",
    "WorkEvent",
    "collect_class_traits",
    "event_from_row",
    "load_any",
    "save_any",
    "migration_cost",
    "migration_payload",
    "read_ctrace",
    "record_application",
    "remote_access_cost",
    "remote_invoke_cost",
    "replicate",
    "write_ctrace",
]
