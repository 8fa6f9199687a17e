"""Deterministic discrete-event simulator for live migration of stateful
message-driven services."""

from .broker import Broker, BrokerError, Message
from .config import ConfigError, ScenarioConfig, effective_params, load_scenario, parse_scenario
from .harness import (ComparisonSummary, TrialRow, compare, export_csv,
                      load_csv, row_from_record, run_experiment)
from .migration import (Decision, HandoffPolicy, MigrationManager,
                        MigrationRecord, Outcome, Phase, PhaseSpan, Technique,
                        decide_handoff)
from .service import (Mode, ProtocolError, ServiceError, ServiceInstance,
                      ServiceState, StaleMessage, deserialize_state, handle,
                      serialize_state)
from .sim import FaultSpec, SimParams, SimResult, Simulation
from .simnet import (Host, Link, SimClock, SimError, checkpoint_duration,
                     restore_duration, transfer_duration)
from .workload import (WorkloadSpec, generate, replay_stress_spec,
                       score_payload, settings_payload)

__version__ = "0.1.0"

__all__ = [
    "Broker", "BrokerError", "Message",
    "ConfigError", "ScenarioConfig", "effective_params", "load_scenario",
    "parse_scenario",
    "ComparisonSummary", "TrialRow", "compare", "export_csv", "load_csv",
    "row_from_record", "run_experiment",
    "Decision", "HandoffPolicy", "MigrationManager", "MigrationRecord",
    "Outcome", "Phase", "PhaseSpan", "Technique", "decide_handoff",
    "Mode", "ProtocolError", "ServiceError", "ServiceInstance",
    "ServiceState", "StaleMessage", "deserialize_state", "handle",
    "serialize_state",
    "FaultSpec", "SimParams", "SimResult", "Simulation",
    "Host", "Link", "SimClock", "SimError", "checkpoint_duration",
    "restore_duration", "transfer_duration",
    "WorkloadSpec", "generate", "replay_stress_spec", "score_payload",
    "settings_payload",
]
