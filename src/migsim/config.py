"""Scenario files: JSON documents describing hosts, links, workload, the
migration to run and how many trials to take.

Validation collects every problem it can find into one ConfigError instead of
stopping at the first, so a scenario author sees the full repair list.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .migration import HandoffPolicy, Phase, Technique
from .sim import FaultSpec, SimParams
from .simnet import Host, Link
from .workload import KINDS, MIN_PAYLOAD_BYTES, WorkloadSpec

SCHEMA_VERSION = 1

_HOST_FIELDS = ("checkpoint_fixed_ms", "checkpoint_ms_per_kib",
                "restore_fixed_ms", "restore_ms_per_kib")
_OVERRIDE_KEYS = {
    "pause_ms", "continuation_ms",
    "checkpoint_fixed_ms", "checkpoint_ms_per_kib",
    "restore_fixed_ms", "restore_ms_per_kib",
    "latency_ms", "bandwidth_kib_per_s", "jitter_frac",
}


class ConfigError(Exception):
    """Carries one message per problem found, as 'field: message' lines."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


_REQUIRED = object()


@dataclass(frozen=True)
class ScenarioConfig:
    schema_version: int
    seed: int
    trials: int
    techniques: tuple[Technique, ...]
    workload: WorkloadSpec
    workload_seed_fixed: bool
    processing_ms: float
    hosts: dict[str, Host]
    links: tuple[Link, ...]
    source: str
    target: str
    trigger_ms: float
    pause_ms: float
    continuation_ms: float
    policy: HandoffPolicy
    overrides: dict[str, dict] = field(default_factory=dict)
    fault: FaultSpec | None = None
    delivery_latency_ms: float = 0.0


def _num(doc, key, errors, *, where="", minimum=None, allow_none=False,
         integer=False, default=_REQUIRED):
    """Pull one numeric field, recording an error instead of raising. where
    is the path of the object holding it, so an error names the field's full
    path, e.g. 'hosts[1].restore_fixed_ms'."""
    path = f"{where}.{key}" if where else key
    if key not in doc:
        if default is not _REQUIRED:
            return default
        errors.append(f"{path}: required")
        return None
    val = doc[key]
    if val is None and allow_none:
        return None
    ok_types = (int,) if integer else (int, float)
    if not isinstance(val, ok_types) or isinstance(val, bool):
        kind = "an integer" if integer else "a number"
        errors.append(f"{path}: must be {kind}, got {val!r}")
        return None
    # json.loads accepts NaN and Infinity, and NaN passes every comparison
    if isinstance(val, float) and not math.isfinite(val):
        errors.append(f"{path}: must be finite, got {val}")
        return None
    if minimum is not None and val < minimum:
        errors.append(f"{path}: must be >= {minimum}, got {val}")
        return None
    return val


def parse_scenario(doc: dict) -> ScenarioConfig:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["scenario: top level must be a JSON object"])

    version = _num(doc, "schema_version", errors, integer=True)
    if version is not None and version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    seed = _num(doc, "seed", errors, integer=True, minimum=0, default=0)
    trials = _num(doc, "trials", errors, integer=True, minimum=1, default=1)

    techniques: list[Technique] = []
    raw_techniques = doc.get("techniques")
    if not isinstance(raw_techniques, list) or not raw_techniques:
        errors.append("techniques: must be a non-empty list")
    else:
        for name in raw_techniques:
            try:
                tech = Technique(name)
            except ValueError:
                valid = ", ".join(t.value for t in Technique)
                errors.append(f"techniques: unknown {name!r} (valid: {valid})")
                continue
            if tech in techniques:
                errors.append(f"techniques: {name!r} listed twice")
            else:
                techniques.append(tech)

    workload, seed_fixed = _parse_workload(doc.get("workload"), errors)

    service = doc.get("service", {})
    if not isinstance(service, dict):
        errors.append("service: must be an object")
        service = {}
    processing_ms = _num(service, "processing_ms", errors, where="service",
                         minimum=0.0, default=1.0)

    hosts = _parse_hosts(doc.get("hosts"), errors)
    links = _parse_links(doc.get("links"), hosts, errors)

    mig = doc.get("migration")
    if not isinstance(mig, dict):
        errors.append("migration: required object")
        mig = {}
    source = mig.get("source")
    target = mig.get("target")
    for label, host_id in ("migration.source", source), ("migration.target", target):
        if not isinstance(host_id, str) or not host_id:
            errors.append(f"{label}: required host id")
        elif hosts and host_id not in hosts:
            errors.append(f"{label}: unknown host {host_id!r}")
    if source and target and source == target:
        errors.append("migration.target: must differ from migration.source")
    if (isinstance(source, str) and isinstance(target, str) and links
            and hosts and source in hosts and target in hosts
            and not any(l.source == source and l.target == target for l in links)):
        errors.append(f"links: no link from {source!r} to {target!r}")

    trigger_ms = _num(mig, "trigger_ms", errors, where="migration",
                      minimum=0.0)
    pause_ms = _num(mig, "pause_ms", errors, where="migration", minimum=0.0,
                    default=0.0)
    continuation_ms = _num(mig, "continuation_ms", errors, where="migration",
                           minimum=0.0, default=0.0)
    policy = _parse_policy(mig, errors)
    overrides = _parse_overrides(doc.get("overrides", {}), errors)
    fault = _parse_fault(doc.get("fault"), errors)
    delivery_latency_ms = _num(doc, "delivery_latency_ms", errors,
                               minimum=0.0, default=0.0)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        schema_version=version,
        seed=seed,
        trials=trials,
        techniques=tuple(techniques),
        workload=workload,
        workload_seed_fixed=seed_fixed,
        processing_ms=processing_ms,
        hosts=hosts,
        links=tuple(links),
        source=source,
        target=target,
        trigger_ms=trigger_ms,
        pause_ms=pause_ms,
        continuation_ms=continuation_ms,
        policy=policy,
        overrides=overrides,
        fault=fault,
        delivery_latency_ms=delivery_latency_ms,
    )


def _parse_workload(raw, errors) -> tuple[WorkloadSpec | None, bool]:
    if not isinstance(raw, dict):
        errors.append("workload: required object")
        return None, False
    kind = raw.get("kind")
    if kind not in KINDS:
        errors.append(f"workload.kind: must be one of {', '.join(KINDS)}")
        return None, False
    rate = _num(raw, "arrival_rate", errors, where="workload", minimum=0.0)
    duration = _num(raw, "duration_ms", errors, where="workload", minimum=0.0)
    payload = _num(raw, "payload_size_bytes", errors, where="workload",
                   integer=True, minimum=MIN_PAYLOAD_BYTES, default=128)
    seed_fixed = "seed" in raw
    seed = _num(raw, "seed", errors, where="workload", integer=True,
                minimum=0, default=0)
    if rate is None or duration is None or payload is None or seed is None:
        return None, False
    try:
        spec = WorkloadSpec(kind=kind, arrival_rate=rate, duration_ms=duration,
                            payload_size_bytes=payload, seed=seed)
    except ValueError as exc:
        errors.append(f"workload: {exc}")
        return None, False
    return spec, seed_fixed


def _parse_hosts(raw, errors) -> dict[str, Host]:
    hosts: dict[str, Host] = {}
    if not isinstance(raw, list) or not raw:
        errors.append("hosts: must be a non-empty list")
        return hosts
    for i, item in enumerate(raw):
        where = f"hosts[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{where}: must be an object")
            continue
        host_id = item.get("id")
        if not isinstance(host_id, str) or not host_id:
            errors.append(f"{where}.id: required non-empty string")
            continue
        if host_id in hosts:
            errors.append(f"{where}.id: duplicate host {host_id!r}")
            continue
        fields = {}
        for name in _HOST_FIELDS:
            val = _num(item, name, errors, where=where, minimum=0.0,
                       default=0.0)
            # a bad number is already an error; the placeholder keeps the
            # host known, so links and migration naming it add no false ones
            fields[name] = 0.0 if val is None else val
        hosts[host_id] = Host(id=host_id, region=item.get("region", ""),
                              **fields)
    return hosts


def _parse_links(raw, hosts, errors) -> list[Link]:
    links: list[Link] = []
    if not isinstance(raw, list) or not raw:
        errors.append("links: must be a non-empty list")
        return links
    seen = set()
    for i, item in enumerate(raw):
        where = f"links[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{where}: must be an object")
            continue
        src, dst = item.get("source"), item.get("target")
        ok = True
        for label, endpoint in (f"{where}.source", src), (f"{where}.target", dst):
            if not isinstance(endpoint, str) or not endpoint:
                errors.append(f"{label}: required host id")
                ok = False
            elif hosts and endpoint not in hosts:
                errors.append(f"{label}: unknown host {endpoint!r}")
                ok = False
        latency = _num(item, "latency_ms", errors, where=where, minimum=0.0,
                       default=0.0)
        bandwidth = _num(item, "bandwidth_kib_per_s", errors, where=where,
                         allow_none=True, default=None)
        if bandwidth is not None and bandwidth <= 0:
            errors.append(f"{where}.bandwidth_kib_per_s: must be > 0 or null")
            bandwidth = None
        jitter = _num(item, "jitter_frac", errors, where=where, minimum=0.0,
                      default=0.0)
        if jitter is not None and jitter > 1.0:
            errors.append(f"{where}.jitter_frac: must be <= 1.0")
            jitter = None
        if not ok:
            continue
        if (src, dst) in seen:
            errors.append(f"{where}: duplicate link {src!r} -> {dst!r}")
            continue
        seen.add((src, dst))
        # as with hosts, a bad number gets a placeholder rather than dropping
        # the link, so the migration's link check adds no false error
        links.append(Link(source=src, target=dst,
                          latency_ms=0.0 if latency is None else latency,
                          bandwidth_kib_per_s=bandwidth,
                          jitter_frac=0.0 if jitter is None else jitter))
    return links


def _parse_policy(mig: dict, errors) -> HandoffPolicy:
    threshold = _num(mig, "handoff_threshold", errors, where="migration",
                     integer=True, minimum=0, default=0)
    timeout = _num(mig, "replay_timeout_ms", errors, where="migration",
                   allow_none=True, default=60_000.0)
    if timeout is not None and timeout <= 0:
        errors.append("migration.replay_timeout_ms: must be > 0 or null")
        timeout = None
    window = _num(mig, "divergence_window", errors, where="migration",
                  integer=True, minimum=1, default=5)
    interval = _num(mig, "check_interval_ms", errors, where="migration",
                    default=100.0)
    if interval is not None and interval <= 0:
        errors.append("migration.check_interval_ms: must be > 0")
        interval = 100.0
    return HandoffPolicy(
        handoff_threshold=threshold if threshold is not None else 0,
        replay_timeout_ms=timeout,
        divergence_window=window if window is not None else 5,
        check_interval_ms=interval if interval is not None else 100.0,
    )


def _parse_overrides(raw, errors) -> dict[str, dict]:
    overrides: dict[str, dict] = {}
    if not isinstance(raw, dict):
        errors.append("overrides: must be an object keyed by technique")
        return overrides
    valid_techniques = {t.value for t in Technique}
    for tech, fields in raw.items():
        where = f"overrides.{tech}"
        if tech not in valid_techniques:
            errors.append(f"overrides: unknown technique {tech!r}")
            continue
        if not isinstance(fields, dict):
            errors.append(f"{where}: must be an object")
            continue
        clean = {}
        for key in fields:
            if key not in _OVERRIDE_KEYS:
                errors.append(f"{where}.{key}: unknown override")
                continue
            allow_none = key == "bandwidth_kib_per_s"
            val = _num(fields, key, errors, where=where,
                       minimum=None if allow_none else 0.0,
                       allow_none=allow_none)
            if key == "bandwidth_kib_per_s" and val is not None and val <= 0:
                errors.append(f"{where}.{key}: must be > 0 or null")
                continue
            if key == "jitter_frac" and val is not None and val > 1.0:
                errors.append(f"{where}.{key}: must be <= 1.0")
                continue
            if val is not None or allow_none:
                clean[key] = val
        overrides[tech] = clean
    return overrides


def _parse_fault(raw, errors) -> FaultSpec | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append("fault: must be an object or null")
        return None
    kind = raw.get("kind", "source_crash")
    at_ms = _num(raw, "at_ms", errors, where="fault", minimum=0.0,
                 default=None, allow_none=True)
    if at_ms is None and raw.get("at_ms") is not None:
        at_ms = 0.0  # a bad number, already reported; keep it given
    phase = raw.get("phase")
    offset = _num(raw, "offset_ms", errors, where="fault", minimum=0.0,
                  default=0.0)
    try:
        return FaultSpec(kind=kind, at_ms=at_ms, phase=phase,
                         offset_ms=offset if offset is not None else 0.0)
    except ValueError as exc:
        errors.append(f"fault: {exc}")
        return None


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: invalid JSON: {exc}"]) from None
    return parse_scenario(doc)


def effective_params(config: ScenarioConfig, technique: Technique,
                     trial: int) -> SimParams:
    """Resolve one (technique, trial) cell into simulation parameters.

    Per-technique overrides replace the shared cost constants so the two
    techniques can be calibrated independently. The trial index offsets the
    seed; a workload that pinned its own seed keeps it across trials.
    """
    ov = config.overrides.get(technique.value, {})
    source_host = config.hosts[config.source]
    target_host = config.hosts[config.target]
    link = next(l for l in config.links
                if l.source == config.source and l.target == config.target)

    host_keys = {k: ov[k] for k in ("checkpoint_fixed_ms", "checkpoint_ms_per_kib")
                 if k in ov}
    if host_keys:
        source_host = dataclasses.replace(source_host, **host_keys)
    host_keys = {k: ov[k] for k in ("restore_fixed_ms", "restore_ms_per_kib")
                 if k in ov}
    if host_keys:
        target_host = dataclasses.replace(target_host, **host_keys)
    link_keys = {k: ov[k] for k in ("latency_ms", "bandwidth_kib_per_s",
                                    "jitter_frac") if k in ov}
    if link_keys:
        link = dataclasses.replace(link, **link_keys)

    trial_seed = config.seed + trial
    workload = config.workload
    if not config.workload_seed_fixed:
        workload = dataclasses.replace(workload, seed=trial_seed)

    return SimParams(
        source_host=source_host,
        target_host=target_host,
        link=link,
        workload=workload,
        processing_ms=config.processing_ms,
        pause_ms=ov.get("pause_ms", config.pause_ms),
        continuation_ms=ov.get("continuation_ms", config.continuation_ms),
        technique=technique,
        trigger_ms=config.trigger_ms,
        policy=config.policy,
        seed=trial_seed,
        fault=config.fault,
        delivery_latency_ms=config.delivery_latency_ms,
    )
