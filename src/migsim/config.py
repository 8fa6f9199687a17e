"""Scenario files: JSON documents describing hosts, links, workload, the
migration to run and how many trials to take.

Validation collects every problem it can find into one ConfigError instead of
stopping at the first, so a scenario author sees the full repair list.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .migration import HandoffPolicy, Technique
from .rules import REQUIRED, Rule, param, problem, rules
from .sim import FaultSpec, SimParams
from .simnet import Host, Link, region_problem
from .workload import KINDS, WorkloadSpec

SCHEMA_VERSION = 1
# run_experiment keeps every row in memory until the CSV is written
MAX_TRIALS = 10_000


class ConfigError(Exception):
    """Carries one message per problem found, as 'field: message' lines."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """A parsed scenario: how many trials to run from which seed, the
    workload every cell shares, and one SimParams per technique, in scenario
    order, with that technique's overrides applied. Those params carry no
    workload; effective_params adds each trial's seed and workload.

    The numeric rules of the fields a scenario passes on are those of the
    dataclasses that take them (SimParams, WorkloadSpec, Host, Link,
    HandoffPolicy, FaultSpec); only trials' rule is here."""

    seed: int
    trials: int = param(1, minimum=1, maximum=MAX_TRIALS, integer=True)
    workload: WorkloadSpec
    workload_seed_fixed: bool
    params: dict[Technique, SimParams]

    @property
    def techniques(self) -> tuple[Technique, ...]:
        return tuple(self.params)


# the rule of every numeric field a scenario sets outside its objects
_SCENARIO = rules(SimParams) | rules(ScenarioConfig) | {
    "schema_version": Rule(integer=True),
    # a scenario must say when to migrate; SimParams may leave it out
    "trigger_ms": Rule(minimum=0.0),
}
# an override obeys the rule of the field it replaces
_OVERRIDES = rules(Host) | rules(Link) | {
    key: _SCENARIO[key] for key in ("pause_ms", "continuation_ms")}


def _num(doc, key, rule, errors, where=""):
    """Pull one numeric field by its rule, recording an error instead of
    raising. where is the path of the object holding it, so an error names
    the field's full path, e.g. 'hosts[1].restore_fixed_ms'. A bad value
    yields the field's default as a placeholder (None if required), so the
    object holding it stays known and adds no false follow-on errors."""
    path = f"{where}.{key}" if where else key
    placeholder = None if rule.default is REQUIRED else rule.default
    if key not in doc:
        if rule.default is REQUIRED:
            errors.append(f"{path}: required")
        return placeholder
    text = problem(doc[key], rule)
    if text is None:
        return doc[key]
    errors.append(f"{path}: {text}")
    return placeholder


def _fields(doc, table, errors, where="", keys=None) -> dict:
    """The fields of table named in keys (all of them by default)."""
    return {key: _num(doc, key, table[key], errors, where)
            for key in keys or table}


def parse_scenario(doc: dict) -> ScenarioConfig:
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ConfigError(["scenario: top level must be a JSON object"])

    top = _fields(doc, _SCENARIO, errors, keys=(
        "schema_version", "seed", "trials", "delivery_latency_ms"))
    version = top["schema_version"]
    if version is not None and version != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, got {version}")

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
    processing = _fields(service, _SCENARIO, errors, "service",
                         keys=("processing_ms",))

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

    timing = _fields(mig, _SCENARIO, errors, "migration",
                     keys=("trigger_ms", "pause_ms", "continuation_ms"))
    policy = HandoffPolicy(
        **_fields(mig, rules(HandoffPolicy), errors, "migration"))
    overrides = _parse_overrides(doc.get("overrides", {}), errors)
    fault = _parse_fault(doc.get("fault"), errors)

    if errors:
        raise ConfigError(errors)
    link = next(l for l in links if l.source == source and l.target == target)
    params = {}
    for tech in techniques:
        # per-technique overrides replace the shared cost constants, so the
        # two techniques can be calibrated independently
        ov = overrides.get(tech.value, {})
        params[tech] = SimParams(
            source_host=_override(hosts[source], ov, "checkpoint_"),
            target_host=_override(hosts[target], ov, "restore_"),
            link=_override(link, ov),
            **processing,
            **{key: ov.get(key, val) for key, val in timing.items()},
            technique=tech,
            policy=policy,
            fault=fault,
            delivery_latency_ms=top["delivery_latency_ms"],
        )
    return ScenarioConfig(seed=top["seed"], trials=top["trials"],
                          workload=workload, workload_seed_fixed=seed_fixed,
                          params=params)


def _parse_workload(raw, errors) -> tuple[WorkloadSpec | None, bool]:
    if not isinstance(raw, dict):
        errors.append("workload: required object")
        return None, False
    kind = raw.get("kind")
    if kind not in KINDS:
        errors.append(f"workload.kind: must be one of {', '.join(KINDS)}")
        return None, False
    fields = _fields(raw, rules(WorkloadSpec), errors, "workload")
    if fields["arrival_rate"] is None or fields["duration_ms"] is None:
        return None, False
    try:
        return WorkloadSpec(kind=kind, **fields), "seed" in raw
    except ValueError as exc:
        errors.append(f"workload: {exc}")
        return None, False


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
        # a bad value gets a placeholder, keeping the host known
        region = item.get("region", "")
        text = region_problem(region)
        if text is not None:
            errors.append(f"{where}.region: {text}")
            region = ""
        hosts[host_id] = Host(id=host_id, region=region,
                              **_fields(item, rules(Host), errors, where))
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
        numbers = _fields(item, rules(Link), errors, where)
        if not ok:
            continue
        if (src, dst) in seen:
            errors.append(f"{where}: duplicate link {src!r} -> {dst!r}")
            continue
        seen.add((src, dst))
        # as with hosts, a bad number keeps the link with a placeholder, so
        # the migration's link check adds no false error
        links.append(Link(source=src, target=dst, **numbers))
    return links


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
            if key in _OVERRIDES:
                clean[key] = _num(fields, key, _OVERRIDES[key], errors, where)
            else:
                errors.append(f"{where}.{key}: unknown override")
        overrides[tech] = clean
    return overrides


def _parse_fault(raw, errors) -> FaultSpec | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        errors.append("fault: must be an object or null")
        return None
    numbers = _fields(raw, rules(FaultSpec), errors, "fault")
    if numbers["at_ms"] is None and raw.get("at_ms") is not None:
        numbers["at_ms"] = 0.0  # a bad number, already reported; keep it given
    phase = raw.get("phase")
    if phase is not None and not isinstance(phase, str):
        errors.append(f"fault.phase: must be a phase name or null, got {phase!r}")
        return None
    try:
        return FaultSpec(kind=raw.get("kind", "source_crash"), phase=phase,
                         **numbers)
    except ValueError as exc:
        errors.append(f"fault: {exc}")
        return None


def read_scenario(path: str | Path):
    """The JSON document of a scenario file, not yet validated."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from None
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer past
        # Python's int-string conversion limit
        raise ConfigError([f"{path}: invalid JSON: {exc}"]) from None


def load_scenario(path: str | Path) -> ScenarioConfig:
    return parse_scenario(read_scenario(path))


def effective_params(config: ScenarioConfig, technique: Technique,
                     trial: int) -> SimParams:
    """Resolve one (technique, trial) cell into simulation parameters: the
    technique's params with the trial's seed, config.seed + trial, and the
    workload, which takes that seed too unless it pinned its own."""
    trial_seed = config.seed + trial
    workload = config.workload
    if not config.workload_seed_fixed:
        workload = dataclasses.replace(workload, seed=trial_seed)
    return dataclasses.replace(config.params[technique], seed=trial_seed,
                               workload=workload)


def _override(obj, ov: dict, prefix: str = ""):
    """obj with the overrides of its own fields whose names start with
    prefix applied."""
    own = rules(type(obj))
    given = {key: val for key, val in ov.items()
             if key in own and key.startswith(prefix)}
    return dataclasses.replace(obj, **given) if given else obj
