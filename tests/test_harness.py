import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from migsim.cli import main
from migsim.config import (ConfigError, MAX_TRIALS, SCHEMA_VERSION,
                           ScenarioConfig, effective_params, load_scenario,
                           max_replay_checks, parse_scenario)
from migsim.harness import (CSV_COLUMNS, TrialRow, compare, export_csv,
                            load_csv, run_experiment)
from migsim.migration import HandoffPolicy, MigrationManager, Technique
from migsim.rules import rules
from migsim.sim import FaultSpec, SimParams, Simulation
from migsim.simnet import Host, Link
from migsim.workload import WorkloadSpec

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _doc(**kw):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "seed": 3,
        "trials": 2,
        "techniques": ["MS2M", "StopAndCopy"],
        "workload": {"kind": "ConstantRate", "arrival_rate": 40,
                     "duration_ms": 3000},
        "service": {"processing_ms": 1.0},
        "hosts": [
            {"id": "a", "checkpoint_fixed_ms": 10, "checkpoint_ms_per_kib": 8},
            {"id": "b", "restore_fixed_ms": 8, "restore_ms_per_kib": 8},
        ],
        "links": [{"source": "a", "target": "b", "latency_ms": 15,
                   "bandwidth_kib_per_s": 4096}],
        "migration": {"source": "a", "target": "b", "trigger_ms": 700,
                      "pause_ms": 4, "continuation_ms": 3},
    }
    doc.update(kw)
    return doc


def test_rows_are_trial_major_in_scenario_technique_order():
    report = run_experiment(parse_scenario(_doc()))
    cells = [(r.trial, r.technique) for r in report]
    assert cells == [(0, "MS2M"), (0, "StopAndCopy"),
                     (1, "MS2M"), (1, "StopAndCopy")]


def test_completed_runs_drain_fully():
    report = run_experiment(parse_scenario(_doc()))
    assert all(r.outcome == "Completed" for r in report)
    assert all(r.drain_ms >= 0.0 for r in report)


def test_csv_export_is_deterministic(tmp_path):
    config = parse_scenario(_doc())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(run_experiment(config), a)
    export_csv(run_experiment(config), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_header_and_float_format(tmp_path):
    path = tmp_path / "r.csv"
    export_csv(run_experiment(parse_scenario(_doc(trials=1))), path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("schema_version,trial,technique,outcome,total_ms,"
                        "downtime_strict_ms,downtime_paused_ms,pause_ms,"
                        "checkpoint_ms,continuation_ms,transfer_ms,"
                        "restoration_ms,replay_ms,finalize_ms,"
                        "replayed_count,drain_ms")
    float_cell = re.compile(r"-?\d+\.\d{6}$")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(CSV_COLUMNS)
        for idx in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15):
            assert float_cell.match(cells[idx]), cells[idx]


def test_aborted_rows_use_drain_sentinel(tmp_path):
    doc = _doc(trials=1, fault={"kind": "source_crash", "at_ms": 702})
    path = tmp_path / "r.csv"
    report = run_experiment(parse_scenario(doc))
    assert all(r.outcome == "AbortedSourceCrash" for r in report)
    assert all(r.drain_ms == -1.0 for r in report)
    export_csv(report, path)
    for line in path.read_text().splitlines()[1:]:
        assert line.endswith(",-1.000000")


def test_csv_round_trip_is_a_fixed_point(tmp_path):
    first, second = tmp_path / "1.csv", tmp_path / "2.csv"
    export_csv(run_experiment(parse_scenario(_doc(trials=1))), first)
    export_csv(load_csv(first), second)
    assert first.read_bytes() == second.read_bytes()
    loaded = load_csv(first)
    assert loaded[0].technique == "MS2M"
    assert isinstance(loaded[0].total_ms, float)
    assert isinstance(loaded[0].replayed_count, int)


def test_load_csv_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_csv(path)


def _row(tech, outcome="Completed", **kw):
    base = dict(schema_version=1, trial=0, technique=tech, outcome=outcome,
                total_ms=0.0, downtime_strict_ms=0.0, downtime_paused_ms=0.0,
                pause_ms=0.0, checkpoint_ms=0.0, continuation_ms=0.0,
                transfer_ms=0.0, restoration_ms=0.0, replay_ms=0.0,
                finalize_ms=0.0, replayed_count=0, drain_ms=-1.0)
    base.update(kw)
    return TrialRow(**base)


def test_compare_oracle():
    report = [
        _row("MS2M", total_ms=44.0, downtime_paused_ms=30.0,
             downtime_strict_ms=10.0, pause_ms=1.0, checkpoint_ms=2.0,
             transfer_ms=3.0),
        # aborted trials never contribute to timing means
        _row("MS2M", outcome="AbortedDivergence", total_ms=9999.0,
             downtime_paused_ms=9999.0),
        _row("StopAndCopy", total_ms=40.0, downtime_paused_ms=40.0,
             downtime_strict_ms=40.0, pause_ms=1.0, checkpoint_ms=2.0,
             transfer_ms=3.0),
    ]
    cmp = compare(report)
    ms2m = cmp.techniques["MS2M"]
    assert ms2m.trials == 2
    assert ms2m.outcomes == {"Completed": 1, "AbortedDivergence": 1}
    assert ms2m.mean_total_ms == 44.0
    assert ms2m.mean_downtime_pct_ms == 6.0
    assert cmp.total_delta_pct == pytest.approx(10.0)
    assert cmp.downtime_reduction_paused_pct == pytest.approx(25.0)
    assert cmp.downtime_reduction_strict_pct == pytest.approx(75.0)
    assert cmp.downtime_reduction_pct_reading_pct == pytest.approx(85.0)
    text = cmp.format_text()
    assert "paused 25.00%" in text


def test_compare_single_technique_has_no_deltas():
    cmp = compare([_row("MS2M", total_ms=10.0)])
    assert cmp.total_delta_pct is None
    assert cmp.downtime_reduction_paused_pct is None
    assert "vs" not in cmp.format_text()


def test_compare_prints_a_reduction_it_cannot_compute_as_na(tmp_path,
                                                          capsys):
    # a baseline with no paused downtime leaves every reduction undefined,
    # while the total delta still is one
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv([_row("MS2M", total_ms=10.0)], a)
    export_csv([_row("StopAndCopy", total_ms=10.0)], b)
    assert main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "  total migration time  +0.00%\n" in out
    assert out.endswith("  downtime reduction: paused n/a, strict n/a,"
                        " p+c+t n/a\n")


def test_compare_summarizes_a_technique_with_no_completed_trial():
    # stress_overload.json aborts every MS2M cell; its means are taken over
    # the aborted trials rather than over none
    cmp = compare([_row("MS2M", outcome="AbortedDivergence", total_ms=30.0),
                   _row("MS2M", outcome="AbortedDivergence", total_ms=50.0)])
    ms2m = cmp.techniques["MS2M"]
    assert ms2m.outcomes == {"AbortedDivergence": 2}
    assert ms2m.mean_total_ms == 40.0


def test_calibrated_reduction_follows_from_its_constants():
    # the paper's 19.92%, derived from the scenario's constants and the
    # 166-byte checkpoint every trial takes: at 1024 ms per KiB, that adds
    # 166 ms to the checkpoint and to each restore; the link has no bandwidth
    # limit, so a transfer is its latency
    scenario = json.loads((SCENARIO_DIR / "calibrated.json").read_text())
    mig = scenario["migration"]
    source, target = scenario["hosts"]
    baseline = scenario["overrides"]["StopAndCopy"]
    size_kib = 166 / 1024
    checkpoint = (source["checkpoint_fixed_ms"]
                  + source["checkpoint_ms_per_kib"] * size_kib)
    restore_by_size = target["restore_ms_per_kib"] * size_kib
    ms2m = mig["pause_ms"] + checkpoint + scenario["links"][0]["latency_ms"]
    stop_and_copy = (mig["pause_ms"] + checkpoint + baseline["latency_ms"]
                     + baseline["restore_fixed_ms"] + restore_by_size
                     + mig["continuation_ms"])
    assert ms2m == pytest.approx(3581.896, abs=5e-4)
    assert stop_and_copy == pytest.approx(4472.720, abs=5e-4)

    rows = run_experiment(load_scenario(SCENARIO_DIR / "calibrated.json"))
    assert all(abs(r.checkpoint_ms - checkpoint) < 1e-9 for r in rows)
    summary = compare(rows)
    reduction = (1 - ms2m / stop_and_copy) * 100
    assert abs(summary.downtime_reduction_pct_reading_pct - reduction) < 1e-9
    assert f"{reduction:.2f}" == "19.92"
    # the paused reading of the same run: MS2M's source resumes after the
    # continuation, before the transfer
    paused = mig["pause_ms"] + checkpoint + mig["continuation_ms"]
    assert f"{summary.downtime_reduction_paused_pct:.2f}" == "28.93"
    assert abs(summary.downtime_reduction_paused_pct
               - (1 - paused / stop_and_copy) * 100) < 1e-9


# -- scenario parsing ------------------------------------------------------------


def test_parse_collects_every_error():
    doc = _doc(schema_version=99, techniques=["Teleport"],
               workload={"kind": "Uniform"}, hosts=[])
    del doc["migration"]["trigger_ms"]
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    messages = err.value.errors
    for prefix in ("schema_version:", "techniques:", "workload.kind:",
                   "hosts:", "migration.trigger_ms:"):
        assert any(m.startswith(prefix) for m in messages), prefix
    assert len(messages) >= 5

    # an integer past float range would overflow like inf, so it is refused
    nan, inf = float("nan"), float("inf")
    doc = _doc(service={"processing_ms": nan},
               links=[{"source": "a", "target": "b", "latency_ms": nan}],
               workload={"kind": "ConstantRate", "arrival_rate": 10**400,
                         "duration_ms": inf})
    doc["migration"]["trigger_ms"] = nan
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    messages = err.value.errors
    for prefix in ("service.processing_ms:", "links[0].latency_ms:",
                   "workload.arrival_rate:", "workload.duration_ms:",
                   "migration.trigger_ms:"):
        assert any(m.startswith(prefix) and "must be finite" in m
                   for m in messages), prefix

    # each error names its field's full path, and a host or link with a bad
    # number stays known, so no unknown-host or missing-link error follows
    doc = _doc()
    doc["hosts"][1]["restore_fixed_ms"] = -1
    doc["links"].append({"source": "b", "target": "a", "jitter_frac": 2})
    doc["links"][0]["latency_ms"] = "far"
    doc["overrides"] = {"MS2M": {"latency_ms": -5}}
    doc["fault"] = {"kind": "source_crash", "at_ms": -1}
    doc["workload"]["seed"] = -1
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert sorted(err.value.errors) == [
        "fault.at_ms: must be >= 0.0, got -1",
        "hosts[1].restore_fixed_ms: must be >= 0.0, got -1",
        "links[0].latency_ms: must be a number, got 'far'",
        "links[1].jitter_frac: must be <= 1.0",
        "overrides.MS2M.latency_ms: must be >= 0.0, got -5",
        "workload.seed: must be >= 0, got -1",
    ]

    # a payload over 1 MiB and a replay check under 1 ms would pass here and
    # then fail the run, so both are bounded; the bounds themselves pass
    doc = _doc()
    doc["workload"]["payload_size_bytes"] = (1 << 20) + 1
    doc["migration"]["check_interval_ms"] = 1e-9
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert sorted(err.value.errors) == [
        "migration.check_interval_ms: must be >= 1.0, got 1e-09",
        "workload.payload_size_bytes: must be <= 1048576",
    ]
    doc["workload"]["payload_size_bytes"] = 1 << 20
    doc["migration"]["check_interval_ms"] = 1
    config = parse_scenario(doc)
    assert config.workload.payload_size_bytes == 1 << 20
    assert config.params[Technique.MS2M].policy.check_interval_ms == 1

    # a stream over a million messages is refused before anything allocates
    # it; the cap itself passes
    doc = _doc()
    doc["workload"].update(arrival_rate=1e6, duration_ms=1e9)
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.errors == [
        "workload: arrival_rate * duration_ms / 1000 must be <= 1000000, "
        "got 1000000000000.0"]
    doc["workload"].update(arrival_rate=1000, duration_ms=1e6)
    assert parse_scenario(doc).workload.duration_ms == 1e6


def test_parse_validates_topology():
    doc = _doc(links=[
        {"source": "b", "target": "a"},
        {"source": "b", "target": "a"},
    ])
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    text = str(err.value)
    assert "no link from 'a' to 'b'" in text
    assert "duplicate link" in text

    doc = _doc()
    doc["migration"]["target"] = "a"
    with pytest.raises(ConfigError, match="must differ"):
        parse_scenario(doc)

    # an empty list leaves effective_params no link to pick
    for links in ([], {}):
        with pytest.raises(ConfigError) as err:
            parse_scenario(_doc(links=links))
        assert err.value.errors == ["links: must be a non-empty list"]

    # a host that is not listed is named where it is referred to
    doc = _doc(links=[{"source": "a", "target": "c"}])
    doc["migration"]["source"] = "z"
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert err.value.errors == ["links[0].target: unknown host 'c'",
                                "migration.source: unknown host 'z'"]


def test_parse_refuses_repeats_and_entries_that_are_not_objects():
    doc = _doc(techniques=["MS2M", "StopAndCopy", "MS2M"])
    doc["hosts"].append({"id": "a"})
    doc["links"].append(["a", "b"])
    doc["overrides"] = {"MS2M": [1]}
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    assert sorted(err.value.errors) == [
        "hosts[2].id: duplicate host 'a'",
        "links[1]: must be an object",
        "overrides.MS2M: must be an object",
        "techniques: 'MS2M' listed twice",
    ]
    for top in ([], "scenario", None):
        with pytest.raises(ConfigError) as err:
            parse_scenario(top)
        assert err.value.errors == [
            "scenario: top level must be a JSON object"]


def test_parse_validates_link_numbers():
    doc = _doc(links=[{"source": "a", "target": "b",
                       "bandwidth_kib_per_s": 0, "jitter_frac": 1.5}])
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    text = str(err.value)
    assert "bandwidth_kib_per_s: must be > 0 or null" in text
    assert "jitter_frac: must be <= 1.0" in text


def test_parse_validates_overrides():
    doc = _doc(overrides={
        "MS2M": {"warp_factor": 2},
        "StopAndCopy": {"bandwidth_kib_per_s": 0},
        "Teleport": {},
    })
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    text = str(err.value)
    assert "warp_factor: unknown override" in text
    assert "overrides.StopAndCopy.bandwidth_kib_per_s" in text
    assert "unknown technique 'Teleport'" in text
    for raw in ([], "MS2M"):
        with pytest.raises(ConfigError) as err:
            parse_scenario(_doc(overrides=raw))
        assert err.value.errors == [
            "overrides: must be an object keyed by technique"]


def test_effective_params_applies_per_technique_overrides():
    doc = _doc(overrides={"StopAndCopy": {
        "latency_ms": 5, "restore_fixed_ms": 99, "pause_ms": 1}})
    config = parse_scenario(doc)

    sc = effective_params(config, Technique.STOP_AND_COPY, trial=0)
    assert sc.link.latency_ms == 5
    assert sc.target_host.restore_fixed_ms == 99
    assert sc.pause_ms == 1

    ms = effective_params(config, Technique.MS2M, trial=0)
    assert ms.link.latency_ms == 15
    assert ms.target_host.restore_fixed_ms == 8
    assert ms.pause_ms == 4
    # shared pieces stay shared
    assert ms.source_host == sc.source_host
    assert ms.workload == sc.workload

    # every override key changes exactly its own field, on its own
    # technique's params only; None names a field of SimParams itself
    cases = {
        "checkpoint_fixed_ms": (11, "source_host"),
        "checkpoint_ms_per_kib": (12, "source_host"),
        "restore_fixed_ms": (99, "target_host"),
        "restore_ms_per_kib": (13, "target_host"),
        "latency_ms": (5, "link"),
        "bandwidth_kib_per_s": (None, "link"),
        "jitter_frac": (0.25, "link"),
        "pause_ms": (1, None),
        "continuation_ms": (2, None),
    }
    base = parse_scenario(_doc())
    for key, (val, part) in cases.items():
        config = parse_scenario(_doc(overrides={"StopAndCopy": {key: val}}))
        for tech in Technique:
            want = effective_params(base, tech, trial=0)
            if tech is Technique.STOP_AND_COPY:
                holder = want if part is None else getattr(want, part)
                assert getattr(holder, key) != val, key
                changed = dataclasses.replace(holder, **{key: val})
                want = (changed if part is None
                        else dataclasses.replace(want, **{part: changed}))
            assert effective_params(config, tech, trial=0) == want, (key, tech)


def test_effective_params_per_trial_seeds():
    config = parse_scenario(_doc())
    p0 = effective_params(config, Technique.MS2M, trial=0)
    p4 = effective_params(config, Technique.MS2M, trial=4)
    assert p0.seed == 3 and p4.seed == 7
    assert p0.workload.seed == 3 and p4.workload.seed == 7

    pinned = parse_scenario(_doc(workload={
        "kind": "Poisson", "arrival_rate": 40, "duration_ms": 3000,
        "seed": 11}))
    q0 = effective_params(pinned, Technique.MS2M, trial=0)
    q4 = effective_params(pinned, Technique.MS2M, trial=4)
    assert q0.workload.seed == q4.workload.seed == 11
    assert q0.seed == 3 and q4.seed == 7


def test_adjusted_config_reaches_every_cell():
    # perfbench adjusts a loaded scenario this way; the config holds the one
    # copy of the workload and seed that every cell starts from
    config = parse_scenario(_doc())
    workload = WorkloadSpec("Poisson", 25, 2000)
    adjusted = dataclasses.replace(config, workload=workload, seed=40,
                                   trials=1)
    for tech in (Technique.MS2M, Technique.STOP_AND_COPY):
        params = effective_params(adjusted, tech, trial=2)
        assert params.seed == 42
        assert params.workload == dataclasses.replace(workload, seed=42)
    rows = run_experiment(adjusted)
    assert [(r.trial, r.technique) for r in rows] == [
        (0, "MS2M"), (0, "StopAndCopy")]


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(bad)


def test_shipped_scenarios_parse():
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert len(paths) >= 5
    for path in paths:
        config = load_scenario(path)
        assert config.trials >= 1
        assert config.techniques


# where each ruled field of the run's dataclasses sits in a scenario, as a
# path from the top of the document and the object's name in error paths
_SCENARIO_HOMES = {
    Host: (("hosts", 0), "hosts[0]"),
    Link: (("links", 0), "links[0]"),
    WorkloadSpec: (("workload",), "workload"),
    HandoffPolicy: (("migration",), "migration"),
    FaultSpec: (("fault",), "fault"),
}
_SIM_PARAMS_HOMES = {
    "processing_ms": (("service",), "service"),
    "pause_ms": (("migration",), "migration"),
    "continuation_ms": (("migration",), "migration"),
    "trigger_ms": (("migration",), "migration"),
    "seed": ((), ""),
    "delivery_latency_ms": ((), ""),
}
_LIBRARY_BASES = {
    Host: Host("a"), Link: Link("a", "b"),
    WorkloadSpec: WorkloadSpec("ConstantRate", 40, 3000),
    HandoffPolicy: HandoffPolicy(), FaultSpec: FaultSpec(at_ms=1.0),
    SimParams: SimParams(Host("a"), Host("b"), Link("a", "b")),
}


def _bad_values(rule):
    """NaN, both infinities, True, and a value past each bound of rule."""
    yield from (float("nan"), float("inf"), float("-inf"), True)
    if not rule.nullable:
        yield None
    step = 1 if rule.integer else 0.5
    if rule.minimum is not None:
        yield rule.minimum - step
    if rule.above is not None:
        yield rule.above
    if rule.maximum is not None:
        yield rule.maximum + step


_RULED = [(cls, name, val) for cls in _LIBRARY_BASES
          for name, rule in rules(cls).items() for val in _bad_values(rule)]


@pytest.mark.parametrize("cls, name, val", _RULED, ids=[
    f"{cls.__name__}.{name}={val!r}" for cls, name, val in _RULED])
def test_library_callers_get_the_scenario_rules(cls, name, val):
    with pytest.raises(ValueError) as lib:
        dataclasses.replace(_LIBRARY_BASES[cls], **{name: val})

    keys, where = (_SIM_PARAMS_HOMES[name] if cls is SimParams
                   else _SCENARIO_HOMES[cls])
    doc = _doc(trials=1, fault={"kind": "source_crash", "at_ms": 1.0})
    holder = doc
    for key in keys:
        holder = holder[key]
    holder[name] = val
    path = f"{where}.{name}" if where else name
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc)
    [text] = [e[len(path) + 2:] for e in err.value.errors
              if e.startswith(f"{path}: ")]
    assert str(lib.value) == f"{cls.__name__}.{name}: {text}"


def _value_paths(node, prefix=()):
    """The path of every value below node, as key and index tuples."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


def _has(node, key) -> bool:
    return (isinstance(node, dict) and key in node
            or isinstance(node, list) and isinstance(key, int)
            and key < len(node))


_SHIPPED = {path.name: path.read_text() for path in SCENARIO_DIR.glob("*.json")}
_PATHS = {name: list(_value_paths(json.loads(text)))
          for name, text in _SHIPPED.items()}
_DELETE = object()
_EDIT = st.sampled_from([_DELETE, None, float("nan"), float("inf"), -1, "x",
                         [], {}, 10**12])


@st.composite
def _mutants(draw):
    name = draw(st.sampled_from(sorted(_SHIPPED)))
    edits = draw(st.lists(st.tuples(st.sampled_from(_PATHS[name]), _EDIT),
                          min_size=1, max_size=3))
    return name, edits


@settings(max_examples=200, deadline=None)
@given(_mutants())
@example(("crash_replay.json", [(("fault", "phase"), {})]))
def test_parse_scenario_accepts_or_reports_mutants(mutant):
    name, edits = mutant
    doc = json.loads(_SHIPPED[name])
    for path, edit in edits:
        holder = doc
        for key in path[:-1]:
            holder = holder[key] if _has(holder, key) else None
        if not _has(holder, path[-1]):
            continue  # an earlier edit removed or replaced this path
        if edit is _DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = copy.deepcopy(edit)
    try:
        assert isinstance(parse_scenario(doc), ScenarioConfig)
    except ConfigError as exc:
        assert exc.errors


@st.composite
def _replay_scenarios(draw):
    """One MS2M trial whose replay may drain, diverge, time out or start
    after the last arrival. Poisson is left out: its count is random, and
    the bound takes its mean."""
    doc = _doc(
        trials=1, techniques=["MS2M"],
        service={"processing_ms": draw(st.sampled_from([0.0, 1.0, 4.0, 10.0]))},
        delivery_latency_ms=draw(st.sampled_from([0.0, 0.7, 3.0])),
        workload={"kind": draw(st.sampled_from(["ConstantRate", "GameSession"])),
                  "arrival_rate": draw(st.sampled_from([0.0, 20.0, 90.0, 150.0])),
                  "duration_ms": draw(st.floats(0.0, 1500.0))})
    doc["migration"].update(
        trigger_ms=draw(st.floats(0.0, 2000.0)),
        replay_timeout_ms=draw(st.sampled_from([None, 30.0, 400.0])),
        check_interval_ms=draw(st.sampled_from([1.0, 7.5, 40.0])),
        handoff_threshold=draw(st.sampled_from([0, 3])),
        divergence_window=draw(st.sampled_from([1, 5, 10**6])))
    return doc


_DIVERGING = _doc(trials=1, techniques=["MS2M"], service={"processing_ms": 10.0},
                  workload={"kind": "ConstantRate", "arrival_rate": 150.0,
                            "duration_ms": 1500.0})
_DIVERGING["migration"].update(trigger_ms=100.0, replay_timeout_ms=None,
                               check_interval_ms=1.0, divergence_window=10**6)


@settings(max_examples=40, deadline=None)
@given(_replay_scenarios())
# arrivals at 1.5x the replay rate and no timeout: replay runs on past the
# last arrival until the backlog drains, about 2160 checks
@example(_DIVERGING)
def test_the_replay_monitor_stays_within_its_check_bound(doc):
    config = parse_scenario(doc)
    checks = []
    real_on_event = MigrationManager._on_event

    def on_event(self, event):
        checks.append(event == "check_due")
        real_on_event(self, event)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MigrationManager, "_on_event", on_event)
        Simulation(effective_params(config, Technique.MS2M, 0)).run()
    assert sum(checks) <= max_replay_checks(config.workload,
                                            config.params[Technique.MS2M])


# -- command line ----------------------------------------------------------------


def _write_scenario(tmp_path, doc=None) -> Path:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc if doc is not None else _doc(trials=1)))
    return path


def test_cli_run_writes_report(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    report_path = out / "scenario.csv"
    assert report_path.exists()
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    assert "MS2M" in stdout
    rows = load_csv(report_path)
    assert len(rows) == 2  # one trial, two techniques


def test_cli_run_seed_and_trials_overrides(tmp_path, capsys):
    # Poisson arrivals follow the run seed, so the override must show up
    scenario = _write_scenario(tmp_path, _doc(trials=1, workload={
        "kind": "Poisson", "arrival_rate": 40, "duration_ms": 3000}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario), "--out", str(out_a),
                 "--trials", "2", "--seed", "5"]) == 0
    assert main(["run", str(scenario), "--out", str(out_b),
                 "--trials", "2", "--seed", "6"]) == 0
    a = (out_a / "scenario.csv").read_bytes()
    b = (out_b / "scenario.csv").read_bytes()
    assert a != b
    assert len(a.splitlines()) == 5  # header + 2 trials x 2 techniques
    # a flag takes the file field's place and obeys its rule
    assert main(["run", str(scenario), "--trials", "0"]) == 1
    assert main(["run", str(scenario), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["trials: must be >= 1, got 0",
                                "seed: must be >= 0, got -1"]


def test_cli_validate(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    assert main(["validate", str(scenario)]) == 0
    assert "ok" in capsys.readouterr().out

    broken = _write_scenario(tmp_path, _doc(hosts=[]))
    assert main(["validate", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "hosts:" in err

    # json writes the NaN token, which json.loads reads back as a float
    doc = _doc(trials=1)
    doc["migration"]["trigger_ms"] = float("nan")
    assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 1
    assert "trigger_ms: must be finite" in capsys.readouterr().err

    # a phase is a name: an object is a validation error, not a crash
    doc = _doc(trials=1, fault={"kind": "source_crash",
                                "phase": {"name": "MessageReplay"}})
    assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 1
    assert "fault.phase: must be a phase name" in capsys.readouterr().err


def test_validate_refuses_a_replay_the_event_budget_cannot_hold(tmp_path,
                                                                capsys):
    # with no timeout, 1 ms checks over a replay that may last until 2*10^7
    # ms of arrivals at 1500 ms each have drained would exhaust the event
    # budget mid-run; the run used to fail only after about 20 s
    doc = _doc(trials=1, techniques=["MS2M"], service={"processing_ms": 1500},
               workload={"kind": "ConstantRate", "arrival_rate": 1,
                         "duration_ms": 2e7})
    doc["migration"].update(replay_timeout_ms=None, check_interval_ms=1)
    assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("migration.check_interval_ms: ")
    # a timeout caps the checks, and StopAndCopy runs no monitor
    doc["migration"]["replay_timeout_ms"] = 60_000
    assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 0
    doc["migration"]["replay_timeout_ms"] = None
    doc["techniques"] = ["StopAndCopy"]
    assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 0


def test_python_dash_m_migsim_runs_the_command_line(tmp_path):
    # the exit code passes through: 0 for a valid scenario, 1 for a bad one
    root = SCENARIO_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    broken = _write_scenario(tmp_path, _doc(hosts=[]))
    for scenario, code in ((SCENARIO_DIR / "calibrated.json", 0),
                           (broken, 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "migsim", "validate", str(scenario)],
            cwd=root, env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
    assert "hosts:" in proc.stderr


def test_cli_validate_refuses_a_region_that_is_not_a_string(tmp_path,
                                                           capsys):
    # the host stays known, so no link or migration error follows
    for region in (5, ["x"]):
        doc = _doc(trials=1)
        doc["hosts"][0]["region"] = region
        assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"hosts[0].region: must be a string, got {region!r}"]
    # a string region is accepted and unused
    doc["hosts"][0]["region"] = "eu-west"
    assert main(["validate", str(_write_scenario(tmp_path, doc))]) == 0


def test_trials_are_capped(tmp_path, capsys):
    # every row is kept in memory until the CSV is written
    scenario = _write_scenario(tmp_path, _doc(trials=10**12))
    assert main(["validate", str(scenario)]) == 1
    assert main(["run", str(scenario), "--trials", str(MAX_TRIALS + 1),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"trials: must be <= {MAX_TRIALS}"] * 2
    assert MAX_TRIALS == 10_000
    assert parse_scenario(_doc(trials=MAX_TRIALS)).trials == MAX_TRIALS


def test_cli_validate_unreadable_document_exits_one(tmp_path, capsys):
    # an integer past Python's 4300-digit conversion limit, and a byte that
    # is not UTF-8: both are validation failures naming the file
    # json cannot write such an integer either, so it goes in as text
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(_doc(trials=1, seed=271828)).replace(
        "271828", "9" * 5000))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"seed": \xff}')
    for path, why in ((huge, "Exceeds the limit (4300 digits)"),
                      (binary, "can't decode byte 0xff")):
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: invalid JSON: ") and why in err
        with pytest.raises(ConfigError):
            load_scenario(path)


def test_cli_compare(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    out = tmp_path / "out"
    main(["run", str(scenario), "--out", str(out)])
    capsys.readouterr()
    report = str(out / "scenario.csv")
    assert main(["compare", report, report]) == 0
    assert "downtime" in capsys.readouterr().out


def test_cli_compare_names_the_malformed_row(tmp_path, capsys):
    good = tmp_path / "good.csv"
    export_csv([_row("MS2M")], good)
    header, line = good.read_text().splitlines()
    cells = line.split(",")
    bad_float = tmp_path / "bad_float.csv"
    bad_float.write_text(f"{header}\n{line}\n{','.join(cells[:-1])},abc\n")
    short = tmp_path / "short.csv"
    short.write_text(f"{header}\n{','.join(cells[:3])}\n")
    long = tmp_path / "long.csv"
    long.write_text(f"{header}\n{line},7\n")
    for path, line_no, problem in (
            (bad_float, 3, "drain_ms: could not convert string to float: 'abc'"),
            (short, 2, "outcome: missing"),
            (long, 2, "more fields than the header has")):
        assert main(["compare", str(good), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line_no}: {problem}\n"


def test_cli_runtime_error_exits_two(tmp_path, capsys):
    scenario = _write_scenario(tmp_path)
    # a scenario file is not a CSV report
    assert main(["compare", str(scenario), str(scenario)]) == 2
    assert "error:" in capsys.readouterr().err
