import statistics

import pytest
from hypothesis import given, strategies as st

from migsim.broker import Message
from migsim.service import ServiceState, handle
from migsim.workload import (MAX_PAYLOAD_BYTES, MAX_STREAM_MESSAGES,
                             MIN_PAYLOAD_BYTES, WorkloadSpec, generate, replay_stress_spec,
                             score_payload, settings_payload)


def test_constant_rate_exact_times():
    spec = WorkloadSpec("ConstantRate", arrival_rate=10, duration_ms=1000)
    stream = generate(spec)
    assert [t for t, _ in stream] == [100.0 * k for k in range(1, 11)]
    assert len({p for _, p in stream}) == 1


def test_constant_rate_count_floors_partial_interval():
    spec = WorkloadSpec("ConstantRate", arrival_rate=3, duration_ms=1000)
    stream = generate(spec)
    # 3/s over one second: arrivals at 333.3, 666.7, 1000.0 and no fourth
    assert len(stream) == 3
    assert stream[-1][0] == pytest.approx(1000.0)


def test_zero_rate_or_zero_duration_is_empty():
    assert generate(WorkloadSpec("ConstantRate", 0, 5000)) == []
    assert generate(WorkloadSpec("ConstantRate", 10, 0)) == []
    assert generate(WorkloadSpec("Poisson", 0, 5000)) == []


def test_game_session_settings_first_then_scores():
    spec = WorkloadSpec("GameSession", arrival_rate=5, duration_ms=2000,
                        payload_size_bytes=128)
    stream = generate(spec)
    assert stream[0][0] == 0.0
    assert stream[0][1].startswith(b"set profile ")
    assert len(stream) == 1 + 10
    for t, payload in stream[1:]:
        assert payload.startswith(b"add score 1 ")
        assert len(payload) == 128


def test_payload_sizes_exact():
    assert len(settings_payload(112)) == 112
    assert len(settings_payload(240)) == 240
    assert len(score_payload(64)) == 64
    with pytest.raises(ValueError):
        settings_payload(4)
    with pytest.raises(ValueError):
        score_payload(4)


def test_min_payload_enforced():
    with pytest.raises(ValueError):
        WorkloadSpec("ConstantRate", 1, 1000,
                     payload_size_bytes=MIN_PAYLOAD_BYTES - 1)
    WorkloadSpec("ConstantRate", 1, 1000, payload_size_bytes=MIN_PAYLOAD_BYTES)
    with pytest.raises(ValueError):
        WorkloadSpec("ConstantRate", 1, 1000,
                     payload_size_bytes=MAX_PAYLOAD_BYTES + 1)
    WorkloadSpec("ConstantRate", 1, 1000, payload_size_bytes=MAX_PAYLOAD_BYTES)


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec("Uniform", 1, 1000)
    with pytest.raises(ValueError):
        WorkloadSpec("Poisson", -1, 1000)
    with pytest.raises(ValueError):
        WorkloadSpec("Poisson", 1, -1)
    # the stream cap is checked on the spec, before generate() allocates
    with pytest.raises(ValueError, match=(
            r"^arrival_rate \* duration_ms / 1000 must be <= 1000000, "
            r"got 1000001\.0$")):
        WorkloadSpec("Poisson", 1000, 1_000_001)
    with pytest.raises(ValueError, match="must be <= 1000000, got inf"):
        WorkloadSpec("ConstantRate", 1e300, 1e300)
    WorkloadSpec("ConstantRate", 1000, MAX_STREAM_MESSAGES)  # at the cap


def test_poisson_deterministic_and_sorted():
    a = generate(WorkloadSpec("Poisson", 20, 5000, seed=42))
    b = generate(WorkloadSpec("Poisson", 20, 5000, seed=42))
    c = generate(WorkloadSpec("Poisson", 20, 5000, seed=43))
    assert a == b
    assert a != c
    times = [t for t, _ in a]
    assert times == sorted(times)
    assert all(0 < t <= 5000 for t in times)


def test_poisson_mean_interarrival_close_to_nominal():
    spec = WorkloadSpec("Poisson", 50, 200_000, seed=7)
    times = [t for t, _ in generate(spec)]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert statistics.mean(gaps) == pytest.approx(20.0, rel=0.05)


@given(st.sampled_from(["GameSession", "ConstantRate", "Poisson"]),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=MIN_PAYLOAD_BYTES, max_value=512),
       st.integers(min_value=0, max_value=10))
def test_every_generated_payload_applies_cleanly(kind, rate, size, seed):
    spec = WorkloadSpec(kind, rate, 1000, payload_size_bytes=size, seed=seed)
    state = ServiceState()
    for i, (_, payload) in enumerate(generate(spec), start=1):
        state, outputs = handle(state, Message(id=i, payload=payload))
        assert len(outputs) == 1
    assert state.last_processed_id == len(generate(spec))


def test_replay_stress_spec_rate_math():
    spec = replay_stress_spec(0.5, 100)
    assert spec.kind == "ConstantRate"
    assert spec.arrival_rate == 50.0
    spec = replay_stress_spec(1.5, 200, duration_ms=4000, seed=3)
    assert spec.arrival_rate == 300.0
    assert spec.duration_ms == 4000
    assert spec.seed == 3
    with pytest.raises(ValueError):
        replay_stress_spec(-0.1, 100)
    with pytest.raises(ValueError):
        replay_stress_spec(0.5, 0)
