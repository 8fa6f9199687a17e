"""Workload generators: timed input streams the service handler accepts.

generate() is pure: a spec maps to exactly one list of (publish_time_ms,
payload) pairs, so two simulations fed the same spec see the same traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .rules import check, param

KINDS = ("GameSession", "ConstantRate", "Poisson")

# smallest payload that still fits the command headers below
MIN_PAYLOAD_BYTES = 16
# largest payload a scenario may ask for: generate() allocates payloads
# whole, and a GameSession settings payload rides in every checkpoint
MAX_PAYLOAD_BYTES = 1 << 20
# most messages a spec may ask for (arrival_rate * duration_ms / 1000):
# generate() materializes the stream whole, and at about 3 events per message
# this keeps a run inside SimClock.run_until's event budget
MAX_STREAM_MESSAGES = 1_000_000


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    arrival_rate: float = param(minimum=0.0)    # messages per second
    duration_ms: float = param(minimum=0.0)
    payload_size_bytes: int = param(128, minimum=MIN_PAYLOAD_BYTES,
                                    maximum=MAX_PAYLOAD_BYTES, integer=True)
    seed: int = param(0, minimum=0, integer=True)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        check(self)
        messages = self.arrival_rate * self.duration_ms / 1000
        if messages > MAX_STREAM_MESSAGES:
            raise ValueError(f"arrival_rate * duration_ms / 1000 must be <= "
                             f"{MAX_STREAM_MESSAGES}, got {messages}")


def score_payload(size_bytes: int) -> bytes:
    """An 'add score 1' command padded with filler to exactly size_bytes."""
    base = b"add score 1"
    pad = size_bytes - len(base) - 1
    if pad < 0:
        raise ValueError("payload size too small for a score command")
    return base + b" " + b"x" * pad


def settings_payload(size_bytes: int) -> bytes:
    """A 'set profile <blob>' command of exactly size_bytes. The blob lands
    in the service state, so payload size steers checkpoint size."""
    head = b"set profile "
    blob = size_bytes - len(head)
    if blob < 0:
        raise ValueError("payload size too small for a settings command")
    return head + b"p" * blob


def _constant_times(rate: float, duration_ms: float) -> list[float]:
    # one message every 1000/rate ms, first at one full interval
    if rate <= 0 or duration_ms <= 0:
        return []
    interval = 1000.0 / rate
    count = int(rate * duration_ms / 1000.0 + 1e-9)
    return [interval * k for k in range(1, count + 1)]


def generate(spec: WorkloadSpec) -> list[tuple[float, bytes]]:
    """Materialize the stream: ordered (publish_time_ms, payload) pairs.

    GameSession: one settings message at t=0, then score increments at the
    configured rate. ConstantRate/Poisson: score increments only; Poisson
    draws inter-arrivals from a seeded exponential.
    """
    size = spec.payload_size_bytes
    if spec.kind == "GameSession":
        stream = [(0.0, settings_payload(size))]
        score = score_payload(size)
        stream.extend((t, score) for t in _constant_times(spec.arrival_rate,
                                                          spec.duration_ms))
        return stream
    if spec.kind == "ConstantRate":
        score = score_payload(size)
        return [(t, score) for t in _constant_times(spec.arrival_rate,
                                                    spec.duration_ms)]
    if spec.kind == "Poisson":
        rng = random.Random(spec.seed)
        score = score_payload(size)
        stream = []
        if spec.arrival_rate > 0:
            t = rng.expovariate(spec.arrival_rate) * 1000.0
            while t <= spec.duration_ms:
                stream.append((t, score))
                t += rng.expovariate(spec.arrival_rate) * 1000.0
        return stream
    raise ValueError(f"unknown workload kind {spec.kind!r}")


def replay_stress_spec(ratio: float, processing_rate_msgs_per_s: float,
                       duration_ms: float = 10_000.0,
                       payload_size_bytes: int = 128,
                       seed: int = 0) -> WorkloadSpec:
    """A constant-rate stream whose arrival rate is ratio times the service
    processing rate. ratio < 1 drains during replay; ratio > 1 diverges."""
    if ratio < 0:
        raise ValueError("ratio must be >= 0")
    if processing_rate_msgs_per_s <= 0:
        raise ValueError("processing rate must be > 0")
    return WorkloadSpec(
        kind="ConstantRate",
        arrival_rate=ratio * processing_rate_msgs_per_s,
        duration_ms=duration_ms,
        payload_size_bytes=payload_size_bytes,
        seed=seed,
    )
