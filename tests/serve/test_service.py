"""Service-level end-to-end suites: random interleavings, the manifest
schema, the threaded production driver, and the (env-gated) soak leg.

The virtual-scheduler suites sweep interleaving seeds — every seed is a
different schedule, and a failure reprints the seed so the schedule
replays exactly.  The threaded suites run the same actors on real
threads: a smoke run, the "training never blocks a query" latency
assertion (slow trainer, fast answers), and a 60 s fault-injected soak
behind ``REPRO_SERVE_SOAK=1``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.serve import (FaultPlan, PrefetchService, ServeConfig,
                         ThreadScheduler)
from repro.serve.clock import VirtualClock
from repro.serve.loop import VirtualScheduler
from tests.serve.test_faults import ClientActor, _events, _run

VOCAB = 64


@pytest.mark.parametrize("seed", range(6))
def test_random_interleavings_answer_everything(seed: int) -> None:
    """Whatever the schedule, quiescence implies every event was
    processed and every query answered."""
    events = _events(90, tenants=3)
    service = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=7),
                              clock=VirtualClock())
    client = _run(service, events, seed=seed)
    counters = service.counters()
    assert counters["events_started"] == len(events)
    assert counters["queries_answered"] == len(events)
    assert counters["train_tasks_dropped"] == 0
    assert all(t.done for t in client.tickets)
    # Every staged transition was eventually background-trained.
    assert counters["train_steps"] > 0


def test_interleaving_changes_schedule_not_liveness() -> None:
    events = _events(60)
    traces = set()
    for seed in range(4):
        service = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=7),
                                  clock=VirtualClock())
        client = ClientActor(service, events)
        sched = VirtualScheduler(service.clock, seed=seed)  # type: ignore[arg-type]
        sched.add(client)
        for actor in service.actors():
            sched.add(actor)
        sched.run_until_idle(max_steps=200_000)
        traces.add(tuple(sched.trace))
        assert all(t.done for t in client.tickets)
    assert len(traces) > 1, "interleaving seed had no scheduling effect"


def test_manifest_schema_and_atomic_write(tmp_path) -> None:
    events = _events(50)
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, seed=9), clock=VirtualClock())
    _run(service, events)
    head = service.manifest()
    assert head["record"] == "serve_manifest"
    assert head["spec"]["kind"] == "serve_run"
    assert head["spec"]["vocab_size"] == VOCAB
    assert head["run_id"] == head["spec_hash"][:16]
    assert set(head["counters"]) == set(service.counters())
    for section in ("latency", "swap_pause"):
        assert {"p50_ms", "p99_ms", "n"} <= set(head[section])
    assert "git_sha" in head["env"]

    path = service.write_manifest(tmp_path)
    lines = [json.loads(line)
             for line in path.read_text().splitlines()]
    assert lines[0]["record"] == "serve_manifest"
    lanes = [line for line in lines[1:]]
    assert [line["record"] for line in lanes] == ["serve_lane"] * 2
    assert [line["tenant"] for line in lanes] == [0, 1]
    assert lanes[0]["misses_seen"] == 25
    # No temp droppings from the atomic write.
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_manifest_spec_hash_is_config_sensitive() -> None:
    a = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=1),
                        clock=VirtualClock()).manifest()
    b = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=2),
                        clock=VirtualClock()).manifest()
    assert a["spec_hash"] != b["spec_hash"]


def test_serve_config_validation() -> None:
    with pytest.raises(ValueError):
        ServeConfig(vocab_size=1)
    with pytest.raises(ValueError):
        ServeConfig(training="batch")
    with pytest.raises(ValueError):
        ServeConfig(page_size=1000)
    with pytest.raises(ValueError):
        ServeConfig(ring_capacity=0)
    with pytest.raises(ValueError):
        ServeConfig(min_confidence=1.5)


@pytest.mark.parametrize("field, value", [
    ("encoder", "bogus"),
    ("training", "bogus"),
    ("replay_policy", "bogus"),
    ("ema_alpha", 0.0),
    ("ema_alpha", 1.5),
    ("max_staleness", 0),
])
def test_serve_config_rejects_at_construction(field: str, value: object) -> None:
    """A bad value fails when the config is built, not later inside the
    serve actor at the first ``serve_once()``."""
    with pytest.raises(ValueError):
        ServeConfig(**{field: value})


def _drive_threaded(service: PrefetchService, n_events: int,
                    tenants: int, timeout: float = 30.0) -> list:
    """Run the service on real threads; returns the answered tickets."""
    sched = ThreadScheduler(poll_interval=1e-4)
    for actor in service.actors():
        sched.add(actor)
    sched.start()
    tickets = []
    try:
        for i in range(n_events):
            tenant = i % tenants
            service.submit_miss(tenant, 4096 * ((3 * i + tenant) % 40), i)
            ticket = service.query(tenant)
            assert ticket.wait(timeout), \
                f"query {ticket.qid} unanswered after {timeout}s"
            tickets.append(ticket)
    finally:
        sched.stop()
    return tickets


def test_threaded_smoke() -> None:
    """The same actors on real threads: everything answered, counters
    consistent, no actor errors surfaced at stop()."""
    service = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=13))
    tickets = _drive_threaded(service, 200, tenants=2)
    counters = service.counters()
    assert counters["queries_answered"] == 200
    assert counters["train_steps"] > 0
    assert all(t.done for t in tickets)


def test_training_never_blocks_queries() -> None:
    """A deliberately slow trainer (10 ms pause per step, holding no
    locks) must not surface in query latency — the §5.5 point of the
    shadow protocol, measured."""
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, seed=17),
        faults=FaultPlan(trainer_pause_s=0.01))
    tickets = _drive_threaded(service, 120, tenants=2)
    assert service.counters()["train_steps"] > 0, \
        "trainer never ran; the assertion would be vacuous"
    latencies = sorted(t.latency() for t in tickets)
    p50 = latencies[len(latencies) // 2]
    # Generous threaded-CI bound: far under one trainer pause.
    assert p50 < 0.01, f"median query latency {p50 * 1e3:.2f} ms inherits " \
                       f"the 10 ms trainer pause — the query path blocked " \
                       f"on training"


@pytest.mark.skipif(os.environ.get("REPRO_SERVE_SOAK") != "1",
                    reason="60 s soak; set REPRO_SERVE_SOAK=1 to run")
def test_soak_fault_injected_60s() -> None:
    """CI soak leg: a minute of real-thread serving under active fault
    injection (slow trainer + forced swap races + periodic drop burst).
    Zero deadlocks (every query answered within timeout), zero actor
    errors, and the books still balance at the end."""
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, max_staleness=32,
                    record_checksums=True, seed=23),
        faults=FaultPlan(trainer_pause_s=0.002, swap_on_query=True,
                         drop_from=5_000, drop_until=5_200))
    sched = ThreadScheduler(poll_interval=1e-4)
    for actor in service.actors():
        sched.add(actor)
    sched.start()
    deadline = time.monotonic() + 60.0
    answered = 0
    try:
        i = 0
        while time.monotonic() < deadline:
            tenant = i % 8
            service.submit_miss(tenant, 4096 * ((3 * i + tenant) % 64), i)
            ticket = service.query(tenant)
            assert ticket.wait(10.0), \
                f"deadlock: query {ticket.qid} unanswered for 10 s"
            answered += 1
            i += 1
    finally:
        sched.stop()  # raises if any actor thread died
    counters = service.counters()
    assert counters["queries_answered"] >= answered
    assert counters["forced_swaps"] > 0
    assert counters["fault_dropped"] == 200
    assert answered > 1_000, f"only {answered} queries in 60 s"
