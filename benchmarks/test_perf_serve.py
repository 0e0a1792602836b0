"""PR 10 perf smoke: the online train-and-serve daemon.

Measures and records in ``BENCH_PR10.json`` (repo root):

- **Query latency vs offered load** (threaded): paced open-loop
  submission at several offered events/s; p50/p99 ticket latency per
  load level.  Levels above the box's capacity queue up and report
  honestly large tails — the curve's knee is the finding, not a bug.
- **Swap-pause histogram** (real clock, lockstep): the time the serve
  loop spends inside a hot-swap (the redeploy's column sync into the old
  live network and the fleet slot refresh), with a small fixed-bucket
  histogram alongside p50/p99.
- **Daemon throughput at 1/100/1000 tenants** (lockstep): events/s
  through the full stage → train → finish pipeline, stacked fleet path.
- **The never-blocks assertion** (threaded): with a trainer deliberately
  sleeping 10 ms per training step (holding no locks), median query
  latency must stay far under one pause — queries are never blocked on
  training.  This is asserted, not just recorded.

Numbers move 20-60% between runs on this class of container (see the
PR 4 bench header); the recorded cells are one honest measurement, not
a best-of distribution.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.serve import FaultPlan, PrefetchService, ServeConfig
from repro.serve.loop import ThreadScheduler

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_PR10.json"

VOCAB = 64
PAUSE_BUCKET_EDGES_MS = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)


def _addresses(i: int, tenant: int) -> int:
    return 4096 * ((3 * i + tenant) % 64)


def _latency_cell(offered_eps: float, n_events: int,
                  tenants: int = 4) -> dict:
    service = PrefetchService(ServeConfig(vocab_size=VOCAB, seed=1))
    sched = ThreadScheduler()
    for actor in service.actors():
        sched.add(actor)
    sched.start()
    tickets = []
    period = 1.0 / offered_eps
    try:
        start = time.perf_counter()
        for i in range(n_events):
            tenant = i % tenants
            service.submit_miss(tenant, _addresses(i, tenant), i)
            tickets.append(service.query(tenant))
            remaining = start + (i + 1) * period - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
        for ticket in tickets:
            assert ticket.wait(60.0), "query unanswered after 60 s"
    finally:
        sched.stop()
    lat = service.latency_percentiles()
    return {"offered_eps": offered_eps, "queries": int(lat["n"]),
            "p50_ms": round(lat["p50_ms"], 4),
            "p99_ms": round(lat["p99_ms"], 4)}


def _swap_pause_cell(n_events: int = 3000, tenants: int = 4) -> dict:
    """Lockstep under the real clock, with a tight staleness backstop so
    swaps happen constantly."""
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, max_staleness=8, seed=2))
    for i in range(n_events):
        tenant = i % tenants
        service.submit_miss(tenant, _addresses(i, tenant), i)
        service.serve_once()                # stage
        while service.train_once():
            pass
        service.serve_once()                # finish (swap happens here)
    pauses_ms = np.array(
        [p for t in range(tenants)
         for p in service.lane(t).swap_pauses]) * 1e3
    assert pauses_ms.size > 0, "no swaps happened; tighten max_staleness"
    histogram: dict[str, int] = {}
    lower = 0.0
    for edge in PAUSE_BUCKET_EDGES_MS:
        histogram[f"<{edge}ms"] = int(
            ((pauses_ms >= lower) & (pauses_ms < edge)).sum())
        lower = edge
    histogram[f">={lower}ms"] = int((pauses_ms >= lower).sum())
    return {"swaps": int(pauses_ms.size),
            "p50_ms": round(float(np.percentile(pauses_ms, 50)), 4),
            "p99_ms": round(float(np.percentile(pauses_ms, 99)), 4),
            "histogram": histogram}


def _throughput_cell(tenants: int, events_per_tenant: int) -> dict:
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, ring_capacity=100_000,
                    max_batch=256, seed=3))
    events = [(tenant, _addresses(i, tenant), i)
              for i in range(events_per_tenant)
              for tenant in range(tenants)]
    # Steady-state cell: lanes (and the fleet's growth to N slots) are
    # created up front, outside the timed region — cold-tenant
    # onboarding is a different workload than serving throughput.
    for tenant in range(tenants):
        service.lane(tenant)
    start = time.perf_counter()
    for tenant, address, timestamp in events:
        service.submit_miss(tenant, address, timestamp)
    progressed = True
    while progressed:
        progressed = False
        while service.serve_once():
            progressed = True
        while service.train_once():
            progressed = True
    elapsed = time.perf_counter() - start
    assert service.counters()["events_started"] == len(events)
    return {"tenants": tenants,
            "events": len(events),
            "serve_events_per_sec": round(len(events) / elapsed, 1)}


def _never_blocks_cell(n_events: int = 300, tenants: int = 2) -> dict:
    pause_s = 0.01
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, seed=4),
        faults=FaultPlan(trainer_pause_s=pause_s))
    sched = ThreadScheduler()
    for actor in service.actors():
        sched.add(actor)
    sched.start()
    try:
        for i in range(n_events):
            tenant = i % tenants
            service.submit_miss(tenant, _addresses(i, tenant), i)
            ticket = service.query(tenant)
            assert ticket.wait(30.0), "query unanswered after 30 s"
    finally:
        sched.stop()
    assert service.counters()["train_steps"] > 0, \
        "trainer never ran; the never-blocks claim would be vacuous"
    lat = service.latency_percentiles()
    # THE claim of this PR: the daemon never blocks a query on training.
    # With every training step sleeping 10 ms, a query path that ever
    # waited on the trainer would show it in the median.
    assert lat["p50_ms"] < pause_s * 1e3, (
        f"median query latency {lat['p50_ms']:.2f} ms inherits the "
        f"{pause_s * 1e3:.0f} ms trainer pause — the query path blocked "
        f"on training")
    return {"trainer_pause_ms": pause_s * 1e3,
            "p50_ms": round(lat["p50_ms"], 4),
            "p99_ms": round(lat["p99_ms"], 4),
            "asserted": "p50 < one trainer pause"}


def test_perf_serve():
    import os

    cpu_count = os.cpu_count() or 1
    report = {
        "pr": 10,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": cpu_count,
        "protocol": (
            "single honest run per cell (no best-of); CLS hebbian "
            f"vocab={VOCAB}, delta encoder, rollout 2x2; latency cells "
            "are threaded open-loop paced submission (levels above box "
            "capacity queue up and report large tails honestly); "
            "swap-pause and throughput cells run the deterministic "
            "lockstep pipeline under the real clock; throughput cells "
            "pre-create lanes (steady-state serving, not cold-tenant "
            "onboarding) and are trainer-bound: background shadow "
            "training is scalar per-event by design; never_blocks is "
            "threaded with a 10 ms sleeping trainer and asserts "
            "p50 < one pause"),
        "serve_latency": [
            _latency_cell(200.0, 400),
            _latency_cell(1000.0, 1500),
            _latency_cell(4000.0, 3000),
        ],
        "swap_pause": _swap_pause_cell(),
        "serve_throughput": [
            _throughput_cell(1, 3000),
            _throughput_cell(100, 30),
            _throughput_cell(1000, 8),
        ],
        "never_blocks": _never_blocks_cell(),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {BENCH_PATH}")
