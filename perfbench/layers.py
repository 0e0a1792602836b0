"""Per-layer metrics: which functions are wrapped, and what their spans give.

The layers are the program's modules (``nn``, ``core``, ``baselines``,
``memsim``, ``harness``, ``patterns``, ``serve``).  :func:`targets` names
the public functions wrapped for a traced run; :func:`derive` turns the
traced round's spans, plus counters read from the program's results
(:class:`Facts`), into the ``per_layer`` metrics of ``BENCHMARK.json``.
A layer a workload never reaches reports zero calls and zero time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.baselines.classic import (MarkovPrefetcher, NextLinePrefetcher,
                                     StridePrefetcher)
from repro.baselines.leap import LeapPrefetcher
from repro.core.cls_fleet import CLSFleetGroup
from repro.core.cls_prefetcher import CLSPrefetcher
from repro.core.encoding import (DeltaVocabEncoder, PageVocabEncoder,
                                 RegionDeltaEncoder)
from repro.core.phase_detect import OnlinePhaseDetector
from repro.core.replay import ReplayScheduler
from repro.memsim.fleet import FleetCohort
from repro.memsim.pagecache import PageCache
from repro.memsim.pagecache_reference import ReferencePageCache
from repro.memsim.prefetch_queue import PrefetchQueue
from repro.memsim.simulator import SimResult
from repro.nn.costs import hebbian_inference_ops, hebbian_training_ops
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.hebbian_fleet import HebbianFleet
from repro.serve import PrefetchService

from spans import SpanTable, Target


def _lanes(args: tuple) -> int:
    return len(args[1])


def _pairs(args: tuple) -> int:
    return sum(len(pairs) for pairs in args[2])


def targets() -> list[Target]:
    """Every wrapped function, by span name (a name may cover several)."""
    out = [
        Target(CLSPrefetcher, "on_miss_fast", "core.on_miss"),
        Target(SparseHebbianNetwork, "step", "nn.step"),
        Target(SparseHebbianNetwork, "predict_rollout", "nn.rollout"),
        Target(SparseHebbianNetwork, "train_pairs", "nn.train_pairs"),
        Target(SparseHebbianNetwork, "train_pair", "nn.train_pair"),
        Target(ReplayScheduler, "step", "core.replay"),
        Target(OnlinePhaseDetector, "observe", "core.phase"),
        Target(PrefetchQueue, "issue", "memsim.queue.issue"),
        Target(PrefetchQueue, "landed", "memsim.queue.landed"),
        Target(FleetCohort, "step", "memsim.cohort_step"),
        Target(FleetCohort, "load_many", "memsim.cohort_load", _lanes),
        Target(CLSFleetGroup, "handle_misses", "core.fleet_group", _lanes),
        Target(HebbianFleet, "step_lanes", "nn.fleet_step", _lanes),
        Target(HebbianFleet, "rollout_lanes", "nn.fleet_rollout", _lanes),
        Target(HebbianFleet, "train_pairs_lanes", "nn.fleet_train", _pairs),
        Target(PrefetchService, "submit_miss", "serve.submit"),
        Target(PrefetchService, "serve_once", "serve.serve_once",
               by_result=True),
        Target(PrefetchService, "train_once", "serve.train_once",
               by_result=True),
    ]
    for encoder in (DeltaVocabEncoder, PageVocabEncoder, RegionDeltaEncoder):
        out.append(Target(encoder, "observe", "core.encode"))
        out.append(Target(encoder, "decode", "core.encode"))
    for cache in (PageCache, ReferencePageCache):
        out.append(Target(cache, "fill", "memsim.fill"))
        out.append(Target(cache, "insert_prefetch", "memsim.insert_prefetch"))
    for baseline in (NextLinePrefetcher, StridePrefetcher, MarkovPrefetcher,
                     LeapPrefetcher):
        out.append(Target(baseline, "on_miss_fast", "baselines.on_miss"))
    return out


#: (name, unit) of every per-layer metric, in ``BENCHMARK.json`` order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("nn.step.calls", "count"), ("nn.step.us", "us"),
    ("nn.rollout.calls", "count"), ("nn.rollout.us", "us"),
    ("nn.train_pairs.calls", "count"), ("nn.train_pairs.us", "us"),
    ("nn.train_pair.calls", "count"), ("nn.train_pair.us", "us"),
    ("nn.fleet_step.calls", "count"), ("nn.fleet_step.lanes_per_call", "lanes"),
    ("nn.fleet_step.us_per_lane", "us"), ("nn.fleet_rollout.us_per_lane", "us"),
    ("nn.fleet_train.us_per_pair", "us"), ("nn.modeled_ops_per_miss", "ops"),
    ("nn.ns_per_modeled_op", "ns"),
    ("core.on_miss.calls", "count"), ("core.on_miss.us_p50", "us"),
    ("core.on_miss.us_p99", "us"), ("core.on_miss.self_us", "us"),
    ("core.replay.us", "us"), ("core.encode.us", "us"), ("core.phase.us", "us"),
    ("core.fleet_group.misses_per_call", "misses"),
    ("core.fleet_group.self_us_per_miss", "us"),
    ("core.prefetches_emitted", "count"),
    ("core.suppressed_low_confidence", "count"),
    ("baselines.on_miss.calls", "count"), ("baselines.on_miss.us", "us"),
    ("memsim.walk.self_s", "s"), ("memsim.walk.ns_per_access", "ns"),
    ("memsim.fill.us", "us"), ("memsim.insert_prefetch.us", "us"),
    ("memsim.queue.issue.calls", "count"), ("memsim.queue.landed.us", "us"),
    ("memsim.prefetch_accuracy", "ratio"), ("memsim.coverage", "ratio"),
    ("memsim.cohort_step.self_us", "us"), ("memsim.cohort_load.us_per_lane", "us"),
    ("harness.run_fleet.self_s", "s"), ("patterns.generate_s", "s"),
    ("serve.query_p50_ms", "ms"), ("serve.query_p99_ms", "ms"),
    ("serve.slo_rate_eps", "events/s"), ("serve.submit.us_p99", "us"), ("serve.serve_once.calls", "count"),
    ("serve.serve_once.us", "us"), ("serve.train_once.calls", "count"),
    ("serve.train_once.us", "us"), ("serve.answer_batch.mean", "queries"),
    ("serve.queue_wait_ms_p99", "ms"), ("serve.train_lag.max", "count"),
    ("serve.swaps", "count"), ("serve.swap_pause_ms_p99", "ms"),
    ("serve.ring_dropped", "count"), ("serve.train_tasks_dropped", "count"),
    ("serve.gen_late_ms_p99", "ms"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"), ("trace.spans", "count"),
)


#: The benchmark's own spans around the timed calls of a traced round.
TIMED_ROOTS = ("memsim.simulate", "harness.run_fleet", "serve.drain")


@dataclass
class Facts:
    """Counters read from the program's results, beside the spans."""

    untraced_wall_s: float = 0.0
    traced_wall_s: float = 0.0
    modeled_ops_per_miss: float = 0.0
    prefetches_emitted: int = 0
    suppressed: int = 0
    issued: int = 0
    useful: int = 0
    misses: int = 0
    #: The traced ladder's rungs, its SLO rate and the drain's service.
    serve_rungs: list[Any] = field(default_factory=list)
    serve_slo_rate_eps: float = 0.0
    serve_service: Any = None

    def add_cell(self, result: SimResult, prefetcher: Any) -> None:
        stats = result.stats
        if not getattr(prefetcher, "is_null", False):
            self.issued += stats.prefetches_issued - stats.prefetches_redundant
            self.useful += stats.prefetch_hits
            self.misses += stats.demand_misses
        if isinstance(prefetcher, CLSPrefetcher):
            self.prefetches_emitted += prefetcher.stats.prefetches_emitted
            self.suppressed += prefetcher.stats.suppressed_low_confidence
            self.modeled_ops_per_miss = modeled_ops(prefetcher.model.config,
                                                    prefetcher.config.prefetch_length)


def modeled_ops(config: HebbianConfig, prefetch_length: int) -> float:
    """Table 2's integer ops for one miss: one training update plus the
    ``prefetch_length``-step rollout."""
    return float(hebbian_training_ops(config).int_ops
                 + hebbian_inference_ops(config, future_steps=prefetch_length).int_ops)


class _Agg:
    def __init__(self, table: SpanTable, name: str,
                 productive_only: bool = False) -> None:
        mask = table.select(name)
        if productive_only:
            mask &= table.size > 0
        self.dur_us = table.duration[mask] / 1e3
        self.self_us = table.self_ns[mask] / 1e3
        self.size = table.size[mask]
        self.start = table.start[mask]

    @property
    def calls(self) -> int:
        return int(self.dur_us.size)

    def mean_us(self) -> float:
        return float(self.dur_us.mean()) if self.calls else 0.0

    def pct_us(self, q: float) -> float:
        return float(np.percentile(self.dur_us, q)) if self.calls else 0.0

    def per_unit(self, values: np.ndarray) -> float:
        units = int(self.size.sum())
        return float(values.sum() / units) if units else 0.0


def derive(table: SpanTable, facts: Facts) -> dict[str, float]:
    """Every per-layer metric from one traced round."""
    agg = {name: _Agg(table, name) for name in (
        "nn.step", "nn.rollout", "nn.train_pairs", "nn.train_pair", "nn.fleet_step",
        "nn.fleet_rollout", "nn.fleet_train", "core.on_miss", "core.replay",
        "core.encode", "core.phase", "core.fleet_group", "baselines.on_miss",
        "memsim.simulate", "memsim.fill", "memsim.insert_prefetch",
        "memsim.queue.issue", "memsim.queue.landed", "memsim.cohort_step",
        "memsim.cohort_load", "harness.run_fleet", "patterns.generate",
        "serve.submit")}
    # The actors poll: only steps that found work count as calls.
    for name in ("serve.serve_once", "serve.train_once"):
        agg[name] = _Agg(table, name, productive_only=True)
    m: dict[str, float] = {}
    for key, name in (("nn.step", "nn.step"), ("nn.rollout", "nn.rollout"),
                      ("nn.train_pairs", "nn.train_pairs"),
                      ("nn.train_pair", "nn.train_pair")):
        m[f"{key}.calls"] = agg[name].calls
        m[f"{key}.us"] = agg[name].mean_us()
    fs = agg["nn.fleet_step"]
    m["nn.fleet_step.calls"] = fs.calls
    m["nn.fleet_step.lanes_per_call"] = (float(fs.size.sum()) / fs.calls
                                         if fs.calls else 0.0)
    m["nn.fleet_step.us_per_lane"] = fs.per_unit(fs.dur_us)
    m["nn.fleet_rollout.us_per_lane"] = agg["nn.fleet_rollout"].per_unit(
        agg["nn.fleet_rollout"].dur_us)
    m["nn.fleet_train.us_per_pair"] = agg["nn.fleet_train"].per_unit(
        agg["nn.fleet_train"].dur_us)

    service = facts.serve_service
    group = agg["core.fleet_group"]
    misses = agg["core.on_miss"].calls + int(group.size.sum())
    if service is not None:
        # Traced serve runs step the model for the ladder's events and the
        # drain's alike.
        misses += service.events_processed + sum(r.events for r in facts.serve_rungs)
        # The model every lane clones: the service builds it from its
        # ServeConfig the same way.
        config = service.config
        facts.modeled_ops_per_miss = modeled_ops(
            HebbianConfig(vocab_size=config.vocab_size, seed=config.seed),
            config.prefetch_length)
    nn_self_us = sum(float(agg[n].self_us.sum()) for n in agg if n.startswith("nn."))
    m["nn.modeled_ops_per_miss"] = facts.modeled_ops_per_miss
    m["nn.ns_per_modeled_op"] = (nn_self_us * 1e3 / misses / facts.modeled_ops_per_miss
                                 if misses and facts.modeled_ops_per_miss else 0.0)

    on_miss = agg["core.on_miss"]
    m["core.on_miss.calls"] = on_miss.calls
    m["core.on_miss.us_p50"] = on_miss.pct_us(50)
    m["core.on_miss.us_p99"] = on_miss.pct_us(99)
    m["core.on_miss.self_us"] = (float(on_miss.self_us.mean())
                                 if on_miss.calls else 0.0)
    m["core.replay.us"] = agg["core.replay"].mean_us()
    m["core.encode.us"] = agg["core.encode"].mean_us()
    m["core.phase.us"] = agg["core.phase"].mean_us()
    m["core.fleet_group.misses_per_call"] = (float(group.size.sum()) / group.calls
                                             if group.calls else 0.0)
    m["core.fleet_group.self_us_per_miss"] = group.per_unit(group.self_us)
    emitted, suppressed = facts.prefetches_emitted, facts.suppressed
    if service is not None:
        # The workload creates tenants 0..N-1 before any event.
        lanes = [service.lane(t) for t in range(service.counters()["tenants"])]
        emitted += sum(lane.prefetches_emitted for lane in lanes)
        suppressed += sum(lane.suppressed for lane in lanes)
    m["core.prefetches_emitted"] = emitted
    m["core.suppressed_low_confidence"] = suppressed

    m["baselines.on_miss.calls"] = agg["baselines.on_miss"].calls
    m["baselines.on_miss.us"] = agg["baselines.on_miss"].mean_us()

    sim = agg["memsim.simulate"]
    m["memsim.walk.self_s"] = float(sim.self_us.sum()) / 1e6
    m["memsim.walk.ns_per_access"] = sim.per_unit(sim.self_us) * 1e3
    m["memsim.fill.us"] = agg["memsim.fill"].mean_us()
    m["memsim.insert_prefetch.us"] = agg["memsim.insert_prefetch"].mean_us()
    m["memsim.queue.issue.calls"] = agg["memsim.queue.issue"].calls
    m["memsim.queue.landed.us"] = agg["memsim.queue.landed"].mean_us()
    m["memsim.prefetch_accuracy"] = (facts.useful / facts.issued
                                     if facts.issued else 0.0)
    m["memsim.coverage"] = (facts.useful / (facts.useful + facts.misses)
                            if facts.useful + facts.misses else 0.0)
    step = agg["memsim.cohort_step"]
    m["memsim.cohort_step.self_us"] = (float(step.self_us.mean())
                                       if step.calls else 0.0)
    load = agg["memsim.cohort_load"]
    m["memsim.cohort_load.us_per_lane"] = load.per_unit(load.dur_us)
    m["harness.run_fleet.self_s"] = float(agg["harness.run_fleet"].self_us.sum()) / 1e6
    m["patterns.generate_s"] = float(agg["patterns.generate"].dur_us.sum()) / 1e6

    m.update(_serve_metrics(agg, facts))

    timed_roots = table.roots() & np.isin(
        table.name, [table.names.index(n) for n in TIMED_ROOTS
                     if n in table.names])
    timed = _descendants(table, timed_roots)
    attributed_s = float(table.self_ns[timed].sum()) / 1e9
    # The roots' self time is the part of the timed calls outside every
    # wrapped function (for simulate(), the span walk itself).
    outside_s = float(table.self_ns[timed_roots].sum()) / 1e9
    wall = facts.traced_wall_s
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - facts.untraced_wall_s
    m["trace.overhead_pct"] = (100.0 * (wall - facts.untraced_wall_s)
                               / facts.untraced_wall_s
                               if facts.untraced_wall_s else 0.0)
    m["trace.unattributed_pct"] = 100.0 * outside_s / wall if wall else 0.0
    # Self times add up to their root's duration by construction, so this
    # residual is only the timing code's own cost.  It goes to the run
    # record, not to the result.
    m["trace.reconcile_residual_pct"] = (100.0 * (wall - attributed_s) / wall
                                         if wall else 0.0)
    m["trace.spans"] = int(table.name.size)
    return m


def _descendants(table: SpanTable, roots: np.ndarray) -> np.ndarray:
    """Mask of the spans under (and including) the ``roots`` mask.

    A parent starts before its children, and span ids are handed out at
    start, so one pass in id order settles every span."""
    inside = roots.copy()
    parent = table.parent
    for sid in range(inside.size):
        p = parent[sid]
        if p >= 0 and inside[p]:
            inside[sid] = True
    return inside


def _serve_metrics(agg: dict[str, _Agg], facts: Facts) -> dict[str, float]:
    m: dict[str, float] = {}
    submit = agg["serve.submit"]
    serve = agg["serve.serve_once"]
    train = agg["serve.train_once"]
    m["serve.submit.us_p99"] = submit.pct_us(99)
    m["serve.serve_once.calls"] = serve.calls
    m["serve.serve_once.us"] = serve.mean_us()
    m["serve.train_once.calls"] = train.calls
    m["serve.train_once.us"] = train.mean_us()
    rungs = facts.serve_rungs
    rung = rungs[0] if rungs else None
    service = facts.serve_service
    batch_mean = wait_p99 = 0.0
    if rung is not None and rung.waits and serve.calls:
        # Each answered query lies inside the serve_once span that answered
        # it; the span's start is when that answer began.
        order = np.argsort(serve.start)
        starts = serve.start[order] / 1e9
        dues = np.array([due for due, _ in rung.waits])
        answered = np.array([at for _, at in rung.waits])
        idx = np.searchsorted(starts, answered, side="right") - 1
        valid = idx >= 0
        waits_ms = (starts[idx[valid]] - dues[valid]) * 1e3
        wait_p99 = float(np.percentile(waits_ms, 99)) if waits_ms.size else 0.0
        batches = np.unique(idx[valid]).size
        batch_mean = float(valid.sum()) / batches if batches else 0.0
    m["serve.query_p50_ms"] = rung.p50_ms if rung is not None else 0.0
    m["serve.query_p99_ms"] = rung.p99_ms if rung is not None else 0.0
    m["serve.slo_rate_eps"] = facts.serve_slo_rate_eps
    m["serve.answer_batch.mean"] = batch_mean
    m["serve.queue_wait_ms_p99"] = wait_p99
    m["serve.train_lag.max"] = max((r.train_lag_max for r in rungs), default=0)
    m["serve.swaps"] = sum(r.swaps for r in rungs)
    m["serve.swap_pause_ms_p99"] = rung.swap_pause_p99_ms if rung is not None else 0.0
    counters = service.counters() if service is not None else {}
    m["serve.ring_dropped"] = (sum(r.dropped for r in rungs)
                               + counters.get("ring_dropped", 0))
    m["serve.train_tasks_dropped"] = (sum(r.train_tasks_dropped for r in rungs)
                                      + counters.get("train_tasks_dropped", 0))
    m["serve.gen_late_ms_p99"] = rung.late_p99_ms if rung is not None else 0.0
    return m
