"""The four workloads, each driven through the program's public entry points.

Every workload builds its inputs from the seed, runs in rounds until its
time budget is spent, checks every output, and returns a :class:`Outcome`.
A round is: set-up (timed apart from the work, as ``setup_s``), then the
timed calls.  Every timing is taken at reference host speed (see
:class:`Timing`); rates come from each cell's median round, and ``setup_s``
is the median of every set-up of the run.

With a :class:`~spans.Tracer`, a workload instead makes untraced rounds and
then one traced round (wrappers installed before the round builds
anything); the per-layer metrics come from the traced round's spans, and the
difference of the timed walls is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import gc
import json
from contextlib import AbstractContextManager, nullcontext
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.baselines.classic import (MarkovPrefetcher, NextLinePrefetcher,
                                     StridePrefetcher)
from repro.baselines.leap import LeapPrefetcher
from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.harness.fig5 import Fig5Config, make_model_prefetcher
from repro.harness.fleet import run_fleet
from repro.harness.models import experiment_hebbian_config
from repro.memsim.fleet import FleetLaneSpec
from repro.memsim.prefetcher import NullPrefetcher
from repro.memsim.simulator import SimConfig, SimResult, simulate
from repro.nn.hebbian import SparseHebbianNetwork
from repro.patterns.applications import (AppSpec, graph500, mcf,
                                         pagerank_graphchi, resnet_training)
from repro.patterns.generators import PATTERN_NAMES, PatternSpec, generate
from repro.serve import PrefetchService, ServeConfig
from repro.serve.loop import ThreadScheduler

from layers import Facts, targets
from spans import Tracer

PINS_PATH = Path(__file__).with_name("pins.json")

#: Generator and model seed of every input.  The run's ``--seed`` moves
#: the inputs instead (see :func:`address_shift`), so every seed is the same
#: work, and ``pins.json`` holds at every seed.  The cost: a second seed
#: feeds the program no new trace content, so a defect that depends on it
#: shows at no seed.
STRUCTURE_SEED = 1

#: Figure 5's simulation setup, shared by both simulate() workloads.
SIM_CONFIG = SimConfig(memory_fraction=0.5, prefetch_delay_accesses=4)


@dataclass
class Ctx:
    seed: int
    seconds: float
    smoke: bool
    tracer: Tracer | None = None


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    facts: Facts = field(default_factory=Facts)
    cells: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Per-round figures and other detail for the run record.
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class Cell:
    """One timed call of a round: a ``simulate()`` or a ``run_fleet()``."""

    timing: Timing
    accesses: int
    #: Demand misses handed to a prefetcher (a null prefetcher gets none).
    misses: int
    learned: bool


@dataclass
class Round:
    cells: dict[str, Cell]
    quality_pct: float
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return sum(cell.timing.wall_s for cell in self.cells.values())


#: Set-ups timed per run: at least ``MIN_SETUPS``, and more (up to
#: ``MAX_SETUPS``) until they add up to ``SETUP_BUDGET_S``, so a cheap
#: set-up's median rests on enough samples to be steady.
MIN_SETUPS = 9
MAX_SETUPS = 60
SETUP_BUDGET_S = 3.0


def peak_rss_mb() -> float:
    """The process's peak resident set, less the calibration arrays, which
    are resident from import on."""
    cal_mb = (_CAL_ARRAY.nbytes + _CAL_INDEX.nbytes) / 2**20
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - cal_mb


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def rounds(seconds: float) -> Iterator[int]:
    """Round indices: two at least (repeats are checked against each other),
    then more while one more mean round still fits in the budget."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if done >= 2 and elapsed * (done + 1) / done > seconds:
            return


def address_shift(seed: int) -> int:
    """The seed's offset for every address: a whole number of 4 GiB blocks.

    Deltas, page order and the phase detector's region bins are all
    invariant under it, so the simulated results are too, while the inputs
    the program receives differ from seed to seed."""
    return (seed % (1 << 20)) << 32


def load_pins(workload: str) -> dict[str, dict[str, int]]:
    return json.loads(PINS_PATH.read_text())[workload]


def _span(tracer: Tracer | None, name: str,
          size: int = 1) -> AbstractContextManager[object]:
    """The tracer's span around a block, or nothing when untraced."""
    return nullcontext() if tracer is None else tracer.span(name, size)


#: Calibration units, each a fixed piece of host work of a kind the program
#: does: interpreter arithmetic, and random reads from an array that fits
#: only in the last-level cache.  The shared host's other tenants slow each
#: kind by a different amount at different times.  (A unit of dict and list
#: allocation tracked the serve drain worse than these two alone.)
_CAL_ARRAY = np.arange(2_000_000, dtype=np.int64)
_CAL_INDEX = np.random.default_rng(0).integers(0, _CAL_ARRAY.size, 200_000)


def _cal_arith() -> None:
    total = 0
    for i in range(20_000):
        total += i * i % 7


def _cal_gather() -> None:
    _CAL_ARRAY[_CAL_INDEX].sum()


#: Each unit with its seconds on the reference host (the fast state of a
#: 2-CPU Xeon VM).
CAL_UNITS: tuple[tuple[Callable[[], None], float], ...] = (
    (_cal_arith, 1.5e-3), (_cal_gather, 1.3e-3))
#: Times each unit is timed on each side of a measured call; the fastest
#: counts.
CAL_REPEATS = 5


def host_slowdown() -> float:
    """How much slower than the reference the host runs right now: the mean
    over the calibration units of each one's fastest time over its
    reference time."""
    total = 0.0
    for unit, ref_s in CAL_UNITS:
        best = float("inf")
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            unit()
            best = min(best, time.perf_counter() - start)
        total += best / ref_s
    return total / len(CAL_UNITS)


#: How closely each workload's host time follows the calibration units: the
#: slope of log wall time on log host slowdown, fitted over 20 runs (two
#: sets of ten seeds, slowdowns 0.85-1.9) on the reference host, and set
#: to a tenth near both its fits, timed calls / set-ups: cls-missheavy
#: 0.82/0.87, baselines-hitheavy 0.87/0.65, fleet-cls 0.48/0.47,
#: serve-openloop 0.52/0.61.  The stacked numpy work of the fleet and the
#: daemon slows about half as much as the interpreter-bound simulate() loop.
HOST_SENSITIVITY = {
    "cls-missheavy": 0.8,
    "baselines-hitheavy": 0.8,
    "fleet-cls": 0.5,
    "serve-openloop": 0.5,
}


@dataclass
class Timing:
    """One measured call: its wall seconds, and the mean host slowdown just
    before and just after it.

    A shared host's speed moves by up to 50% over seconds with its other
    tenants' load, for the calibration units and the program alike;
    dividing it out leaves the program's own cost."""

    wall_s: float
    slowdown: float

    def reference_s(self, sensitivity: float) -> float:
        """The call's seconds at reference host speed, for a workload of
        this ``HOST_SENSITIVITY``."""
        return self.wall_s / self.slowdown ** sensitivity


def _measure(fn: Callable[[], Any],
             calibrate: bool = True) -> tuple[Any, Timing]:
    """``fn()`` and its :class:`Timing`; uncalibrated, the slowdown is 1."""
    before = host_slowdown() if calibrate else 1.0
    start = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - start
    after = host_slowdown() if calibrate else 1.0
    return out, Timing(wall_s=wall, slowdown=(before + after) / 2.0)


try:
    #: glibc's ``malloc_trim``: hands the allocator's free pages back.
    MALLOC_TRIM: Callable[[int], int] | None = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):
    MALLOC_TRIM = None


def _measure_setup(fn: Callable[[], Any],
                   calibrate: bool = True) -> tuple[Any, Timing]:
    """``_measure`` from a clean heap: the previous round's cycles are
    collected and the free pages handed back, so every set-up faults in its
    memory as in a fresh process.  Without the trim, whether the allocator
    happened to keep the last round's pages split the serve set-up on a
    2-CPU x86 host into ~90 ms (300 page faults) and 110-220 ms (15-55k
    faults) modes."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)
    return _measure(fn, calibrate)


def _more_setups(setups: list[Timing]) -> bool:
    spent = sum(t.wall_s for t in setups)
    return len(setups) < MIN_SETUPS or (spent < SETUP_BUDGET_S
                                         and len(setups) < MAX_SETUPS)


# ----------------------------------------------------------------------
# simulate() and run_fleet() workloads
# ----------------------------------------------------------------------
_PREFETCHERS: dict[str, Callable[[], Any]] = {
    "null": NullPrefetcher,
    "hebbian": lambda: make_model_prefetcher("hebbian", Fig5Config()),
    "nextline": NextLinePrefetcher,
    "stride": StridePrefetcher,
    "markov": MarkovPrefetcher,
    "leap": LeapPrefetcher,
}

_APPS: dict[str, Callable[[AppSpec], Any]] = {
    "resnet": resnet_training,
    "graph500": graph500,
    "pagerank": pagerank_graphchi,
    "mcf": mcf,
}


def _batch_run(ctx: Ctx, out: Outcome,
               setup: Callable[[Tracer | None], Any],
               timed: Callable[[Any, Tracer | None], Round],
               sensitivity: float) -> None:
    """Rounds of ``setup`` then ``timed`` until the budget is spent, or one
    untraced and one traced round; fills ``out.metrics``."""
    tracer = ctx.tracer
    setups: list[Timing] = []
    runs: list[Round] = []

    def one_round(traced: bool) -> None:
        active = tracer if traced else None
        state, timing = _measure_setup(lambda: setup(active))
        setups.append(timing)
        row = timed(state, active)
        row.traced = traced
        runs.append(row)

    if tracer is None:
        for _ in rounds(ctx.seconds):
            one_round(False)
        while _more_setups(setups):
            setups.append(_measure_setup(lambda: setup(None))[1])
    else:
        # Untraced rounds while a traced one (up to 1.5x as long) still
        # fits; the fastest stands for the untraced wall, so a cold first
        # round does not pass for negative tracing overhead.
        start = time.perf_counter()
        while not runs or (time.perf_counter() - start) * (1 + 2.5 / len(runs)) \
                <= ctx.seconds:
            one_round(False)
        tracer.install(targets())
        try:
            one_round(True)
        finally:
            tracer.uninstall()
        out.facts.untraced_wall_s = min(r.wall_s for r in runs if not r.traced)
        out.facts.traced_wall_s = runs[-1].wall_s
    plain = [r for r in runs if not r.traced]
    cells = plain[0].cells
    learned = [key for key, cell in cells.items() if cell.learned]

    def rates(sensitivity: float) -> tuple[float, float]:
        """Accesses and learned-cell misses per second of median rounds."""
        mid = {key: median([r.cells[key].timing.reference_s(sensitivity)
                            for r in plain])
               for key in cells}
        return (sum(cell.accesses for cell in cells.values()) / sum(mid.values()),
                sum(cells[key].misses for key in learned)
                / sum(mid[key] for key in learned))
    rate, miss_rate = rates(sensitivity)
    # The same from wall time, for the record: what the host gave this run.
    out.detail["wall_rate"] = rates(0.0)[0]
    out.metrics = {
        "setup_s": median([t.reference_s(sensitivity) for t in setups]),
        "sim_maccesses_per_s": rate / 1e6,
        "misses_removed_pct": median([r.quality_pct for r in plain]),
        "fleet_events_per_s": rate,
        "serve_events_per_s": miss_rate,
        "peak_rss_mb": peak_rss_mb(),
    }
    out.detail["setups"] = [asdict(t) for t in setups]
    out.detail["rounds"] = [asdict(r) for r in runs]


def _sim_workload(ctx: Ctx, name: str, apps: dict[str, int],
                  prefetchers: tuple[str, ...]) -> Outcome:
    """The body of ``cls-missheavy`` and ``baselines-hitheavy``."""
    if ctx.smoke:
        apps = {app: max(4096, n // 100) for app, n in apps.items()}
    pins = {} if ctx.smoke else load_pins(name)
    first: dict[str, dict[str, int]] = {}
    out = Outcome(metrics={}, attempted=0, failed=0)

    def setup(tracer: Tracer | None) -> tuple[dict, dict]:
        traces = {}
        for app, n in apps.items():
            with _span(tracer, "patterns.generate"):
                traces[app] = _APPS[app](AppSpec(n=n, seed=STRUCTURE_SEED))
            traces[app].addresses += address_shift(ctx.seed)
            traces[app].page_index(SIM_CONFIG.page_size)
        built = {(app, kind): _PREFETCHERS[kind]()
                 for app in apps for kind in prefetchers}
        return traces, built

    def timed(state: tuple[dict, dict], tracer: Tracer | None) -> Round:
        traces, built = state
        row = Round(cells={}, quality_pct=0.0)
        results: dict[tuple[str, str], SimResult] = {}
        for (app, kind), prefetcher in built.items():
            trace = traces[app]

            def call(trace: Any = trace, prefetcher: Any = prefetcher) -> SimResult:
                with _span(tracer, "memsim.simulate", len(trace)):
                    return simulate(trace, prefetcher, SIM_CONFIG)
            result, timing = _measure(call)
            results[(app, kind)] = result
            learned = kind != "null"
            row.cells[f"{app}/{kind}"] = Cell(
                timing=timing, accesses=len(trace), learned=learned,
                misses=result.demand_misses if learned else 0)
            _check_cell(f"{app}/{kind}", result, first, pins, out)
            if tracer is not None:
                out.facts.add_cell(result, prefetcher)
        row.quality_pct = float(np.mean([
            results[(app, kind)].percent_misses_removed(results[(app, "null")])
            for app in apps for kind in prefetchers if kind != "null"]))
        return row

    _batch_run(ctx, out, setup, timed, HOST_SENSITIVITY[name])
    # The result line names every end-to-end metric on every workload; an
    # alias is the same figure under another name, judged once, by its source.
    out.detail["aliases"] = {"fleet_events_per_s": "sim_maccesses_per_s * 1e6"}
    return out


def _check_cell(key: str, result: SimResult, first: dict[str, dict[str, int]],
                pins: dict[str, dict[str, int]], out: Outcome) -> None:
    """Identical ``CacheStats`` on every repeat, and equal to the pins
    recorded with the benchmark."""
    stats = asdict(result.stats)
    out.attempted += 1
    expected = first.setdefault(key, stats)
    if expected is stats:
        out.cells.append({"cell": key, "engine_used": result.engine_used,
                          "backend_used": result.backend_used,
                          "stats": stats})
    problems = []
    if stats != expected:
        problems.append(f"{key}: stats differ between repeats")
    if pins and pins.get(key) != stats:
        problems.append(f"{key}: stats {stats} differ from pin {pins.get(key)}")
    if problems:
        out.failed += 1
        out.failures.extend(problems)


def cls_missheavy(ctx: Ctx) -> Outcome:
    return _sim_workload(ctx, "cls-missheavy",
                         {"resnet": 20_000, "graph500": 40_000},
                         ("hebbian", "null"))


def baselines_hitheavy(ctx: Ctx) -> Outcome:
    return _sim_workload(ctx, "baselines-hitheavy",
                         {"pagerank": 2_000_000, "mcf": 2_000_000},
                         ("null", "nextline", "stride", "markov", "leap"))


FLEET_TENANTS = 64
FLEET_N = 1000
FLEET_WORKING_SET = 200
FLEET_VOCAB = 256
FLEET_WIDTH = 256
#: Lanes re-run through standalone simulate() after each run.
FLEET_CHECKED_LANES = (0, 1, 2, 3, 4)


def _fleet_prototype() -> SparseHebbianNetwork:
    return SparseHebbianNetwork(
        experiment_hebbian_config(FLEET_VOCAB, STRUCTURE_SEED))


def _fleet_prefetcher(prototype: SparseHebbianNetwork) -> CLSPrefetcher:
    return CLSPrefetcher(CLSPrefetcherConfig(
        model="hebbian", vocab_size=FLEET_VOCAB, hebbian=prototype.config,
        seed=STRUCTURE_SEED), model=prototype.clone())


def fleet_cls(ctx: Ctx) -> Outcome:
    """The ``repro fleet`` CLI recipe: prototype clones, the Table 1
    patterns in rotation, one pattern seed per tenant."""
    tenants, n = (8, 300) if ctx.smoke else (FLEET_TENANTS, FLEET_N)
    out = Outcome(metrics={}, attempted=0, failed=0)
    pins = {} if ctx.smoke else load_pins("fleet-cls")
    first: dict[str, dict[str, int]] = {}
    sim_cfg = SimConfig(memory_fraction=0.5)
    specs: list[FleetLaneSpec] = []

    def setup(tracer: Tracer | None) -> list[FleetLaneSpec]:
        prototype = _fleet_prototype()
        lanes = []
        for tenant in range(tenants):
            spec = PatternSpec(n=n, working_set=FLEET_WORKING_SET,
                               seed=STRUCTURE_SEED + tenant)
            pattern = PATTERN_NAMES[tenant % len(PATTERN_NAMES)]
            with _span(tracer, "patterns.generate"):
                trace = generate(pattern, spec)
            trace.addresses += address_shift(ctx.seed)
            lanes.append(FleetLaneSpec(trace=trace, config=sim_cfg,
                                       prefetcher=_fleet_prefetcher(prototype)))
        return lanes

    def timed(lanes: list[FleetLaneSpec], tracer: Tracer | None) -> Round:
        def call() -> Any:
            with _span(tracer, "harness.run_fleet",
                       sum(len(lane.trace) for lane in lanes)):
                return run_fleet(lanes, max_width=FLEET_WIDTH)
        report, timing = _measure(call)
        misses = sum(o.result.demand_misses for o in report.outcomes)
        useful = sum(o.result.stats.prefetch_hits for o in report.outcomes)
        for tenant, outcome in enumerate(report.outcomes):
            _check_cell(f"lane{tenant}", outcome.result, first, pins, out)
            if tracer is not None:
                out.facts.add_cell(outcome.result, lanes[tenant].prefetcher)
        out.detail["fleet"] = {"backend_used": report.backend,
                               "n_cohorts": report.n_cohorts,
                               "lanes": report.n_lanes}
        specs[:] = lanes
        return Round(cells={"fleet": Cell(timing=timing,
                                          accesses=report.total_accesses,
                                          misses=misses, learned=True)},
                     quality_pct=100.0 * useful / max(1, useful + misses))

    _batch_run(ctx, out, setup, timed, HOST_SENSITIVITY["fleet-cls"])
    out.detail["aliases"] = {
        "sim_maccesses_per_s": "fleet_events_per_s / 1e6",
        "serve_events_per_s": "fleet_events_per_s * lane misses / lane accesses"}
    # Outside the timed rounds: a sample of lanes through standalone
    # simulate() must match the fleet bit for bit.
    prototype = _fleet_prototype()
    for tenant in FLEET_CHECKED_LANES[: len(specs)]:
        spec = specs[tenant]
        alone = simulate(spec.trace, _fleet_prefetcher(prototype), spec.config)
        out.attempted += 1
        if asdict(alone.stats) != first[f"lane{tenant}"]:
            out.failed += 1
            out.failures.append(f"lane{tenant}: fleet differs from simulate()")
    return out


# ----------------------------------------------------------------------
# serve-openloop
# ----------------------------------------------------------------------
SERVE_TENANTS = 100
SERVE_VOCAB = 64
SLO_P99_MS = 10.0
#: Offered events/s per rung.  Every rung offers the same event sequence,
#: ``RUNG_EVENTS_PER_S * seconds`` events (2000 at 25 s, so the first
#: rung's p99 over 1000 queries has 10 samples beyond it).
LADDER = (250, 500, 1000, 2000)
RUNG_EVENTS_PER_S = 80
#: The SLO as a share: p99 <= SLO_P99_MS means at least this share of
#: queries answered within SLO_P99_MS.
SLO_SHARE = 0.99
#: Steady drain-phase bursts per second of the run's budget: 20 at 25 s,
#: about 9 s of a 2-CPU host's time, so their median rests on enough
#: bursts to be steady.
BURSTS_PER_S = 0.8
BURST = 800
#: The first bursts (16 events per tenant) run while the lanes' encoders
#: and models are still filling, 2-6x faster than the steady state; they
#: are timed but not reported.
WARM_BURSTS = 2
#: A query must be answered this long after its due time, or it failed.
ANSWER_DEADLINE_S = 20.0


def _serve_service() -> PrefetchService:
    service = PrefetchService(ServeConfig(vocab_size=SERVE_VOCAB))
    for tenant in range(SERVE_TENANTS):
        service.lane(tenant)
    return service


def _timed_setup(setups: list[Timing],
                 calibrate: bool = True) -> PrefetchService:
    """Service start with every tenant's lane built."""
    service, timing = _measure_setup(_serve_service, calibrate)
    setups.append(timing)
    return service


#: A tenant's first two events train nothing: the delta encoder needs one
#: address before its first class, and a transition needs two classes.
UNTRAINABLE_PER_TENANT = 2


def _train_backlog(counters: dict[str, int]) -> int:
    """Started events whose shadow training has not run yet, from the
    service's public counters (each tenant's untrainable events aside)."""
    return max(0, counters["events_started"] - counters["train_steps"]
               - UNTRAINABLE_PER_TENANT * counters["tenants"])


def _tenant_offsets() -> np.ndarray:
    return np.random.default_rng(STRUCTURE_SEED).integers(0, 64, SERVE_TENANTS)


def _address(i: int, tenant: int, offsets: np.ndarray, shift: int) -> int:
    """The address recipe of ``benchmarks/test_perf_serve.py``, with a
    per-tenant offset."""
    return shift + 4096 * ((3 * i + int(offsets[tenant])) % 64)


@dataclass
class Rung:
    offered_eps: float
    events: int
    p50_ms: float
    p99_ms: float
    #: Share of queries answered within SLO_P99_MS of their due time
    #: (an unanswered query counts as a miss).
    within_slo: float
    late_p99_ms: float
    achieved_eps: float
    backlog_end: int
    passed: bool
    backlog_grew: bool
    valid: bool
    queries: int
    unanswered: int
    dropped: int
    swaps: int
    swap_pause_p99_ms: float
    train_lag_max: int
    train_tasks_dropped: int
    waits: list[tuple[float, float]] = field(repr=False, default_factory=list)


def _run_rung(eps: float, n_events: int, offsets: np.ndarray, shift: int,
              setups: list[Timing], out: Outcome) -> Rung:
    """One open-loop rung: events due every ``1/eps`` s from one generator
    thread, a query after every second miss, latency from the due time."""
    service = _timed_setup(setups)
    sched = ThreadScheduler()
    for actor in service.actors():
        sched.add(actor)
    period = 1.0 / eps
    tickets: list[tuple[float, Any]] = []
    late = np.zeros(n_events)
    train_lag = 0
    sched.start()
    try:
        start = time.perf_counter()
        for i in range(n_events):
            due = start + i * period
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            late[i] = now - due
            tenant = i % SERVE_TENANTS
            service.submit_miss(tenant, _address(i, tenant, offsets, shift), i)
            if i % 2:
                tickets.append((due, service.query(tenant)))
            if i % 64 == 0:
                train_lag = max(train_lag, _train_backlog(service.counters()))
        gen_end = time.perf_counter()
        counters = service.counters()
        backlog_end = (counters["events_submitted"] - counters["events_started"]
                       - counters["ring_dropped"] - counters["fault_dropped"]
                       + _train_backlog(counters))
        deadline = gen_end + ANSWER_DEADLINE_S
        unanswered = sum(not t.wait(max(0.0, deadline - time.perf_counter()))
                         for _, t in tickets)
        while (service.counters()["events_started"] + service.ring.dropped
               < n_events and time.perf_counter() < deadline):
            time.sleep(0.005)
    finally:
        sched.stop()
    counters = service.counters()
    latencies = np.array([t.answered_at - due for due, t in tickets
                          if t.answered_at is not None]) * 1e3
    dropped = counters["ring_dropped"] + counters["fault_dropped"]
    accounted = counters["events_started"] + dropped == counters["events_submitted"]
    out.attempted += n_events + len(tickets)
    out.failed += unanswered + dropped + (0 if accounted else 1)
    if unanswered:
        out.failures.append(f"{eps} eps: {unanswered} queries unanswered")
    if dropped:
        out.failures.append(f"{eps} eps: {dropped} events dropped")
    if not accounted:
        out.failures.append(f"{eps} eps: events neither started nor dropped")
    p99 = float(np.percentile(latencies, 99)) if latencies.size else float("inf")
    late_p99 = float(np.percentile(late, 99)) * 1e3
    # A generator that fell behind did not offer the rung's load: the rung
    # is invalid, not passed.
    valid = late_p99 <= SLO_P99_MS
    return Rung(
        offered_eps=eps, events=n_events,
        p50_ms=float(np.percentile(latencies, 50)) if latencies.size else 0.0,
        p99_ms=p99,
        within_slo=float((latencies <= SLO_P99_MS).sum()) / max(1, len(tickets)),
        late_p99_ms=late_p99,
        achieved_eps=(n_events - 1) / max(gen_end - start, 1e-9),
        backlog_end=backlog_end,
        passed=(valid and p99 <= SLO_P99_MS and not unanswered
                and backlog_end <= service.config.max_batch),
        backlog_grew=backlog_end > service.config.max_batch,
        valid=valid, queries=len(tickets), unanswered=unanswered,
        dropped=dropped, swaps=counters["swaps"],
        swap_pause_p99_ms=service.swap_pause_percentiles()["p99_ms"],
        train_lag_max=train_lag,
        train_tasks_dropped=counters["train_tasks_dropped"],
        waits=[(due, t.answered_at) for due, t in tickets
               if t.answered_at is not None])


@dataclass
class Drain:
    #: Every burst's timing.
    timings: list[Timing]
    hit_pct: float
    service: PrefetchService | None


def _drain(offsets: np.ndarray, shift: int, bursts: int, burst: int,
           setups: list[Timing], out: Outcome, calibrate: bool = True) -> Drain:
    """``bursts`` bursts below ``ring_capacity``, each drained through
    stage, finish and train in lockstep.

    After each burst, outside its timing, every tenant is queried once: an
    answer holding the page of that tenant's next miss would have removed
    that miss."""
    service = _timed_setup(setups, calibrate)
    timings = []
    hits = scored = i = 0
    for _ in range(bursts):
        events = []
        for _ in range(burst):
            tenant = i % SERVE_TENANTS
            events.append((tenant, _address(i, tenant, offsets, shift), i))
            i += 1
        timings.append(
            _measure(lambda: _drain_burst(service, events), calibrate)[1])
        tickets = [service.query(tenant) for tenant in range(SERVE_TENANTS)]
        while service.serve_once():
            pass
        for tenant, ticket in enumerate(tickets):
            nxt = i + (tenant - i) % SERVE_TENANTS
            hits += (_address(nxt, tenant, offsets, shift) >> 12) in (ticket.pages or [])
            scored += 1
    counters = service.counters()
    out.attempted += i + scored
    lost = i - counters["events_started"]
    unanswered = counters["queries_submitted"] - counters["queries_answered"]
    if lost or unanswered:
        out.failed += lost + unanswered
        out.failures.append(f"drain: {lost} events never started, "
                            f"{unanswered} queries unanswered")
    return Drain(timings=timings, hit_pct=100.0 * hits / max(1, scored),
                 service=service)


def _drain_burst(service: PrefetchService,
                 events: list[tuple[int, int, int]]) -> None:
    for event in events:
        service.submit_miss(*event)
    progressed = True
    while progressed:
        progressed = False
        while service.serve_once():
            progressed = True
        while service.train_once():
            progressed = True


def slo_rate(rungs: list[Rung]) -> float:
    """The offered rate at which the share of queries answered within
    ``SLO_P99_MS`` falls to ``SLO_SHARE`` (p99 = the limit), linear between
    the measured rate of the last passing rung (zero load: every query
    within) and the first failing one.  An invalid rung, or one whose
    backlog grew, ends the ladder at the previous rung."""
    prev_rate, prev_share = 0.0, 1.0
    for rung in rungs:
        if not rung.valid or rung.backlog_grew:
            return prev_rate
        rate, share = rung.achieved_eps, rung.within_slo
        if share < SLO_SHARE:
            return prev_rate + ((rate - prev_rate) * (prev_share - SLO_SHARE)
                                / (prev_share - share))
        prev_rate, prev_share = rate, share
    return prev_rate


def _ladder(n_events: int, offsets: np.ndarray, shift: int,
            setups: list[Timing], out: Outcome) -> list[Rung]:
    """The rate ladder, up to and including the first rung that fails."""
    rungs: list[Rung] = []
    for eps in LADDER:
        rungs.append(_run_rung(eps, n_events, offsets, shift, setups, out))
        if not rungs[-1].passed:
            break
    return rungs


def serve_openloop(ctx: Ctx) -> Outcome:
    """The lockstep burst drain and the open-loop ladder.

    Only the drain's figures are end-to-end metrics.  The ladder's query
    latencies swing between runs with the load other tenants of a shared
    host put on it (p99 at 250 events/s: 2-3 ms in quiet runs, 15-30 ms in
    noisy ones), so they are per-layer metrics of the traced run and are
    kept in every run's record; their checks count in every run.
    """
    tracer = ctx.tracer
    offsets = _tenant_offsets()
    shift = address_shift(ctx.seed)
    out = Outcome(metrics={}, attempted=0, failed=0)
    setups: list[Timing] = []
    burst = 200 if ctx.smoke else BURST
    bursts = WARM_BURSTS + max(1, round(BURSTS_PER_S * ctx.seconds))
    n_events = max(40, int(RUNG_EVENTS_PER_S * ctx.seconds))
    # Set-ups beyond the ladder's and the drain's, made while no other
    # service is alive.
    while _more_setups(setups):
        _timed_setup(setups)
    if tracer is None:
        # The drain first: single-threaded, so its memory high-water mark
        # repeats from run to run, where the ladder's swings by 30% with
        # thread timing (the number of swaps, which rungs run).
        drain = _drain(offsets, shift, bursts, burst, setups, out)
        peak_mb = peak_rss_mb()
        drain.service = None
        rungs = _ladder(n_events, offsets, shift, setups, out)
        out.detail["ladder_peak_rss_mb"] = peak_rss_mb()
    else:
        # The traced ladder, then an untraced and a traced drain of as many
        # bursts: the two drains' walls give the tracing overhead.  Both
        # drains run uncalibrated, so the calibration units stay out of the
        # serve.drain span's own time.
        bursts = WARM_BURSTS + max(1, (bursts - WARM_BURSTS) // 2)
        tracer.install(targets())
        try:
            rungs = _ladder(n_events, offsets, shift, setups, out)
        finally:
            tracer.uninstall()
        out.facts.untraced_wall_s = _measure(
            lambda: _drain(offsets, shift, bursts, burst, setups, out,
                           calibrate=False))[1].wall_s
        tracer.install(targets())
        try:
            def traced_drain() -> Drain:
                with tracer.span("serve.drain"):
                    return _drain(offsets, shift, bursts, burst, setups, out,
                                  calibrate=False)
            drain, timing = _measure(traced_drain)
            out.facts.traced_wall_s = timing.wall_s
        finally:
            tracer.uninstall()
        out.facts.serve_rungs = rungs
        out.facts.serve_slo_rate_eps = slo_rate(rungs)
        out.facts.serve_service = drain.service
        peak_mb = peak_rss_mb()
    # The median steady burst (see ``WARM_BURSTS``), as in the rounds of the
    # other workloads.
    sensitivity = HOST_SENSITIVITY["serve-openloop"]
    steady = drain.timings[WARM_BURSTS:]
    drain_rate = median([burst / t.reference_s(sensitivity) for t in steady])
    out.detail["wall_rate"] = median([burst / t.wall_s for t in steady])
    out.metrics = {
        "setup_s": median([t.reference_s(sensitivity) for t in setups]),
        "sim_maccesses_per_s": drain_rate / 1e6,
        "misses_removed_pct": drain.hit_pct,
        "fleet_events_per_s": drain_rate,
        "serve_events_per_s": drain_rate,
        "peak_rss_mb": peak_mb,
    }
    out.detail["aliases"] = {"sim_maccesses_per_s": "serve_events_per_s / 1e6",
                             "fleet_events_per_s": "serve_events_per_s"}
    out.cells = [{k: v for k, v in asdict(r).items() if k != "waits"}
                 for r in rungs]
    out.detail["slo_rate_eps"] = slo_rate(rungs)
    out.detail["setups"] = [asdict(t) for t in setups]
    out.detail["drain"] = [asdict(t) for t in drain.timings]
    return out


WORKLOADS: dict[str, Callable[[Ctx], Outcome]] = {
    "cls-missheavy": cls_missheavy,
    "baselines-hitheavy": baselines_hitheavy,
    "fleet-cls": fleet_cls,
    "serve-openloop": serve_openloop,
}
