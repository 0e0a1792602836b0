"""The train-and-serve prefetch daemon.

:class:`PrefetchService` keeps one :class:`TenantLane` per tenant; each
lane owns a §5.5 :class:`~repro.core.availability.ShadowModelManager`
(live serves, shadow trains) plus the encoder/replay/accuracy state the
offline :class:`~repro.core.cls_prefetcher.CLSPrefetcher` keeps per
stream.  Two actors drive it:

- **serve** — drains the ingest ring into per-tenant rounds, advances
  every staged lane's *live* model in one stacked
  :class:`~repro.nn.hebbian_fleet.HebbianFleet` call, performs hot-swaps
  (redeploy on confidence drop or staleness), and answers query batches
  from batched fleet rollouts.  The serve actor is the only mutator of
  live models, so the answer path takes no lock and can never block
  behind a training step.
- **trainer** — consumes queued transitions and trains each lane's
  *shadow* copy (plus interleaved replay) under that lane's lock; the
  lock is shared only with the swap decision, never with answering.

The per-event pipeline is split into a *stage* sub-step (encode, score,
accuracy EMA — the offline ``_ingest`` prefix) and a *finish* sub-step
(confidence EMA, redeploy check, live-model step — the ``_ingest``
suffix), with training queued between them.  Under the lockstep schedule
``stage → drain trainer → finish → answer`` (see
:func:`replay_lockstep`) the daemon performs the offline pipeline's
operations in the identical order, which is why the differential suite
can assert bit-identity against ``simulate()`` — predictions, learned
``w_out``, and the confidence EMA.  Under any other schedule the service
is still correct (queries are answered from whatever weights are
deployed), just not bit-equal to the offline serialization.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..core.availability import ShadowModelManager, weights_finite
from ..core.encoding import OOV_CLASS, Encoder, make_encoder
from ..core.hippocampus import Episode
from ..core.replay import ReplayScheduler, make_replay_policy
from ..core.sampling import make_training_policy
from ..nn.hebbian import HebbianConfig, SparseHebbianNetwork
from ..nn.hebbian_fleet import HebbianFleet
from ..seeding import spawn_seeds
from ..telemetry.manifest import build_serve_manifest
from ..telemetry.sink import Telemetry
from .batcher import QueryTicket, RequestBatcher
from .clock import Clock, RealClock
from .faults import FaultPlan, poison_weights
from .loop import Actor
from .ring import EventRing

import threading

#: A beam rollout, as ``predict_rollout`` returns it.
Rollout = list[list[tuple[int, float]]]


@dataclass(frozen=True)
class ServeConfig:
    """Everything configurable about one service instance.

    The model/encoder/prediction fields deliberately mirror
    :class:`~repro.core.cls_prefetcher.CLSPrefetcherConfig` (rollout
    mode, no phase detection): the differential suite holds the daemon
    bit-identical to the offline prefetcher, so the serve path cannot
    fork semantics.

    Attributes:
        vocab_size: Miss-class vocabulary shared by encoder and model.
        encoder: "delta", "page" or "region" (§5.3).
        granularity: Bytes per encoded unit.
        page_size: Page size used to emit prefetch targets.
        prefetch_length: Rollout depth per query (§5.2).
        prefetch_width: Candidates per rollout step (§5.2).
        min_confidence: Candidate suppression threshold (§5.2).
        min_accuracy: Suppress all prefetching below this accuracy EMA.
        accuracy_ema_alpha: Smoothing of the self-monitored accuracy.
        training: Training-instance policy kind (§5.1); the batch
            accumulator is not servable (it owns training wholesale).
        replay_policy: Replay policy kind (§5.4), or None to disable.
        replay_per_step: Episodes replayed per background training step.
        replay_lr_scale: Replay learning-rate scale (paper: 0.1).
        redeploy_below: §5.5 confidence-EMA redeploy threshold.
        ema_alpha: §5.5 confidence-EMA smoothing.
        max_staleness: §5.5 staleness backstop (training steps).
        ring_capacity: Ingest ring bound (drop-oldest beyond it).
        train_queue_capacity: Pending-training bound (drop-oldest).
        max_batch: Events staged / queries answered per round.
        stacked: Step and roll out live lanes through one
            :class:`HebbianFleet` (multi-tenant batching); False keeps
            the scalar per-lane path.
        record_checksums: Checksum the serving weights at every swap and
            every answer — the torn-swap assertion's evidence trail.
        seed: Root seed; model construction and per-tenant replay
            sampling derive from it via ``spawn_seeds``.
    """

    vocab_size: int = 128
    encoder: str = "delta"
    granularity: int = 4096
    page_size: int = 4096
    prefetch_length: int = 2
    prefetch_width: int = 2
    min_confidence: float = 0.0
    min_accuracy: float = 0.0
    accuracy_ema_alpha: float = 0.02
    training: str = "always"
    replay_policy: str | None = None
    replay_per_step: int = 1
    replay_lr_scale: float = 0.1
    redeploy_below: float = 0.5
    ema_alpha: float = 0.05
    max_staleness: int = 256
    ring_capacity: int = 1024
    train_queue_capacity: int = 4096
    max_batch: int = 64
    stacked: bool = True
    record_checksums: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.prefetch_length < 1 or self.prefetch_width < 1:
            raise ValueError("prefetch_length and prefetch_width must be >= 1")
        if not 0 <= self.min_confidence <= 1:
            raise ValueError("min_confidence must be in [0, 1]")
        if not 0 <= self.min_accuracy <= 1:
            raise ValueError("min_accuracy must be in [0, 1]")
        if not 0 < self.accuracy_ema_alpha <= 1:
            raise ValueError("accuracy_ema_alpha must be in (0, 1]")
        if self.training == "batch":
            raise ValueError("the batch-accumulate policy is not servable "
                             "(it owns training wholesale)")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        if min(self.ring_capacity, self.train_queue_capacity,
               self.max_batch) < 1:
            raise ValueError("capacities and max_batch must be >= 1")


@dataclass(frozen=True, slots=True)
class ServeEvent:
    """One miss event as it travels through the ingest ring."""

    tenant: int
    address: int
    timestamp: int


@dataclass(frozen=True, slots=True)
class _Staged:
    """The stage sub-step's output, consumed by the finish sub-step."""

    class_id: int
    confidence: float
    had_probs: bool
    transition: tuple[int, int] | None
    train: bool
    timestamp: int


@dataclass(frozen=True, slots=True)
class _TrainTask:
    """One queued background-training unit (always has a transition)."""

    lane: "TenantLane"
    transition: tuple[int, int]
    confidence: float
    train: bool
    timestamp: int


class TenantLane:
    """One tenant's serving state: §5.5 manager, encoder, accuracy EMA.

    Attribute discipline (this is what makes the concurrency auditable):
    the serve actor calls :meth:`observe` / :meth:`pre_advance` /
    :meth:`post_advance` / :meth:`answer`; the trainer actor calls only
    :meth:`train_background` / :meth:`poison_shadow`.  State shared
    between the two — the manager's scalars and the shadow model — is
    touched exclusively under :attr:`lock`.  Everything else is owned by
    the serve actor alone.
    """

    def __init__(self, tenant: int, config: ServeConfig,
                 manager: ShadowModelManager, encoder: Encoder,
                 replay: ReplayScheduler | None) -> None:
        self.tenant = tenant
        self.config = config
        self.manager = manager
        self.encoder = encoder
        self.replay = replay
        self.lock = threading.Lock()
        self.slot = -1          # fleet slot; -1 in scalar mode
        self.prev_class: int | None = None
        self.last_probs: np.ndarray | None = None
        self.last_address = 0
        self.last_page = 0
        self.accuracy_ema = 0.0
        self.misses_seen = 0
        self.trained_steps = 0
        self.replayed_pairs = 0
        self.prefetches_emitted = 0
        self.suppressed = 0
        self.swaps = 0
        self.swaps_rejected = 0
        self.swap_pauses: list[float] = []
        self.checksum_history: list[str] = []
        self._page_shift = config.page_size.bit_length() - 1
        self._width = config.prefetch_width
        self._length = config.prefetch_length
        self._alpha = config.accuracy_ema_alpha
        self._should_train = make_training_policy(config.training).should_train

    # -- serve actor: the two-sub-step event pipeline ---------------------
    def observe(self, address: int, timestamp: int) -> _Staged | None:
        """Stage sub-step: the offline ``_ingest`` prefix (encode, score
        the last probs, accuracy EMA, train decision).  No model state
        moves here — that happens in :meth:`post_advance`."""
        self.misses_seen += 1
        self.last_address = address
        self.last_page = address >> self._page_shift
        class_id = self.encoder.observe(address)
        if class_id is None:
            return None
        probs = self.last_probs
        confidence = float(probs.item(class_id)) if probs is not None else 0.0
        transition = (None if self.prev_class is None
                      else (self.prev_class, class_id))
        if probs is not None:
            top = np.argpartition(probs, -self._width)[-self._width:]
            alpha = self._alpha
            self.accuracy_ema = ((1 - alpha) * self.accuracy_ema
                                 + alpha * float(class_id in top))
        train = transition is not None and self._should_train(confidence)
        return _Staged(class_id, confidence, probs is not None,
                       transition, train, timestamp)

    def pre_advance(self, staged: _Staged, fleet: HebbianFleet | None,
                    clock: Clock) -> None:
        """Finish sub-step, part 1: confidence EMA and the swap decision
        (the offline ``_learn_and_advance`` suffix before the live step).
        Runs under the lane lock — mutually exclusive with background
        shadow training, never with answering."""
        with self.lock:
            if staged.had_probs:
                self.manager.note_confidence(staged.confidence)
            if self.manager.should_redeploy():
                self._swap_locked(fleet, clock)

    def post_advance(self, probs: np.ndarray, staged: _Staged) -> None:
        """Finish sub-step, part 2: adopt the live model's new probs row
        (the caller stepped the model — stacked via the fleet, or scalar
        via ``live.step``)."""
        self.last_probs = probs
        self.prev_class = staged.class_id

    def step_scalar(self, staged: _Staged) -> np.ndarray:
        """Scalar-mode live step (the fleet-less mirror of
        ``step_lanes``)."""
        return self.live_net().step(staged.class_id, train=False)

    # -- serve actor: answering ------------------------------------------
    def would_gate(self) -> bool:
        """True when the min-accuracy gate suppresses this lane's
        prefetching (checked before any rollout work is spent)."""
        config = self.config
        return (config.min_accuracy > 0
                and self.accuracy_ema < config.min_accuracy)

    def live_rollout(self) -> Rollout:
        """Scalar-mode beam rollout from the live model."""
        return self.live_net().predict_rollout(self._width, self._length)

    def answer(self, rollout: Rollout | None) -> list[int]:
        """Decode a rollout into prefetch pages — the offline
        ``_decode_rollout`` loop verbatim (suppression, OOV skip, dedupe,
        top-1 base chaining).  ``None`` means the lane was gated."""
        if rollout is None:
            self.suppressed += 1
            return []
        pages: list[int] = []
        seen: set[int] = set()
        base = self.last_address
        miss_page = self.last_page
        decode = self.encoder.decode
        page_shift = self._page_shift
        min_confidence = self.config.min_confidence
        for candidates in rollout:
            for candidate_class, probability in candidates:
                if probability < min_confidence:
                    self.suppressed += 1
                    continue
                if candidate_class == OOV_CLASS:
                    continue
                address = decode(candidate_class, base)
                if address is None:
                    continue
                page = address >> page_shift
                if page != miss_page and page not in seen:
                    seen.add(page)
                    pages.append(page)
            next_base = decode(candidates[0][0], base)
            if next_base is None:
                break
            base = next_base
        self.prefetches_emitted += len(pages)
        return pages

    # -- serve actor: swaps ----------------------------------------------
    def adopt(self, fleet: HebbianFleet) -> None:
        """Hand the live model's stepping to a fleet slot."""
        self.slot = fleet.acquire_lane(self.live_net())

    def force_swap(self, fleet: HebbianFleet | None, clock: Clock) -> None:
        """Fault hook: redeploy right now, regardless of the EMA."""
        with self.lock:
            self._swap_locked(fleet, clock)

    def _swap_locked(self, fleet: HebbianFleet | None, clock: Clock) -> None:
        """Hot-swap: promote the shadow to live (§5.5 redeploy).

        A shadow with non-finite weights is rejected and discarded — the
        live copy keeps serving.  Past admission nothing is allocated:
        the redeploy and the fleet slot copy only the weight columns the
        shadow trained — the measured "swap pause".
        """
        manager = self.manager
        if not weights_finite(manager.shadow):
            manager.discard_shadow()
            self.swaps_rejected += 1
            return
        start = clock.now()
        changed = manager.redeploy()
        live = self.live_net()
        live.reset_state()  # state re-warms within a few misses
        if fleet is not None:
            assert changed is not None
            fleet.refresh_lane(self.slot, live, changed)
        self.swap_pauses.append(clock.now() - start)
        self.swaps += 1
        if self.config.record_checksums:
            self.checksum_history.append(self.serving_checksum(fleet))

    def serving_checksum(self, fleet: HebbianFleet | None) -> str:
        """Digest of the weights queries are currently answered from."""
        if fleet is not None and self.slot >= 0:
            weights = fleet.lane_weights(self.slot)
        else:
            weights = self.live_net().w_out
        return hashlib.blake2b(np.ascontiguousarray(weights).tobytes(),
                               digest_size=16).hexdigest()

    def live_net(self) -> SparseHebbianNetwork:
        live = self.manager.live
        assert isinstance(live, SparseHebbianNetwork)
        return live

    # -- trainer actor ----------------------------------------------------
    def train_background(self, task: _TrainTask) -> None:
        """One background-training unit: record the episode, train the
        shadow, run interleaved replay — the offline order (record →
        train_shadow → replay step), under the lane lock."""
        with self.lock:
            if self.replay is not None:
                self.replay.record(Episode(
                    input_class=task.transition[0],
                    target_class=task.transition[1],
                    phase_id=-1,
                    confidence=task.confidence,
                    timestamp=task.timestamp,
                ))
            if task.train:
                self.manager.train_shadow(*task.transition)
                self.trained_steps += 1
                if self.replay is not None:
                    self.replayed_pairs += self.replay.step(
                        self.manager.shadow, current_phase=None)

    def poison_shadow(self) -> None:
        """Fault hook: corrupt the shadow's weights (trainer side)."""
        with self.lock:
            shadow = self.manager.shadow
            assert isinstance(shadow, SparseHebbianNetwork)
            poison_weights(shadow)

    def manifest_record(self) -> dict:
        """Per-lane line of the service's JSONL manifest."""
        return {
            "record": "serve_lane",
            "tenant": self.tenant,
            "misses_seen": self.misses_seen,
            "trained_steps": self.trained_steps,
            "replayed_pairs": self.replayed_pairs,
            "prefetches_emitted": self.prefetches_emitted,
            "suppressed": self.suppressed,
            "swaps": self.swaps,
            "swaps_rejected": self.swaps_rejected,
            "redeploys": self.manager.redeploys,
            "staleness": self.manager.staleness,
            "confidence_ema": self.manager.confidence_ema,
            "accuracy_ema": self.accuracy_ema,
        }


class _ServeActor:
    """Thin adapter: the serve loop as a schedulable actor."""

    name = "serve"

    def __init__(self, service: "PrefetchService") -> None:
        self._service = service

    def step(self) -> bool:
        return self._service.serve_once()


class _TrainerActor:
    """Thin adapter: the background trainer as a schedulable actor."""

    name = "trainer"

    def __init__(self, service: "PrefetchService") -> None:
        self._service = service

    def step(self) -> bool:
        return self._service.train_once()


class PrefetchService:
    """The daemon: ring in, batched answers out, shadow training behind.

    Drive it with :class:`~repro.serve.loop.ThreadScheduler` (production)
    or :class:`~repro.serve.loop.VirtualScheduler` (deterministic tests)
    via :meth:`actors`; or synchronously via :func:`replay_lockstep`.
    """

    def __init__(self, config: ServeConfig = ServeConfig(), *,
                 clock: Clock | None = None,
                 telemetry: Telemetry | None = None,
                 faults: FaultPlan | None = None) -> None:
        self.config = config
        self.clock: Clock = clock if clock is not None else RealClock()
        self.telemetry = telemetry
        self.faults = faults if faults is not None else FaultPlan()
        self._prototype = SparseHebbianNetwork(
            HebbianConfig(vocab_size=config.vocab_size, seed=config.seed))
        self._fleet: HebbianFleet | None = (
            HebbianFleet(self._prototype, n_lanes=8, reserve=True)
            if config.stacked else None)
        self.ring: EventRing[ServeEvent] = EventRing(config.ring_capacity)
        self.batcher = RequestBatcher(config.max_batch)
        self._train_queue: EventRing[_TrainTask] = EventRing(
            config.train_queue_capacity)
        self._lanes: dict[int, TenantLane] = {}
        self._lane_seeds: tuple[int, ...] = ()
        self._backlog: deque[ServeEvent] = deque()
        self._staged: list[tuple[TenantLane, _Staged]] = []
        self._submit_lock = threading.Lock()
        self._sequence = 0
        self.events_submitted = 0
        self.fault_dropped = 0
        self.events_started = 0
        self.events_processed = 0
        self.queries_answered = 0
        self.forced_swaps = 0
        self.poison_injected = 0
        self.total_trained = 0
        self.latencies: list[float] = []

    # -- client surface ---------------------------------------------------
    def submit_miss(self, tenant: int, address: int,
                    timestamp: int = 0) -> bool:
        """Offer one miss event; False when dropped (fault or ring)."""
        with self._submit_lock:
            sequence = self._sequence
            self._sequence += 1
            self.events_submitted += 1
            if self.faults.drops(sequence):
                self.fault_dropped += 1
                return False
            return self.ring.push(ServeEvent(tenant, address, timestamp))

    def query(self, tenant: int) -> QueryTicket:
        """Ask for prefetch pages; resolves when the serve actor answers."""
        return self.batcher.submit(tenant, self.clock.now())

    def actors(self) -> list[Actor]:
        """The service's schedulable actors (serve loop, trainer)."""
        return [_ServeActor(self), _TrainerActor(self)]

    def lane(self, tenant: int) -> TenantLane:
        """The tenant's lane, created on first contact."""
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = self._make_lane(tenant)
            self._lanes[tenant] = lane
        return lane

    # -- the serve actor's round ------------------------------------------
    def serve_once(self) -> bool:
        """One serve step: finish a staged round, else stage a new one,
        else answer a query batch.  Finishing before re-staging keeps a
        tenant's events strictly ordered through the two sub-steps."""
        if self._staged:
            self._finish_round()
            return True
        if self._stage_round():
            return True
        return self._answer_round()

    def _stage_round(self) -> bool:
        backlog = self._backlog
        if not backlog:
            backlog.extend(self.ring.pop_up_to(self.config.max_batch))
        if not backlog:
            return False
        staged: list[tuple[TenantLane, _Staged]] = []
        rest: deque[ServeEvent] = deque()
        seen: set[int] = set()
        max_batch = self.config.max_batch
        for event in backlog:
            # One in-flight event per tenant per round: the second event
            # must not stage before the first finishes (per-tenant FIFO
            # through both sub-steps).  Cross-tenant order is free.
            if event.tenant in seen or len(staged) >= max_batch:
                rest.append(event)
                continue
            seen.add(event.tenant)
            lane = self.lane(event.tenant)
            self.events_started += 1
            item = lane.observe(event.address, event.timestamp)
            if item is None:
                continue
            staged.append((lane, item))
            if item.transition is not None:
                task = _TrainTask(lane, item.transition, item.confidence,
                                  item.train, item.timestamp)
                self._train_queue.push(task)
        self._backlog = rest
        self._staged = staged
        return True

    def _finish_round(self) -> None:
        staged = self._staged
        self._staged = []
        fleet = self._fleet
        for lane, item in staged:
            lane.pre_advance(item, fleet, self.clock)
        if fleet is not None and staged:
            probs = fleet.step_lanes(
                [lane.slot for lane, _ in staged],
                [item.class_id for _, item in staged],
                [False] * len(staged))
            for i, (lane, item) in enumerate(staged):
                lane.post_advance(probs[i], item)
        else:
            for lane, item in staged:
                lane.post_advance(lane.step_scalar(item), item)
        self.events_processed += len(staged)
        if self.telemetry is not None:
            self.telemetry.counter("serve_events_processed", len(staged))

    def _answer_round(self) -> bool:
        batch = self.batcher.take_batch()
        if not batch:
            return False
        fleet = self._fleet
        lanes = {ticket.tenant: self.lane(ticket.tenant) for ticket in batch}
        if self.faults.swap_on_query:
            for lane in lanes.values():
                lane.force_swap(fleet, self.clock)
                self.forced_swaps += 1
        rollouts = self._rollouts(lanes)
        record_checksums = self.config.record_checksums
        for ticket in batch:
            lane = lanes[ticket.tenant]
            pages = lane.answer(rollouts.get(ticket.tenant))
            checksum = (lane.serving_checksum(fleet)
                        if record_checksums else None)
            now = self.clock.now()
            self.batcher.answer(ticket, pages, now, checksum)
            self.queries_answered += 1
            self.latencies.append(now - ticket.submitted_at)
        if self.telemetry is not None:
            self.telemetry.counter("serve_queries_answered", len(batch))
        return True

    def _rollouts(self, lanes: dict[int, TenantLane]) -> dict[int, Rollout]:
        """One rollout per distinct non-gated lane — batched through the
        fleet when stacked (rollouts are read-only, so tickets for the
        same tenant in one batch share the result)."""
        fleet = self._fleet
        live = [(tenant, lane) for tenant, lane in lanes.items()
                if not lane.would_gate()]
        if not live:
            return {}
        if fleet is not None:
            width = self.config.prefetch_width
            length = self.config.prefetch_length
            rolls = fleet.rollout_lanes([lane.slot for _, lane in live],
                                        [width] * len(live),
                                        [length] * len(live))
            return {tenant: roll
                    for (tenant, _), roll in zip(live, rolls)}
        return {tenant: lane.live_rollout() for tenant, lane in live}

    # -- the trainer actor's round ----------------------------------------
    def train_once(self) -> bool:
        """One background-training step, or False when stalled/idle."""
        faults = self.faults
        if (faults.trainer_stall_events
                and self.events_started < faults.trainer_stall_events):
            return False
        task = self._train_queue.pop()
        if task is None:
            return False
        task.lane.train_background(task)
        if task.train:
            self.total_trained += 1
            if (faults.poison_after_trains is not None
                    and self.total_trained == faults.poison_after_trains
                    and self.poison_injected == 0):
                task.lane.poison_shadow()
                self.poison_injected += 1
            if faults.trainer_pause_s:
                # Threaded-mode fault: a slow worker.  No locks are held
                # here, so the pause must never surface in query latency.
                time.sleep(faults.trainer_pause_s)
        if self.telemetry is not None:
            self.telemetry.counter("serve_train_steps")
        return True

    # -- observability -----------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Exact operational counters (the degradation evidence trail)."""
        lanes = self._lanes.values()
        return {
            "tenants": len(self._lanes),
            "events_submitted": self.events_submitted,
            "events_started": self.events_started,
            "events_processed": self.events_processed,
            "ring_dropped": self.ring.dropped,
            "fault_dropped": self.fault_dropped,
            "queries_submitted": self.batcher.submitted,
            "queries_answered": self.batcher.answered,
            "train_steps": self.total_trained,
            "train_tasks_dropped": self._train_queue.dropped,
            "swaps": sum(lane.swaps for lane in lanes),
            "swaps_rejected": sum(lane.swaps_rejected for lane in lanes),
            "forced_swaps": self.forced_swaps,
            "poison_injected": self.poison_injected,
        }

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p99 query latency in milliseconds (clock units)."""
        return _percentiles_ms(self.latencies)

    def swap_pause_percentiles(self) -> dict[str, float]:
        """p50/p99 hot-swap pause in milliseconds (clock units)."""
        pauses = [p for lane in self._lanes.values()
                  for p in lane.swap_pauses]
        return _percentiles_ms(pauses)

    def manifest(self) -> dict:
        """The JSONL head record (provenance + counters + SLO numbers)."""
        spec = {"kind": "serve_run", **asdict(self.config)}
        return build_serve_manifest(
            spec, counters=self.counters(),
            latency=self.latency_percentiles(),
            swap_pause=self.swap_pause_percentiles())

    def write_manifest(self, directory: str | Path) -> Path:
        """Atomically write the service manifest JSONL: one head record,
        then one ``serve_lane`` record per tenant."""
        out_dir = Path(directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        records = [self.manifest()]
        records.extend(self._lanes[tenant].manifest_record()
                       for tenant in sorted(self._lanes))
        path = out_dir / f"serve-{len(self._lanes)}x.jsonl"
        fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True))
                    fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    # -- internals ---------------------------------------------------------
    def _lane_seed(self, tenant: int) -> int:
        if tenant >= len(self._lane_seeds):
            n = max(tenant + 1, 2 * len(self._lane_seeds), 8)
            self._lane_seeds = spawn_seeds(self.config.seed, n)
        return self._lane_seeds[tenant]

    def _make_lane(self, tenant: int) -> TenantLane:
        config = self.config
        model = self._prototype.clone()
        manager = ShadowModelManager(
            model, redeploy_below=config.redeploy_below,
            ema_alpha=config.ema_alpha, max_staleness=config.max_staleness)
        replay = None
        if config.replay_policy is not None:
            replay = ReplayScheduler(
                policy=make_replay_policy(config.replay_policy),
                per_step=config.replay_per_step,
                lr_scale=config.replay_lr_scale,
                seed=self._lane_seed(tenant))
        lane = TenantLane(tenant, config, manager,
                          make_encoder(config.encoder, config.vocab_size,
                                       config.granularity), replay)
        if self._fleet is not None:
            lane.adopt(self._fleet)
        if config.record_checksums:
            lane.checksum_history.append(lane.serving_checksum(self._fleet))
        return lane


def _percentiles_ms(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "n": 0.0}
    arr = np.asarray(values, dtype=float) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p99_ms": float(np.percentile(arr, 99)),
        "n": float(arr.size),
    }


def replay_lockstep(service: PrefetchService,
                    events: Iterable[tuple[int, int, int]], *,
                    query_each: bool = True) -> list[list[int]]:
    """Single-threaded deterministic replay of a recorded miss stream.

    Drives the service's own round functions in the canonical order —
    stage, drain the trainer, finish, answer — which serializes the
    concurrent pipeline into exactly the offline
    ``CLSPrefetcher._ingest``/``_predict`` operation order.  The
    differential suite feeds the same stream to ``simulate()`` and
    asserts the answers, learned weights, and confidence EMA are
    bit-identical.

    ``events`` yields ``(tenant, address, timestamp)``; returns one
    answer (prefetch-page list) per event when ``query_each``.
    """
    answers: list[list[int]] = []
    for tenant, address, timestamp in events:
        service.submit_miss(tenant, address, timestamp)
        service.serve_once()            # stage
        while service.train_once():     # drain background training
            pass
        service.serve_once()            # finish
        if query_each:
            ticket = service.query(tenant)
            service.serve_once()        # answer
            if not ticket.done or ticket.pages is None:
                raise RuntimeError("lockstep query left unanswered")
            answers.append(list(ticket.pages))
    return answers
