"""Stacked Hebbian stepping for groups of CLS lanes in a fleet cohort.

:class:`CLSFleetGroup` is the bridge between the cohort engine
(``memsim/fleet.py``) and the tenant-axis batched network
(``nn/hebbian_fleet.py``): same-config CLS lanes adopt their models into
one :class:`~repro.nn.hebbian_fleet.HebbianFleet` and, at each cohort
round, every stalled lane's miss flows through **one** stacked
step/replay/rollout call per group instead of L scalar
``on_miss_fast`` calls.

Bit-identity contract — the per-lane work is :class:`CLSPrefetcher`'s
own miss stages, called in :meth:`CLSPrefetcher.on_miss_fast`'s order;
only the model calls are stacked.  The phases preserve every within-lane
ordering (cross-lane order is free: lanes share no mutable state, and
the prototype's memo caches are pure memoization over fixed structures):

* **Phase A (observe, per lane)** — the miss counter, then
  ``CLSPrefetcher._observe``: encode, phase, score and accuracy EMA,
  train decision, episode record, recall store.
* **Phase B (stacked step)** — one ``HebbianFleet.step_lanes`` call
  replaces the model step of ``CLSPrefetcher._learn_and_advance``
  (rollout mode, no availability manager).
* **Phase C (stacked replay)** — the rest of ``_learn_and_advance``:
  the trained-step count, with ``ReplayScheduler.select_pairs`` drawing
  each lane's episodes (same RNG stream, same counters as
  ``scheduler.step``) and one ``train_pairs_lanes`` call applying them.
* **Phase D (commit, per lane)** — the stepped probs, then
  ``CLSPrefetcher._commit`` (history push, previous class).
* **Phase E (stacked predict)** — ``CLSPrefetcher._gated`` per lane, one
  ``rollout_lanes`` call for the survivors, then each lane's
  ``CLSPrefetcher._decode_rollout``.

Eligibility is decided by :meth:`CLSPrefetcher.fleet_steppable` and
grouping by :meth:`CLSPrefetcher.fleet_group_key`; ineligible lanes
keep the scalar per-miss path in the cohort.
"""

from __future__ import annotations

from ..nn.hebbian import SparseHebbianNetwork
from ..nn.hebbian_fleet import HebbianFleet
from .cls_prefetcher import CLSPrefetcher

__all__ = ["CLSFleetGroup"]


class CLSFleetGroup:
    """Same-config CLS lanes stepped through one :class:`HebbianFleet`.

    Members adopt their live networks into fleet slots (:meth:`adopt`)
    and take them back, bit-identical, when their lane finishes
    (:meth:`release`); in between, :meth:`handle_misses` drives each
    cohort round's stalled-lane misses through the stacked path.
    """

    def __init__(self, prefetcher: CLSPrefetcher,
                 capacity: int = 16) -> None:
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        # The prototype contributes only fixed structures and memo
        # caches (reserve mode never reads its weights), so the first
        # member's model serves as-is.
        self._fleet = HebbianFleet(model, max(capacity, 1), reserve=True)
        self._members: dict[int, CLSPrefetcher] = {}

    def adopt(self, prefetcher: CLSPrefetcher) -> int:
        """Move a lane's model into the fleet; returns its slot."""
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        slot = self._fleet.acquire_lane(model)
        self._members[slot] = prefetcher
        return slot

    def release(self, slot: int, prefetcher: CLSPrefetcher) -> None:
        """Hand the slot's state back to the lane's own model."""
        model = prefetcher.model
        assert isinstance(model, SparseHebbianNetwork)
        self._fleet.release_lane(slot, model)
        del self._members[slot]

    def handle_misses(self, slots: list[int], addresses: list[int],
                      pages: list[int],
                      timestamps: list[int]) -> list[list[int]]:
        """One cohort round of misses, stacked; returns per-lane pages.

        ``slots[i]`` missed on ``addresses[i]`` (page ``pages[i]``) at
        ``timestamps[i]``; the result row ``i`` equals what
        ``on_miss_fast`` would have returned for that lane.
        """
        n = len(slots)
        results: list[list[int]] = [[] for _ in range(n)]
        fleet = self._fleet
        members = self._members

        # Phase A — CLSPrefetcher._observe per lane.
        live: list[int] = []
        lanes: list[int] = []
        classes: list[int] = []
        trains: list[bool] = []
        phases: list[int] = []
        for row in range(n):
            p = members[slots[row]]
            p.stats.misses_seen += 1
            staged = p._observe(addresses[row], timestamps[row])
            if staged is None:
                continue  # scalar: _ingest returns None -> []
            class_id, train, phase, _ = staged
            live.append(row)
            lanes.append(slots[row])
            classes.append(class_id)
            trains.append(train)
            phases.append(phase)
        if not live:
            return results

        # Phase B — the stacked model step.
        probs = fleet.step_lanes(lanes, classes, trains)

        # Phase C — trained-step bookkeeping and stacked replay.
        replay_lanes: list[int] = []
        replay_pairs: list[list[tuple[int, int]]] = []
        replay_scales: list[float] = []
        for i, row in enumerate(live):
            if not trains[i]:
                continue
            p = members[slots[row]]
            p.stats.trained_steps += 1
            scheduler = p.scheduler
            if scheduler is None:
                continue
            phase = phases[i]
            pairs = scheduler.select_pairs(phase if phase >= 0 else None)
            p.stats.replayed_pairs += len(pairs)
            if pairs:
                replay_lanes.append(lanes[i])
                replay_pairs.append(pairs)
                replay_scales.append(scheduler.lr_scale)
        if replay_lanes:
            fleet.train_pairs_lanes(replay_lanes, replay_pairs,
                                    replay_scales)

        # Phase D — CLSPrefetcher._commit per lane.
        for i, row in enumerate(live):
            p = members[slots[row]]
            p._last_probs = probs[i]
            p._commit(classes[i], addresses[row], timestamps[row])

        # Phase E — the accuracy gate, one stacked rollout, and
        # CLSPrefetcher._decode_rollout per surviving lane.
        roll_rows: list[int] = []
        roll_lanes: list[int] = []
        widths: list[int] = []
        lengths: list[int] = []
        for i, row in enumerate(live):
            p = members[slots[row]]
            if p._gated():
                continue
            roll_rows.append(row)
            roll_lanes.append(lanes[i])
            widths.append(p._width)
            lengths.append(p._length)
        if roll_rows:
            rollouts = fleet.rollout_lanes(roll_lanes, widths, lengths)
            for row, rollout in zip(roll_rows, rollouts):
                p = members[slots[row]]
                results[row] = p._decode_rollout(addresses[row],
                                                 pages[row], rollout)
        return results
