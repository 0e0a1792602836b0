"""Swap differential: the copy-free hot swap against the full-copy one.

The daemon's §5.5 hot swap used to hand the fleet slot back into the
live network (``release_lane``), fork a fresh shadow with ``clone()``,
and adopt the promoted network into the slot again (``acquire_lane``):
three whole-block weight copies and two allocations per swap.  It now
exchanges the live and shadow roles and copies only the readout columns
the shadow trained, into the old live network and into the fleet slot.

This suite keeps the old swap as a test-only oracle and runs both under
the seeded virtual scheduler, mixing natural (confidence-EMA) swaps,
``swap_on_query`` forced swaps and a ``poison_after_trains`` rejection,
in stacked and scalar serving.  After every swap the fleet slot, the
live and the shadow weights must be bitwise equal, and the whole run —
answers, serving checksums, counters and final weights — must match
the oracle's.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest

from repro.core.availability import weights_finite
from repro.nn.hebbian_fleet import HebbianFleet
from repro.serve import (FaultPlan, PrefetchService, ServeConfig,
                         replay_lockstep)
from repro.serve.clock import Clock, VirtualClock
from repro.serve.loop import VirtualScheduler
from repro.serve.service import TenantLane
from repro.serve.faults import poison_weights
from tests.core.test_swap_sync import _poison_by_learn, _poison_by_punish

VOCAB = 64
TENANTS = 3


def _full_copy_swap(self: TenantLane, fleet: HebbianFleet | None,  # repro-lint: zone=oracle
                    clock: Clock) -> None:
    """The release → clone → acquire hot swap, verbatim in effect.

    Installed in place of ``TenantLane._swap_locked``, so it writes the
    lane's (and its manager's) state as that method does."""
    manager = self.manager
    if not bool(np.isfinite(manager.shadow.w_out).all()):
        manager.shadow = manager.live.clone()
        manager._staleness = 0
        self.swaps_rejected += 1
        return
    start = clock.now()
    if fleet is not None:
        fleet.release_lane(self.slot, self.live_net())
    manager.live = manager.shadow
    manager.shadow = manager.live.clone()
    manager.redeploys += 1
    manager._staleness = 0
    manager.confidence_ema = max(manager.confidence_ema,
                                 manager.redeploy_below)
    manager.live.reset_state()
    if fleet is not None:
        self.slot = fleet.acquire_lane(self.live_net())
    self.swap_pauses.append(clock.now() - start)
    self.swaps += 1
    if self.config.record_checksums:
        self.checksum_history.append(self.serving_checksum(fleet))


#: Both plans poison the shadow once; the service's own counter keeps it
#: to one injection across plan changes.
_FORCED = FaultPlan(swap_on_query=True, poison_after_trains=60)
_NATURAL = FaultPlan(poison_after_trains=60)


class _Client:
    """Submits a scripted miss stream, querying after every third miss.

    Forced swaps come in windows: a swap forced right before an answer
    clears the sequence state, so that answer is empty, and only the
    queries between the windows show the swapped weights at work."""

    name = "client"

    def __init__(self, service: PrefetchService, n: int) -> None:
        self.service = service
        self.n = n
        self.cursor = 0
        self.tickets: list[Any] = []

    def step(self) -> bool:
        i = self.cursor
        if i >= self.n:
            return False
        self.cursor += 1
        tenant = i % TENANTS
        self.service.faults = _FORCED if (i // 40) % 2 else _NATURAL
        self.service.submit_miss(
            tenant, 4096 * (64 * tenant + (3 * (i // TENANTS)) % 40), i)
        if i % 3 == 2:
            self.tickets.append(self.service.query(tenant))
        return True


def _run(stacked: bool, seed: int) -> dict[str, Any]:
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, record_checksums=True,
                    stacked=stacked, max_staleness=16, seed=seed),
        clock=VirtualClock())
    client = _Client(service, 360)
    scheduler = VirtualScheduler(service.clock, seed=seed)
    scheduler.add(client)
    for actor in service.actors():
        scheduler.add(actor)
    scheduler.run_until_idle(max_steps=500_000)
    lanes = [service.lane(t) for t in range(TENANTS)]
    return {
        "answers": [(t.tenant, t.pages) for t in client.tickets],
        "checksums": [t.checksum for t in client.tickets],
        "counters": service.counters(),
        "trace": scheduler.trace,
        "lanes": [(lane.checksum_history, lane.swaps, lane.swaps_rejected,
                   lane.manager.redeploys, lane.manager.staleness,
                   lane.manager.confidence_ema, lane.accuracy_ema,
                   lane.live_net().w_out.tobytes(),
                   lane.manager.shadow.w_out.tobytes())
                  for lane in lanes],
    }


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "scalar"])
def test_copy_free_swap_matches_full_copy_oracle(
        stacked: bool, seed: int, monkeypatch: pytest.MonkeyPatch) -> None:
    swap = TenantLane._swap_locked
    checked = 0

    def checked_swap(self: TenantLane, fleet: HebbianFleet | None,
                     clock: Clock) -> None:
        nonlocal checked
        swap(self, fleet, clock)
        live = self.live_net().w_out.tobytes()
        assert self.manager.shadow.w_out.tobytes() == live
        if fleet is not None:
            assert fleet.w_out[self.slot].tobytes() == live
        checked += 1

    monkeypatch.setattr(TenantLane, "_swap_locked", checked_swap)
    copy_free = _run(stacked, seed)
    monkeypatch.setattr(TenantLane, "_swap_locked", _full_copy_swap)
    oracle = _run(stacked, seed)

    counters = copy_free["counters"]
    # The mix the suite promises: forced swaps, natural swaps on top of
    # them, and a rejected poisoned shadow.
    assert counters["forced_swaps"] > 0
    assert counters["swaps"] > counters["forced_swaps"]
    assert counters["poison_injected"] == 1
    assert counters["swaps_rejected"] >= 1
    assert sum(1 for _, pages in copy_free["answers"] if pages) > 10
    assert checked == counters["swaps"] + counters["swaps_rejected"]
    for key in ("trace", "counters", "answers", "checksums"):
        assert copy_free[key] == oracle[key], key
    for tenant, (mine, theirs) in enumerate(zip(copy_free["lanes"],
                                                oracle["lanes"])):
        assert mine == theirs, f"tenant {tenant} diverged from the oracle"


@pytest.mark.parametrize("poison", [poison_weights, _poison_by_learn,
                                    _poison_by_punish],
                         ids=["setter", "learn", "punish"])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "scalar"])
def test_poisoned_shadow_is_rejected_at_admission(stacked: bool,
                                                  poison: Any) -> None:
    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, stacked=stacked, seed=4),
        clock=VirtualClock())
    replay_lockstep(service, [(0, 4096 * (3 * i % 40), i)
                              for i in range(30)], query_each=False)
    lane = service.lane(0)
    served = lane.serving_checksum(service._fleet)
    poison(lane.manager.shadow)
    assert not weights_finite(lane.manager.shadow)
    lane.force_swap(service._fleet, service.clock)
    assert lane.swaps_rejected == 1
    assert lane.serving_checksum(service._fleet) == served
    live = lane.live_net().w_out
    assert weights_finite(lane.manager.live)
    assert lane.manager.shadow.w_out.tobytes() == live.tobytes()
