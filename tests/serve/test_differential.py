"""Differential suite: the daemon, replayed single-threaded in lockstep,
is bit-identical to the offline prefetcher.

The recorded miss stream comes from a real ``simulate()`` run (cache
feedback shapes which accesses actually miss); a fresh offline
:class:`CLSPrefetcher` per tenant replays it to produce the reference,
and :func:`replay_lockstep` drives the daemon's own round functions in
the canonical stage → drain-trainer → finish → answer order.  Compared
exactly — no tolerances:

- the prefetch pages answered per miss,
- the learned live *and* shadow ``w_out``,
- the §5.5 confidence EMA and redeploy count,
- the self-monitored accuracy EMA.

Parametrized over replay on/off, so the background-replay path is held
to the same bit-identity bar, plus a synthetic two-tenant stream with no
confidence or accuracy gating, where every rollout is decoded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.hebbian import HebbianConfig
from repro.patterns.generators import PatternSpec, generate
from repro.seeding import spawn_seeds
from repro.serve import PrefetchService, ServeConfig, replay_lockstep
from repro.serve.clock import VirtualClock

VOCAB = 64
GLOBAL_SEED = 11
N_TENANTS = 3
PATTERNS = ("pointer_chase", "stride", "indirect_index")


class _RecordingPrefetcher(CLSPrefetcher):
    """Offline prefetcher that records every miss it is shown."""

    def __init__(self, config: CLSPrefetcherConfig) -> None:
        super().__init__(config)
        self.recorded: list[tuple[int, int]] = []

    def on_miss_fast(self, index: int, address: int, page: int,
                     stream_id: int, timestamp: int) -> list[int]:
        self.recorded.append((address, timestamp))
        return super().on_miss_fast(index, address, page, stream_id,
                                    timestamp)


#: Case -> (replay policy, min_confidence, min_accuracy, root seed).
CASES: dict[str, tuple[str | None, float, float, int]] = {
    "no-replay": (None, 0.01, 0.05, GLOBAL_SEED),
    "replay": ("full", 0.01, 0.05, GLOBAL_SEED),
    "synthetic": (None, 0.0, 0.0, 5),
}


def _offline_config(tenant: int, replay: str | None,
                    min_confidence: float = 0.01, min_accuracy: float = 0.05,
                    seed: int = GLOBAL_SEED) -> CLSPrefetcherConfig:
    return CLSPrefetcherConfig(
        vocab_size=VOCAB, prefetch_length=2, prefetch_width=2,
        min_confidence=min_confidence, min_accuracy=min_accuracy,
        replay_policy=replay, availability=True, phase_detection=False,
        hebbian=HebbianConfig(vocab_size=VOCAB, seed=seed),
        seed=spawn_seeds(seed, N_TENANTS)[tenant])


def _record_streams(replay: str | None
                    ) -> dict[int, list[tuple[int, int]]]:
    """Run one ``simulate()`` per tenant; return its recorded misses."""
    streams: dict[int, list[tuple[int, int]]] = {}
    for tenant in range(N_TENANTS):
        trace = generate(PATTERNS[tenant % len(PATTERNS)],
                         PatternSpec(n=600, working_set=48,
                                     element_size=4096,
                                     seed=GLOBAL_SEED + tenant))
        recorder = _RecordingPrefetcher(_offline_config(tenant, replay))
        simulate(trace, recorder, SimConfig(memory_fraction=0.5))
        streams[tenant] = recorder.recorded
    return streams


def _recorded_events(replay: str | None) -> list[tuple[int, int, int]]:
    """The recorded streams, interleaved round-robin into one feed."""
    streams = _record_streams(replay)
    events: list[tuple[int, int, int]] = []
    for step in range(max(len(s) for s in streams.values())):
        for tenant in range(N_TENANTS):
            if step < len(streams[tenant]):
                address, timestamp = streams[tenant][step]
                events.append((tenant, address, timestamp))
    return events


@pytest.mark.parametrize("case", list(CASES))
def test_lockstep_daemon_matches_offline(case: str) -> None:
    replay, min_confidence, min_accuracy, seed = CASES[case]
    if case == "synthetic":
        events = [(t, 4096 * ((i * (t + 3)) % 40), i)
                  for i in range(120) for t in range(2)]
    else:
        events = _recorded_events(replay)
    tenants = sorted({tenant for tenant, _, _ in events})

    # Fresh offline references replaying the same feed.
    refs = {t: CLSPrefetcher(_offline_config(t, replay, min_confidence,
                                             min_accuracy, seed))
            for t in tenants}
    offline: list[list[int]] = []
    for tenant, address, timestamp in events:
        offline.append(refs[tenant].on_miss_fast(
            0, address, address >> 12, 0, timestamp))

    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, prefetch_length=2, prefetch_width=2,
                    min_confidence=min_confidence, min_accuracy=min_accuracy,
                    replay_policy=replay, seed=seed),
        clock=VirtualClock())
    online = replay_lockstep(service, events)

    assert online == offline, "prefetch answers diverged from offline"
    for tenant, ref in refs.items():
        lane = service.lane(tenant)
        assert ref.manager is not None
        assert np.array_equal(lane.manager.live.w_out,
                              ref.manager.live.w_out), \
            f"tenant {tenant}: live weights diverged"
        assert np.array_equal(lane.manager.shadow.w_out,
                              ref.manager.shadow.w_out), \
            f"tenant {tenant}: shadow weights diverged"
        assert lane.manager.confidence_ema == ref.manager.confidence_ema
        assert lane.manager.redeploys == ref.manager.redeploys
        assert lane.accuracy_ema == ref.accuracy_ema
        assert lane.misses_seen == ref.stats.misses_seen
        assert lane.trained_steps == ref.stats.trained_steps
        assert lane.replayed_pairs == ref.stats.replayed_pairs
    # The daemon actually redeployed somewhere, or this test pins nothing
    # about the availability protocol.
    assert sum(service.lane(t).manager.redeploys for t in tenants) > 0


def test_lockstep_is_deterministic() -> None:
    """Same stream, same config → byte-identical manifests counters."""
    events = [(t, 4096 * ((7 * i + t) % 30), i)
              for i in range(90) for t in range(2)]

    def run() -> tuple[list[list[int]], dict[str, int]]:
        service = PrefetchService(
            ServeConfig(vocab_size=VOCAB, seed=3), clock=VirtualClock())
        return replay_lockstep(service, events), service.counters()

    first, second = run(), run()
    assert first == second
