"""The copy-free §5.5 redeploy: column sync, role exchange, admission.

``ShadowModelManager.redeploy`` no longer forks the shadow with
``clone()``: the old live object takes the shadow's weights with
``sync_from`` — only the readout columns either side wrote — and trains
on as the new shadow.  These tests pin that

- every ``w_out`` write path marks the columns it touches, so a sync
  leaves a twin pair bitwise equal (and a setter write makes it a full
  sync through the same code);
- the manager's answers and weights match the old clone-based protocol
  step for step, for both model families;
- the swap admission scan is exact: a NaN or inf anywhere — first,
  last or an unconnected entry — is rejected, whichever path wrote it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.availability import ShadowModelManager, weights_finite
from repro.nn.base import SequenceModel
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.lstm import LSTMConfig, OnlineLSTM
from repro.serve.faults import poison_weights

VOCAB = 16


def _hebbian(**overrides: object) -> SparseHebbianNetwork:
    config = dict(vocab_size=VOCAB, hidden_dim=150, seed=2)
    config.update(overrides)
    return SparseHebbianNetwork(HebbianConfig(**config))  # type: ignore[arg-type]


def _lstm() -> OnlineLSTM:
    return OnlineLSTM(LSTMConfig(vocab_size=VOCAB, embed_dim=4,
                                 hidden_dim=8, window=3, seed=0))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _synced_pair(**overrides: object
                 ) -> tuple[SparseHebbianNetwork, SparseHebbianNetwork]:
    """A twin pair with nothing pending: the first sync is a full one."""
    live = _hebbian(**overrides)
    shadow = live.clone()
    assert live.sync_from(shadow).all()
    assert not live.sync_from(shadow).any()
    return live, shadow


class TestSyncFrom:
    def test_learn_and_punish_mark_their_columns(self):
        live, shadow = _synced_pair()
        before = shadow.w_out.copy()
        shadow.train_pair(1, 2)   # all-zero scores predict 0: punishes 0
        shadow.train_pair(1, 5)   # 1 -> 2 was just learned: punishes 2
        written = np.flatnonzero((shadow.w_out != before).any(axis=0))
        changed = live.sync_from(shadow)
        assert set(written) <= set(np.flatnonzero(changed))
        assert set(np.flatnonzero(changed)) == {0, 2, 5}
        assert _same_bits(live.w_out, shadow.w_out)

    def test_vectorised_train_pairs_marks_its_columns(self):
        live, shadow = _synced_pair(punish_wrong=False)
        shadow.train_pairs([(1, 3), (4, 7), (2, 9)])
        changed = live.sync_from(shadow)
        assert set(np.flatnonzero(changed)) == {3, 7, 9}
        assert _same_bits(live.w_out, shadow.w_out)

    def test_setter_makes_the_same_sync_a_full_one(self):
        live, shadow = _synced_pair()
        w_out = shadow.w_out.copy()
        w_out[~shadow.mask_out] = 0.5   # unconnected entries too
        shadow.w_out = w_out
        assert live.sync_from(shadow).all()
        assert _same_bits(live.w_out, shadow.w_out)

    def test_target_side_writes_are_undone(self):
        live, shadow = _synced_pair()
        live.train_pair(3, 4)
        shadow.train_pair(6, 8)
        live.sync_from(shadow)
        assert _same_bits(live.w_out, shadow.w_out)

    def test_sequence_state_matches_a_clone(self):
        live, shadow = _synced_pair()
        for c in (1, 2, 3, 1, 2):
            shadow.step(c)
        live.sync_from(shadow)
        reference = shadow.clone()
        assert live._prev_class == reference._prev_class
        assert live.train_steps == reference.train_steps
        for c in (3, 1, 2):
            assert _same_bits(live.step(c, train=False),
                              reference.step(c, train=False))
        assert live.predict_rollout(2, 3) == reference.predict_rollout(2, 3)

    def test_int8_serving_mirror_follows(self):
        live, shadow = _synced_pair(backend="int8")
        for _ in range(5):
            shadow.train_pair(1, 2)
        live.sync_from(shadow)
        assert _same_bits(live._serve_w, shadow._serve_w)
        assert _same_bits(live.w_out, shadow.w_out)

    def test_plastic_input_projection_is_copied(self):
        live, shadow = _synced_pair(plastic_hidden=True)
        for c in (2, 3, 2, 3):
            shadow.step(c)
        assert not np.array_equal(live.w_in, shadow.w_in)
        live.sync_from(shadow)
        assert live.w_in is not shadow.w_in
        assert _same_bits(live.w_in, shadow.w_in)

    def test_rejects_a_different_config(self):
        with pytest.raises(ValueError):
            _hebbian().sync_from(_hebbian(seed=9))
        with pytest.raises(ValueError):
            _hebbian().sync_from(_lstm())

    def test_lstm_sync_matches_a_clone(self):
        target, source = _lstm(), _lstm()
        for c in (1, 2, 3, 1, 2, 3):
            source.step(c)
        target.sync_from(source)
        reference = source.clone()
        for key, values in reference.net.params.items():
            assert _same_bits(target.net.params[key], values)
        for c in (1, 2):
            assert _same_bits(target.step(c), reference.step(c))


@dataclass
class _CloneManager:
    """The clone-based §5.5 protocol this package used to ship: redeploy
    forks a fresh shadow from the promoted one, discard reforks from
    live."""

    live: SequenceModel
    redeploy_below: float = 0.5
    ema_alpha: float = 0.05
    max_staleness: int = 256
    confidence_ema: float = 1.0
    redeploys: int = 0
    shadow: SequenceModel = field(init=False)
    staleness: int = 0

    def __post_init__(self) -> None:
        self.shadow = self.live.clone()

    def observe(self, input_class: int, target_class: int) -> float:
        confidence = float(self.live.step(input_class, train=False)
                           [target_class])
        self.confidence_ema = ((1 - self.ema_alpha) * self.confidence_ema
                               + self.ema_alpha * confidence)
        self.shadow.train_pair(input_class, target_class)
        self.staleness += 1
        if (self.confidence_ema < self.redeploy_below
                or self.staleness >= self.max_staleness):
            self.live = self.shadow
            self.shadow = self.live.clone()
            self.redeploys += 1
            self.staleness = 0
            self.confidence_ema = max(self.confidence_ema,
                                      self.redeploy_below)
        return confidence

    def discard_shadow(self) -> None:
        self.shadow = self.live.clone()
        self.staleness = 0


def _weights(model: SequenceModel) -> list[np.ndarray]:
    if isinstance(model, SparseHebbianNetwork):
        return [model.w_out]
    assert isinstance(model, OnlineLSTM)
    return list(model.net.params.values())


@pytest.mark.parametrize("make", [_hebbian, _lstm], ids=["hebbian", "lstm"])
def test_role_exchange_matches_the_clone_protocol(make):
    manager = ShadowModelManager(make(), redeploy_below=0.6,
                                 ema_alpha=0.3, max_staleness=7)
    oracle = _CloneManager(make(), redeploy_below=0.6, ema_alpha=0.3,
                           max_staleness=7)
    rng = np.random.default_rng(5)
    stream = rng.integers(0, VOCAB, size=160).tolist()
    for i, (a, b) in enumerate(zip(stream, stream[1:])):
        assert manager.observe(a, b) == oracle.observe(a, b)
        if i % 37 == 36:
            manager.discard_shadow()
            oracle.discard_shadow()
        for mine, theirs in ((manager.live, oracle.live),
                             (manager.shadow, oracle.shadow)):
            for w, ref in zip(_weights(mine), _weights(theirs)):
                assert _same_bits(w, ref), f"diverged at step {i}"
        assert manager.confidence_ema == oracle.confidence_ema
        assert manager.staleness == oracle.staleness
    assert manager.redeploys == oracle.redeploys > 3


class TestWeightsFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "last", "unconnected"])
    def test_any_non_finite_entry_is_rejected(self, bad, where):
        model = _hebbian()
        for _ in range(5):
            model.train_pair(1, 2)
        w_out = model.w_out.copy()
        if where == "unconnected":
            index = np.flatnonzero(~model.mask_out.reshape(-1))[7]
        else:
            index = 0 if where == "first" else w_out.size - 1
        w_out.reshape(-1)[index] = bad
        model.w_out = w_out
        assert not weights_finite(model)

    def test_finite_weights_whose_sum_overflows_are_accepted(self):
        model = _hebbian()
        model.w_out = np.full(model.w_out.shape, np.finfo(np.float64).max)
        assert weights_finite(model)
        model.w_out = -model.w_out
        assert weights_finite(model)


def _poison_by_learn(model: SparseHebbianNetwork) -> None:
    model.train_pair(1, 2, lr_scale=float("nan"))


def _poison_by_punish(model: SparseHebbianNetwork) -> None:
    for _ in range(4):
        model.train_pair(1, 2)
    before = model.w_out.copy()
    model.train_pair(1, 5, lr_scale=float("nan"))
    # The wrongly predicted column took the NaN too.
    assert np.isnan(model.w_out[:, 2]).any()
    assert not np.isnan(before).any()


def _poison_by_train_pairs(model: SparseHebbianNetwork) -> None:
    model.train_pairs([(1, 2), (3, 4)], lr_scale=float("nan"))


@pytest.mark.parametrize("poison", [poison_weights, _poison_by_learn,
                                    _poison_by_punish,
                                    _poison_by_train_pairs],
                         ids=["setter", "learn", "punish", "train_pairs"])
def test_a_poisoned_shadow_is_rejected_and_resynced(poison):
    manager = ShadowModelManager(_hebbian(punish_wrong=(
        poison is not _poison_by_train_pairs)), max_staleness=10_000)
    for _ in range(3):
        manager.train_shadow(6, 7)
    manager.redeploy()
    served = manager.live.w_out.copy()
    shadow = manager.shadow
    assert isinstance(shadow, SparseHebbianNetwork)
    poison(shadow)
    assert not weights_finite(shadow)
    manager.discard_shadow()
    assert weights_finite(manager.live) and weights_finite(manager.shadow)
    assert _same_bits(manager.live.w_out, served)
    assert _same_bits(manager.shadow.w_out, served)
