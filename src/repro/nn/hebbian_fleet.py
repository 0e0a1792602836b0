"""Tenant-axis batched Hebbian stepping for fleets of learners.

:class:`HebbianFleet` stacks T independent copies of one
:class:`~repro.nn.hebbian.SparseHebbianNetwork` prototype into a single
lane-major weight tensor and advances *all* lanes per vectorized
operation.  The fixed structures — projection masks, CSR index lists,
the hidden-code memo, and the Eq. 1 delta cache — are shared with the
prototype (they are identical across lanes by construction), so the
per-step work that remains per lane is exactly the learned-weight
arithmetic:

* **Batched learn** — every lane's Eq. 1 column update (and the
  error-driven punish term) lands in a disjoint block of the flat weight
  tensor, so the whole fleet applies as one ``learn_apply`` /
  ``punish_apply`` call per step.
* **Batched readout** — the per-lane connected-entry gathers concatenate
  into one ``bincount`` (or one ``rk_readout_sparse`` call) over a
  ``T * vocab`` accumulator, reshaped to per-lane score rows.
* **Batched softmax** — one row-wise max-shifted softmax over the
  ``(T, vocab)`` score matrix.

Every batched path is bit-identical to T independent networks stepping
the same class streams (``tests/nn/test_hebbian_fleet.py`` pins this per
backend): lane blocks are disjoint so the update order across lanes
cannot matter, the shared caches are pure memoization over fixed
structures, and the row softmax performs the same elementwise
arithmetic as the scalar one.

Beyond the lockstep ``step_all``, the fleet exposes the *subset* entry
points the cohort miss path needs (only the lanes that missed this
cohort round advance):

* ``acquire_lane``/``release_lane`` adopt a live scalar network into a
  fleet slot and hand its (bit-identical) state back out, so lanes can
  join and leave mid-run as cohort lanes drain and refill.
* ``refresh_lane`` brings a slot up to date after its network took a
  §5.5 hot swap, copying only the weight columns the swap changed.
* ``step_lanes`` steps an arbitrary lane subset with per-lane train
  flags — the batched mirror of ``SparseHebbianNetwork.step``.
* ``train_pairs_lanes`` replays per-lane episode batches — the batched
  mirror of ``train_pairs`` (round-barriered so in-lane pair order is
  preserved exactly).
* ``rollout_lanes`` runs per-lane beam rollouts with one batched
  readout per depth — the mirror of ``predict_rollout``.

Adopted networks may come from *different* :class:`SparseHebbianNetwork`
instances built from an equal config: the fixed structures are then
value-identical (construction is seeded by the config) even though the
cache dicts differ.  The hidden-code memo is content-keyed, and every
id-keyed cache miss (delta, readout indices) falls back to the same
arithmetic it would have cached, so adoption preserves bit-identity.

Out of scope (both raise at construction): ``plastic_hidden`` lanes
diverge in their *fixed* projections, and the ``int8`` serving mirror
would need a per-lane quantized shadow.
"""

from __future__ import annotations

import numpy as np

from .backends import hebbian_kernels
from .hebbian import (
    SparseHebbianNetwork,
    _select_topk,
    apply_learn,
    apply_punish,
    copy_columns,
)

__all__ = ["HebbianFleet"]


class HebbianFleet:
    """T lanes of one Hebbian prototype, stepped in lockstep.

    Each lane starts from the prototype's *current* learned weights and
    then learns independently.  ``step_all`` is the batched equivalent
    of calling ``step`` on T independent clones with one class per lane.

    With ``reserve=True`` the fleet starts *empty* — every slot is free
    and lanes enter via :meth:`acquire_lane` (the cohort drain/refill
    shape); the prototype then contributes only its fixed structures,
    never its weights.
    """

    def __init__(self, prototype: SparseHebbianNetwork,
                 n_lanes: int, reserve: bool = False) -> None:
        if n_lanes <= 0:
            raise ValueError("n_lanes must be positive")
        config = prototype.config
        if config.plastic_hidden:
            raise ValueError(
                "HebbianFleet requires fixed hidden projections "
                "(plastic_hidden lanes diverge structurally)")
        if prototype._backend == "int8":
            raise ValueError(
                "HebbianFleet does not support the int8 serving mirror")
        self.prototype = prototype
        self.n_lanes = n_lanes
        self.vocab_size = config.vocab_size
        self.hidden_dim = config.hidden_dim
        self._block = self.hidden_dim * self.vocab_size
        # Lane-major stacked weights; the flat alias is what every
        # batched update and readout indexes with +t*block offsets.
        if reserve:
            self.w_out = np.zeros((n_lanes,) + prototype.w_out.shape)
        else:
            self.w_out = np.broadcast_to(
                prototype.w_out, (n_lanes,) + prototype.w_out.shape).copy()
        self._w_flat = self.w_out.reshape(-1)
        # A second kernel bundle over the widened T*vocab accumulator;
        # learn/punish are vocab-independent so it serves those too.
        self._kern = None
        if prototype._kern is not None:
            self._kern = hebbian_kernels(
                prototype._backend, rec_pad=prototype._rec_pad,
                hidden_dim=self.hidden_dim,
                vocab_size=n_lanes * self.vocab_size)
        self._prev_class: list[int | None] = [None] * n_lanes
        self._prev_active: list[np.ndarray | None] = [None] * n_lanes
        self._prev_pred: list[int | None] = [None] * n_lanes
        self._last_active: list[np.ndarray | None] = [None] * n_lanes
        # Per-lane rollout anchors (the scalar net's ``_last_scores`` /
        # ``_last_probs``), stored as rows so subset steps update only
        # their own lanes.  ``_has_last[t]`` distinguishes "never
        # stepped" (scalar: ``_last_scores is None``) from a zero row.
        self._scores_rows = np.zeros((n_lanes, self.vocab_size))
        self._probs_rows = np.zeros((n_lanes, self.vocab_size))
        self._has_last = [False] * n_lanes
        # Lanes continue the prototype's training history, as clones do.
        self.train_steps = np.full(
            n_lanes, 0 if reserve else prototype.train_steps, dtype=np.int64)
        self._free: list[int] = list(range(n_lanes - 1, -1, -1)) if reserve \
            else []

    # ------------------------------------------------------------------
    # Lane adoption (cohort drain/refill)
    # ------------------------------------------------------------------
    def acquire_lane(self, net: SparseHebbianNetwork) -> int:
        """Adopt a live scalar network into a fleet slot; returns it.

        The fleet takes over stepping: the slot carries the network's
        learned weights, sequence context, and rollout anchor, so
        subsequent ``step_lanes`` calls continue it bit-identically.
        ``net`` itself is left untouched until :meth:`release_lane`
        hands the state back.
        """
        if net.config != self.prototype.config:
            raise ValueError("adopted network's config differs from the "
                             "fleet prototype's")
        if not self._free:
            self._grow(self.n_lanes + 1)
        t = self._free.pop()
        self.w_out[t] = net.w_out
        self._prev_class[t] = net._prev_class
        self._prev_active[t] = net._prev_active
        self._prev_pred[t] = net._prev_pred
        self._last_active[t] = net._last_active
        if net._last_scores is not None:
            self._scores_rows[t] = net._last_scores
            probs = net._last_probs
            if probs is None:
                probs = net.probabilities(net._last_scores.copy())
            self._probs_rows[t] = probs
            self._has_last[t] = True
        else:
            self._has_last[t] = False
        self.train_steps[t] = net.train_steps
        return t

    def release_lane(self, lane: int, net: SparseHebbianNetwork) -> None:
        """Hand a slot's state back to ``net`` and free the slot."""
        self._restore_into(net, lane)
        self._clear_sequence(lane)
        self._free.append(lane)

    def refresh_lane(self, lane: int, net: SparseHebbianNetwork,
                     columns: np.ndarray) -> None:
        """Bring a slot up to date with ``net`` after a §5.5 hot swap.

        Copies only ``columns`` — the mask the swap's ``sync_from``
        returned, in which ``net`` differs from the slot — and clears
        the slot's sequence context: the end state of ``release_lane``,
        ``net.reset_state()`` and ``acquire_lane``, without whole-block
        copies.
        """
        copy_columns(self.w_out[lane], net.w_out, columns)
        self._clear_sequence(lane)
        self.train_steps[lane] = net.train_steps

    def _clear_sequence(self, lane: int) -> None:
        self._prev_class[lane] = None
        self._prev_active[lane] = None
        self._prev_pred[lane] = None
        self._last_active[lane] = None
        self._has_last[lane] = False

    def _restore_into(self, net: SparseHebbianNetwork, lane: int) -> None:
        """Install lane ``lane``'s weights and sequence state in ``net``."""
        has_last = self._has_last[lane]
        net.restore_state(
            w_out=self.w_out[lane].copy(),
            prev_class=self._prev_class[lane],
            prev_active=self._prev_active[lane],
            prev_pred=self._prev_pred[lane],
            last_active=self._last_active[lane],
            last_scores=self._scores_rows[lane].copy() if has_last else None,
            last_probs=self._probs_rows[lane].copy() if has_last else None,
            train_steps=int(self.train_steps[lane]))

    def _grow(self, min_capacity: int) -> None:
        """Double capacity (at least to ``min_capacity``); existing lane
        state is preserved, new slots join the free list."""
        old = self.n_lanes
        new = max(old * 2, min_capacity)
        w_out = np.zeros((new,) + self.w_out.shape[1:])
        w_out[:old] = self.w_out
        self.w_out = w_out
        self._w_flat = self.w_out.reshape(-1)
        if self._kern is not None:
            self._kern = hebbian_kernels(
                self.prototype._backend, rec_pad=self.prototype._rec_pad,
                hidden_dim=self.hidden_dim,
                vocab_size=new * self.vocab_size)
        grown = new - old
        self._prev_class.extend([None] * grown)
        self._prev_active.extend([None] * grown)
        self._prev_pred.extend([None] * grown)
        self._last_active.extend([None] * grown)
        self._scores_rows = np.vstack(
            [self._scores_rows, np.zeros((grown, self.vocab_size))])
        self._probs_rows = np.vstack(
            [self._probs_rows, np.zeros((grown, self.vocab_size))])
        self._has_last.extend([False] * grown)
        self.train_steps = np.concatenate(
            [self.train_steps, np.zeros(grown, dtype=np.int64)])
        self._free.extend(range(new - 1, old - 1, -1))
        self.n_lanes = new

    # ------------------------------------------------------------------
    # The batched step
    # ------------------------------------------------------------------
    def step_all(self, classes: list[int] | np.ndarray, train: bool = True,
                 lr_scale: float = 1.0) -> np.ndarray:
        """Advance every lane one step; returns ``(T, vocab)`` probs.

        Lane ``t`` consumes ``classes[t]``.  Equivalent, bit for bit, to
        ``net_t.step(classes[t], train, lr_scale)`` on T independent
        networks.
        """
        if len(classes) != self.n_lanes:
            raise ValueError(
                f"expected {self.n_lanes} classes, got {len(classes)}")
        lanes = list(range(self.n_lanes))
        return self.step_lanes(lanes, classes,
                               [train] * self.n_lanes, lr_scale)

    def step_lanes(self, lanes: list[int],
                   classes: list[int] | np.ndarray,
                   train: list[bool], lr_scale: float = 1.0) -> np.ndarray:
        """Advance a lane *subset* one step; returns ``(L, vocab)`` probs.

        Row ``i`` of the result is lane ``lanes[i]`` consuming
        ``classes[i]`` with its own train flag — the batched mirror of
        per-lane ``step(classes[i], train[i], lr_scale)`` calls, bit for
        bit (learn order across lanes is free: disjoint weight blocks).
        """
        proto = self.prototype
        config = proto.config
        cls = [int(c) for c in classes]
        for input_class in cls:
            if not 0 <= input_class < self.vocab_size:
                raise ValueError(
                    f"class {input_class} outside vocab "
                    f"[0, {self.vocab_size})")
        trained = [(t, c) for t, c, flag in zip(lanes, cls, train)
                   if flag and self._prev_active[t] is not None]
        if trained:
            self._learn_lanes(trained, lr_scale)
            for t, _ in trained:
                self.train_steps[t] += 1

        actives = [proto.hidden_code(input_class, self._prev_active[t])
                   for t, input_class in zip(lanes, cls)]
        scores = self._readout_lanes(lanes, actives)
        probs = self._probabilities_rows(scores)

        punish = config.punish_wrong
        arg = scores.argmax(axis=1) if punish else None
        for i, (t, input_class) in enumerate(zip(lanes, cls)):
            self._prev_class[t] = input_class
            self._prev_active[t] = actives[i]
            self._prev_pred[t] = int(arg[i]) if punish else None
            self._last_active[t] = actives[i]
            self._has_last[t] = True
        idx = np.asarray(lanes, dtype=np.intp)
        self._scores_rows[idx] = scores
        self._probs_rows[idx] = probs
        return probs

    def _learn_lanes(self, trained: list[tuple[int, int]],
                     lr_scale: float) -> None:
        """One fused Eq. 1 (+punish) application across trained lanes.

        Per-lane offsets live in disjoint ``t * block`` ranges and a
        lane's target and punished columns are distinct, so applying all
        potentiation/depression updates, then all punish updates, equals
        the scalar per-lane interleaving.
        """
        proto = self.prototype
        config = proto.config
        lr = config.lr * lr_scale
        wm = config.weight_max
        vocab = self.vocab_size
        flats: list[np.ndarray] = []
        deltas: list[np.ndarray] = []
        punish_flats: list[np.ndarray] = []
        for t, target in trained:
            prev_active = self._prev_active[t]
            offset = t * self._block
            flats.append(proto._out_flat[target] + offset)
            deltas.append(proto._column_delta(prev_active, target, lr_scale))
            predicted = self._prev_pred[t]
            if (config.punish_wrong and predicted is not None
                    and predicted != target):
                wrong = prev_active[proto.mask_out[prev_active, predicted]]
                if wrong.size:
                    punish_flats.append(
                        wrong * vocab + predicted + offset)
        if flats:
            apply_learn(self._kern, self._w_flat, np.concatenate(flats),
                        np.concatenate(deltas), wm)
        if punish_flats:
            apply_punish(self._kern, self._w_flat,
                         np.concatenate(punish_flats), lr, wm)

    def _readout_lanes(self, lanes: list[int],
                       actives: list[np.ndarray]) -> np.ndarray:
        """(L, vocab) scores via one concatenated sparse accumulation.

        Flat weight offsets use the *global* lane index (each lane's
        block), accumulator columns the *subset-local* row, so an
        L-lane readout costs O(L), not O(capacity).
        """
        vocab = self.vocab_size
        n = len(lanes)
        flats: list[np.ndarray] = []
        cols_list: list[np.ndarray] = []
        dense_rows: list[int] = []
        for i, (t, active) in enumerate(zip(lanes, actives)):
            entry = self.prototype._readout_entry(active)
            if entry is None:
                dense_rows.append(i)
                continue
            cols, flat = entry
            flats.append(flat + t * self._block)
            cols_list.append(cols + i * vocab)
        if flats:
            flat_all = np.concatenate(flats)
            cols_all = np.concatenate(cols_list)
            if self._kern is not None:
                # The widened bundle's accumulator spans capacity*vocab;
                # every column index is < L*vocab, so the live scores
                # are the leading slice.
                scores = self._kern.readout_sparse(
                    self._w_flat, flat_all, cols_all)[:n * vocab]
            else:
                scores = np.bincount(cols_all,
                                     weights=self._w_flat.take(flat_all),
                                     minlength=n * vocab)
            scores = scores.reshape(n, vocab)
        else:
            scores = np.zeros((n, vocab))
        for i in dense_rows:
            scores[i] = np.add.reduce(
                self.w_out[lanes[i]].take(actives[i], axis=0), axis=0)
        return scores

    def _probabilities_rows(self, scores: np.ndarray) -> np.ndarray:
        """Row-wise max-shifted softmax, same arithmetic as the scalar
        :meth:`SparseHebbianNetwork.probabilities` per row."""
        x = scores / self.prototype._temperature
        x -= x.max(axis=1, keepdims=True)
        np.exp(x, out=x)
        x /= x.sum(axis=1, keepdims=True)
        return x

    # ------------------------------------------------------------------
    # Batched replay training (the ReplayScheduler mirror)
    # ------------------------------------------------------------------
    def train_pairs_lanes(self, lanes: list[int],
                          pairs_per_lane: list[list[tuple[int, int]]],
                          lr_scales: list[float]) -> None:
        """Replay-train each lane on its own pair batch, batched.

        The batched mirror of per-lane
        ``train_pairs(pairs_per_lane[i], lr_scales[i])`` calls.  Rounds
        are barriers: round ``j`` consumes the ``j``-th pair of every
        lane that has one, so in-lane pair order (which matters for
        duplicate targets and for punish_wrong's pre-update readout) is
        preserved exactly, while cross-lane updates merge freely into
        one ``learn_apply``/``punish_apply`` (disjoint weight blocks).
        Like the scalar ``train_pairs``, this never touches
        ``train_steps`` or the lanes' sequence context.
        """
        proto = self.prototype
        config = proto.config
        punish = config.punish_wrong
        wm = config.weight_max
        vocab = self.vocab_size
        for pairs in pairs_per_lane:
            for input_class, target_class in pairs:
                proto._check_class(input_class)
                proto._check_class(target_class)
        depth = max((len(p) for p in pairs_per_lane), default=0)
        for j in range(depth):
            live = [i for i, pairs in enumerate(pairs_per_lane)
                    if len(pairs) > j]
            actives = [proto.hidden_code(pairs_per_lane[i][j][0], None)
                       for i in live]
            predicted: list[int | None] = [None] * len(live)
            if punish:
                # train_pair reads out (and argmaxes) *before* learning;
                # the softmax confidence it computes is discarded and
                # writes no state, so it is skipped here.
                sub = [lanes[i] for i in live]
                scores = self._readout_lanes(sub, actives)
                arg = scores.argmax(axis=1)
                predicted = [int(a) for a in arg]
            flats: list[np.ndarray] = []
            deltas: list[np.ndarray] = []
            punish_flats: list[np.ndarray] = []
            punish_lrs: list[float] = []
            for row, i in enumerate(live):
                t = lanes[i]
                target = pairs_per_lane[i][j][1]
                active = actives[row]
                offset = t * self._block
                flats.append(proto._out_flat[target] + offset)
                deltas.append(
                    proto._column_delta(active, target, lr_scales[i]))
                pred = predicted[row]
                if punish and pred is not None and pred != target:
                    wrong = active[proto.mask_out[active, pred]]
                    if wrong.size:
                        punish_flats.append(wrong * vocab + pred + offset)
                        punish_lrs.append(config.lr * lr_scales[i])
            if flats:
                apply_learn(self._kern, self._w_flat, np.concatenate(flats),
                            np.concatenate(deltas), wm)
            # punish_apply takes one scalar lr; group by value so mixed
            # per-lane lr_scales still fuse per group.
            by_lr: dict[float, list[np.ndarray]] = {}
            for arr, plr in zip(punish_flats, punish_lrs):
                by_lr.setdefault(plr, []).append(arr)
            for plr, arrs in by_lr.items():
                apply_punish(self._kern, self._w_flat, np.concatenate(arrs),
                             plr, wm)

    # ------------------------------------------------------------------
    # Batched beam rollout (the predict_rollout mirror)
    # ------------------------------------------------------------------
    def rollout_lanes(self, lanes: list[int], widths: list[int],
                      lengths: list[int]
                      ) -> list[list[list[tuple[int, float]]]]:
        """Per-lane beam rollouts with one batched readout per depth.

        Result ``i`` equals ``lane_network(lanes[i]).predict_rollout(
        widths[i], lengths[i])`` bit for bit: selection reuses the
        scalar branch code verbatim, lanes whose beam is exhausted drop
        out *before* the next readout (the scalar early ``break``), and
        never-stepped lanes return ``[]``.
        """
        proto = self.prototype
        out: list[list[list[tuple[int, float]]]] = [[] for _ in lanes]
        live: list[int] = []      # indices into ``lanes``
        actives: list[np.ndarray] = []
        remaining: list[int] = []
        probs_rows: list[np.ndarray] = []
        for i, t in enumerate(lanes):
            if not self._has_last[t] or lengths[i] < 1:
                continue
            live.append(i)
            actives.append(self._last_active[t])
            remaining.append(lengths[i] - 1)
            probs_rows.append(self._probs_rows[t])
        while live:
            survivors: list[int] = []
            for row, i in enumerate(live):
                step = _select_topk(probs_rows[row], widths[i])
                out[i].append(step)
                if remaining[row]:
                    survivors.append(row)
            if not survivors:
                break
            live = [live[r] for r in survivors]
            actives = [proto.hidden_code(out[live_i][-1][0][0], actives[r])
                       for r, live_i in zip(survivors, live)]
            remaining = [remaining[r] - 1 for r in survivors]
            sub = [lanes[i] for i in live]
            scores = self._readout_lanes(sub, actives)
            probs = self._probabilities_rows(scores)
            probs_rows = [probs[r] for r in range(len(live))]
        return out

    # ------------------------------------------------------------------
    # Lane extraction
    # ------------------------------------------------------------------
    def lane_weights(self, lane: int) -> np.ndarray:
        """Lane ``lane``'s learned-weight block, as a read-only view.

        The serving layer checksums this to prove a query was answered
        from exactly one deployed weight snapshot (never a torn mix);
        a view keeps that check allocation-free.  Callers must not
        write through it — mutation goes through ``step_lanes`` /
        ``acquire_lane``.
        """
        view = self.w_out[lane]
        view.flags.writeable = False
        return view

    def lane_network(self, lane: int) -> SparseHebbianNetwork:
        """Materialize lane ``lane`` as a standalone scalar network.

        The clone shares the fixed structures with the prototype (as
        ``SparseHebbianNetwork.clone`` does) and carries the lane's
        learned weights and sequence state, so stepping it continues the
        lane bit-identically.
        """
        net = self.prototype.clone()
        self._restore_into(net, lane)
        return net
