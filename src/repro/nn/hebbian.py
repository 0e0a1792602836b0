"""The sparse Hebbian prefetch network (§3.1).

The paper's prototype: a single hidden layer of 1000 neurons with 12.5%
connectivity between layers and 10% activation sparsity (k-winner-take-all),
plus a recurrent state for sequence memory.  Learning uses the Hebbian rule
of Eq. 1 — for an active (clamped-to-target) output neuron, weights from
active inputs are increased and weights from inactive inputs decreased:

    dw_ij = (y_j != 0) * [ (x_i != 0) - (x_i == 0) ]

Mapped onto prefetching:

- The *input* is the one-hot encoded miss class (vocabulary shared with the
  LSTM baseline).
- A fixed sparse binary projection (the dentate-gyrus analogue: pattern
  separation) plus a sparse recurrent loop produce the hidden
  pre-activation; k-WTA keeps the top 10%.
- The *readout* weights to the class vocabulary are learned with Eq. 1,
  clamping the output layer to the observed next class.  An optional
  error-driven term also depresses a wrongly predicted class, which
  sharpens convergence without changing the rule's cost profile.

All learned updates touch only masked (connected) weights, and inference
touches only *active* units — this is where the order-of-magnitude op
advantage over the LSTM (Table 2) comes from.  The implementation honors
that cost profile: the projections are stored as precomputed index lists
(CSR-style), so one ``step()`` performs

- a padded gather + ``bincount`` over the ~``k * n * connectivity_rec``
  recurrent edges leaving the active set (instead of a dense
  ``(k, hidden)`` gather-and-sum),
- a per-class connected-row update of the readout column (instead of
  full ``(hidden,)`` temporaries), and
- a ``(k, vocab)`` readout gather.

Hidden codes are additionally memoized per ``(input class, context)``:
the fixed projections make the k-WTA code a pure function of those two,
and real miss streams revisit the same transitions constantly (the same
regularity the prefetcher itself exploits), so steady-state inference
skips the projection entirely.  ``repro.nn.hebbian_reference`` keeps the
original dense masked-array implementation; the kernels here are
bit-identical to it (see ``tests/nn/test_hebbian_equivalence.py``).

Default configuration: vocab 128, hidden 1000, 12.5% in/out connectivity,
1.7% recurrent connectivity — 49k connected weights, the paper's Table 2
figure for the Hebbian network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .backends import hebbian_kernels, resolve_backend
from .base import SequenceModel, evaluate_sequence_probs
from .quantization import snap_to_grid


@dataclass(frozen=True)
class HebbianConfig:
    """Sparse Hebbian network hyperparameters.

    Attributes:
        vocab_size: Number of miss classes.
        hidden_dim: Hidden-layer width (paper: 1000).
        connectivity_in: Input->hidden connection density (paper: 12.5%).
        connectivity_rec: Hidden->hidden recurrent density.
        connectivity_out: Hidden->output density (paper: 12.5%).
        activation_fraction: Fraction of hidden units active (paper: 10%).
        lr: Readout learning-rate (units of weight per update).
        negative_scale: Scale of Eq. 1's depression term (the "-1" applied
            to inactive-but-connected inputs of the clamped target).  At
            1.0 (the paper's rule) a target reached from several different
            contexts — e.g. interleaved streams — has its potentiation and
            depression cancel and never consolidates; real synapses weight
            LTD below LTP for the same reason.  0.25 keeps the
            decorrelation benefit while letting multi-context targets
            saturate.
        weight_max: Readout weights are clipped to [-weight_max, weight_max];
            bounds the scores so confidence stays meaningful and forgetting
            is possible at all.
        recurrent_strength: Scale of the (normalized) recurrent contribution
            to the hidden pre-activation.
        input_gain: Weight of the feed-forward input drive.  Kept above the
            recurrent ceiling so the active set always lies inside the
            input's connected units — the input selects the *support*,
            recurrent context selects the winners within it.  This is what
            makes hidden codes for the same class overlap heavily across
            contexts (pattern completion) while codes for different classes
            stay nearly disjoint (pattern separation).
        punish_wrong: Apply the error-driven depression of a wrong argmax.
        plastic_hidden: Also adapt input/recurrent weights Hebbian-style
            (off by default: the paper's prototype learns the readout).
        input_mode: "onehot" (one input unit per class — input weights grow
            with the vocabulary) or "signature" (each class activates
            ``signature_k`` of ``signature_dim`` input units via fixed
            random hashing).  §5.3 observes that one-hot/embedding input
            layers grow linearly with the address vocabulary; signature
            codes fix the input layer's size regardless of vocabulary,
            at the cost of rare hash collisions and weaker accuracy.
            Pair signature mode with a small ``recurrent_strength``
            (<= 0.1): the signature drive is continuous rather than a hard
            support set, so a strong recurrent term destabilizes the
            winner set instead of merely reordering it.
        signature_dim: Input units in signature mode.
        signature_k: Active input units per class in signature mode.
        seed: Mask/initialization seed.
        backend: Kernel backend for the hot paths — ``"auto"`` (prefer a
            compiled backend, fall back to numpy), ``"numpy"``,
            ``"numba"``, ``"c"``, or ``"int8"``.  All backends except
            ``int8`` are bit-identical to numpy; ``int8`` serves the
            readout from an int8-quantized weight mirror (training stays
            float64) with a per-entry score error bounded by half a
            quantization step per active row — the one accuracy-bounded
            exception to the bit-identity contract.
    """

    vocab_size: int = 128
    hidden_dim: int = 1000
    connectivity_in: float = 0.125
    connectivity_rec: float = 0.017
    connectivity_out: float = 0.125
    activation_fraction: float = 0.10
    lr: float = 1.0
    negative_scale: float = 1.0
    weight_max: float = 8.0
    recurrent_strength: float = 0.5
    input_gain: float = 2.0
    punish_wrong: bool = True
    plastic_hidden: bool = False
    input_mode: str = "onehot"
    signature_dim: int = 256
    signature_k: int = 8
    seed: int = 0
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in ("auto", "numpy", "numba", "c", "int8"):
            raise ValueError(
                "backend must be 'auto', 'numpy', 'numba', 'c' or 'int8'")
        if self.input_mode not in ("onehot", "signature"):
            raise ValueError("input_mode must be 'onehot' or 'signature'")
        if self.input_mode == "signature":
            if self.signature_k <= 0 or self.signature_k > self.signature_dim:
                raise ValueError("signature_k must be in [1, signature_dim]")
        if not 0 < self.activation_fraction <= 1:
            raise ValueError("activation_fraction must be in (0, 1]")
        for density in (self.connectivity_in, self.connectivity_rec,
                        self.connectivity_out):
            if not 0 < density <= 1:
                raise ValueError("connectivity must be in (0, 1]")
        if min(self.vocab_size, self.hidden_dim) <= 0:
            raise ValueError("dimensions must be positive")

    @property
    def k_winners(self) -> int:
        return max(1, int(round(self.hidden_dim * self.activation_fraction)))


#: Hidden-code memo entries kept before the cache is dropped and rebuilt.
_CODE_CACHE_CAP = 8192

#: Column-delta memo entries kept before that cache is dropped.  Keyed per
#: (code, target, lr_scale), so it can outgrow the code cache on its own.
_DELTA_CACHE_CAP = 65536

#: Sparse-readout index entries kept (two ~connectivity*k*V index arrays
#: per code, so the memory cap is tighter than the code cache's).
_READOUT_IDX_CAP = 4096


def _select_topk(probs: np.ndarray, width: int) -> list[tuple[int, float]]:
    """One rollout step: the top ``width`` (class, probability) pairs,
    most probable first — the scalar and fleet rollouts' shared code."""
    if width == 2 and probs.size > 2:
        # Same selection and ordering as the general branch below, with
        # the two-element argsort done as one scalar compare:
        # argsort([v0, v1]) is [0, 1] when v0 <= v1 (numpy's small sorts
        # are insertion sorts, stable on ties), so reversed descending
        # order is [1, 0] exactly then.
        part = probs.argpartition(-2)
        i0 = part.item(-2)
        i1 = part.item(-1)
        v0 = probs.item(i0)
        v1 = probs.item(i1)
        if v0 <= v1:
            return [(i1, v1), (i0, v0)]
        return [(i0, v0), (i1, v1)]
    if width < probs.size:
        # top-width selection, sorted within the slice
        part = probs.argpartition(-width)[-width:]
        vals = probs[part]
        order = vals.argsort()[::-1]
        return list(zip(part[order].tolist(), vals[order].tolist()))
    top_arr = probs.argsort()[::-1][:width]
    return list(zip(top_arr.tolist(), probs[top_arr].tolist()))


def copy_columns(dst: np.ndarray, src: np.ndarray,
                 columns: np.ndarray) -> None:
    """``dst[:, c] = src[:, c]`` for every ``c`` set in the bool mask
    ``columns`` — in place, without a temporary."""
    for c in np.flatnonzero(columns).tolist():
        dst[:, c] = src[:, c]


def apply_learn(kern: Any | None, w_flat: np.ndarray, flat: np.ndarray,
                delta: np.ndarray, wm: float) -> None:
    """Eq. 1 write: add ``delta`` at the *distinct* offsets ``flat`` and
    clip to ``[-wm, wm]``.  Distinct offsets make the compiled in-place
    kernel equal to the numpy gather-modify-scatter."""
    if kern is not None:
        kern.learn_apply(w_flat, flat, delta, wm)
        return
    vals = w_flat.take(flat)
    vals += delta
    np.minimum(vals, wm, out=vals)
    np.maximum(vals, -wm, out=vals)
    w_flat[flat] = vals


def apply_punish(kern: Any | None, w_flat: np.ndarray, flat: np.ndarray,
                 lr: float, wm: float) -> None:
    """The error-driven depression write: subtract ``lr``, clip below."""
    if kern is not None:
        kern.punish_apply(w_flat, flat, lr, wm)
        return
    wvals = w_flat.take(flat)
    wvals -= lr
    np.maximum(wvals, -wm, out=wvals)
    w_flat[flat] = wvals


class SparseHebbianNetwork:
    """Online sparse Hebbian sequence model (implements ``SequenceModel``)."""

    #: ``train_pairs`` reproduces the sequential ``train_pair`` loop bit
    #: for bit (see its docstring), so replay may batch through it.
    train_pairs_sequential_equivalent = True
    #: ``predict_rollout`` selects each step's top-width with the same
    #: ``np.argpartition(probs, -width)`` call the prefetcher's accuracy
    #: EMA uses, so the first step's membership set may be memoized and
    #: reused verbatim.  (The LSTM's full argsort can pick different
    #: members under boundary ties, so it must not set this.)
    rollout_top_argpartition = True

    def __init__(self, config: HebbianConfig = HebbianConfig()) -> None:
        self.config = config
        self.vocab_size = config.vocab_size
        # Resolve the kernel backend up front (before the first w_out
        # assignment: the setter maintains the serving mirror).  int8
        # reuses the numpy kernels but serves scores from a quantized
        # weight mirror with this fixed symmetric scale.
        self._backend = resolve_backend(config.backend, domain="nn")
        self._q_scale = config.weight_max / 127.0
        rng = np.random.default_rng(config.seed)
        v, n = config.vocab_size, config.hidden_dim
        if config.input_mode == "signature":
            # Fixed k-of-D random codes: the input layer's width is
            # signature_dim regardless of the vocabulary size (§5.3).
            in_rows = config.signature_dim
            self._signatures = np.stack([
                rng.choice(in_rows, size=config.signature_k, replace=False)
                for _ in range(v)])
        else:
            in_rows = v
            self._signatures = None
        self.mask_in = rng.random((in_rows, n)) < config.connectivity_in
        self.mask_rec = rng.random((n, n)) < config.connectivity_rec
        self.mask_out = rng.random((n, v)) < config.connectivity_out
        self.w_in = self.mask_in.astype(np.float64)
        if self._signatures is not None:
            # Per-unit standardization of the signature drive.  Raw hit
            # counts are proportional to a unit's in-degree, so hub units
            # would win the k-WTA under *every* signature and pattern
            # separation would collapse; z-scoring the hits makes the
            # winners signature-specific.
            degree = self.mask_in.sum(axis=0).astype(np.float64)
            p = config.signature_k / config.signature_dim
            self._sig_mu = degree * p
            self._sig_sigma = np.sqrt(np.maximum(degree * p * (1 - p), 1e-6))
        self.w_rec = self.mask_rec.astype(np.float64)
        self.w_out = np.zeros((n, v))
        # Fixed per-unit jitter breaks k-WTA ties deterministically.
        self._tiebreak = rng.uniform(0.0, 1e-3, size=n)
        # Readout scores span roughly +-k * connectivity_out * weight_max at
        # convergence; this temperature maps that span to +-8 logits so the
        # softmax confidence saturates near 1 for a well-learned class.
        score_span = config.k_winners * config.connectivity_out * config.weight_max
        self._temperature = max(0.25, score_span / 8.0)

        self._build_kernels()

        self._prev_class: int | None = None
        self._prev_active: np.ndarray | None = None
        self._prev_pred: int | None = None
        self._last_scores: np.ndarray | None = None
        self._last_active: np.ndarray | None = None
        self._last_probs: np.ndarray | None = None
        self.train_steps = 0

    # ------------------------------------------------------------------
    # Sparse kernels
    # ------------------------------------------------------------------
    def _build_kernels(self) -> None:
        """Precompute the CSR-style index structures the hot path runs on.

        - ``_rec_pad``: per-unit recurrent out-neighbor lists from
          ``mask_rec``, padded to the max out-degree with a sentinel column
          (index ``hidden_dim``) so a whole active set gathers in one
          fancy-index + ``bincount``.  The recurrent projection is binary
          and fixed, so edge *counts* reproduce the dense
          ``w_rec[active].sum(axis=0)`` exactly.
        - ``_pre_base``: per-class feed-forward drive with the tie-break
          jitter folded in — the input projection is fixed (unless
          ``plastic_hidden``), so the k-WTA input term is a row copy.
        - ``_out_rows`` / ``_out_flat``: per-class connected-hidden indices
          of ``w_out`` (and their flattened offsets), so Eq. 1 updates
          touch only the ~``hidden * connectivity_out`` connected entries
          of the target column.
        """
        config = self.config
        v, n = config.vocab_size, config.hidden_dim
        self._k = config.k_winners

        deg = self.mask_rec.sum(axis=1)
        width = int(deg.max()) if deg.size else 0
        rec_pad = np.full((n, max(width, 1)), n, dtype=np.intp)
        rows_idx, cols_idx = np.nonzero(self.mask_rec)
        if rows_idx.size:
            first = np.searchsorted(rows_idx, rows_idx, side="left")
            rec_pad[rows_idx, np.arange(rows_idx.size) - first] = cols_idx
        self._rec_pad = rec_pad
        self._rec_bins = n + 1  # one sentinel bin for the padding

        if config.plastic_hidden:
            # The input projection adapts online; recompute it per call.
            self._pre_base = None
        elif self._signatures is not None:
            hits = np.stack([self.w_in[sig].sum(axis=0)
                             for sig in self._signatures])
            z = (hits - self._sig_mu) / self._sig_sigma
            self._pre_base = (config.input_gain / 3.0) * z + self._tiebreak
        else:
            self._pre_base = config.input_gain * self.w_in + self._tiebreak
        self._pre_buf = np.empty(n)

        self._out_rows = tuple(np.flatnonzero(self.mask_out[:, t])
                               for t in range(v))
        self._out_flat = tuple((rows * v + t).astype(np.intp)
                               for t, rows in enumerate(self._out_rows))
        self._scratch_active = np.zeros(n, dtype=bool)
        self._probs_buf = np.empty(v)
        self._changed = np.zeros(v, dtype=bool)  # sync_from's result
        # (class, context) -> k-WTA code; valid because the projections the
        # code depends on are fixed.  Disabled under plastic_hidden.
        self._code_cache: dict | None = (
            None if config.plastic_hidden else {})
        # id(cache-resident code) -> its boolean membership mask.  Doubles
        # as the registry that lets a cached code serve as a context *key*
        # by object identity instead of a 400-byte ``tobytes()`` hash: ids
        # are unique among live objects, every registered array is kept
        # alive by the cache, and both structures are cleared together.
        self._code_masks: dict[int, np.ndarray] = {}
        # (id(code), target, lr_scale) -> the precomputed Eq. 1 column
        # delta.  Deltas depend only on the code's membership mask and the
        # (fixed) learning-rate constants, never on the weights, so they
        # are reusable verbatim.  Only cache-resident codes are keyed (the
        # cache keeps them alive, making ids stable); cleared with it.
        self._delta_cache: dict[tuple[int, int, float], np.ndarray] = {}
        # id(code) -> (cols, flat) index arrays over the *connected*
        # entries of the code's rows, in row-major order.  Lets the
        # readout gather+accumulate only the ~connectivity_out fraction of
        # each row that can be nonzero (see ``readout`` for the
        # bit-identity argument).  Same id-keyed lifecycle as the masks.
        self._readout_idx: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Compiled kernel bundle (None = inline numpy).  Built last: it
        # captures the fixed ``_rec_pad`` structure.  Clones share it —
        # its only mutable state is a scratch that every call rewrites.
        self._kern = hebbian_kernels(self._backend, rec_pad=self._rec_pad,
                                     hidden_dim=config.hidden_dim,
                                     vocab_size=config.vocab_size)

    @property
    def w_out(self) -> np.ndarray:
        """The learned readout; write it through the setter, never in
        place (``sync_from`` copies only columns marked as written)."""
        return self._w_out

    @w_out.setter
    def w_out(self, value: np.ndarray) -> None:
        # Keep the flat alias (used by the sparse column update) in sync
        # when callers replace the weights wholesale (e.g. the §5.5 noise
        # robustness probe assigns a perturbed copy).
        arr = np.ascontiguousarray(value, dtype=np.float64)
        self._w_out = arr
        self._w_out_flat = arr.reshape(-1)
        # A wholesale write may have touched any entry, connected or not.
        self._dirty = np.ones(arr.shape[1], dtype=bool)
        if self._backend == "int8":
            # Serving mirror: the readout scores from these quantized
            # values while training keeps updating the float64 weights.
            mirror = snap_to_grid(arr, self._q_scale)
            self._serve_w = mirror
            self._serve_flat = mirror.reshape(-1)
        else:
            self._serve_w = arr
            self._serve_flat = self._w_out_flat

    def _sync_serving(self, flat: np.ndarray) -> None:
        """Refresh the int8 serving mirror at just-written flat offsets.

        A no-op unless the mirror is a distinct array (``backend="int8"``);
        every weight-write site calls this after its scatter.
        """
        if self._serve_flat is self._w_out_flat:
            return
        vals = self._w_out_flat.take(flat)
        self._serve_flat[flat] = snap_to_grid(vals, self._q_scale)

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def hidden_code(self, input_class: int,
                    prev_active: np.ndarray | None = None) -> np.ndarray:
        """k-WTA hidden activation (indices) for an input in a context.

        The returned array may be shared with the internal code memo —
        treat it as read-only.
        """
        has_context = prev_active is not None and prev_active.size
        cache = self._code_cache
        if cache is not None:
            # Content-keyed on purpose: element-equal codes reach here as
            # distinct array objects, and identity keys would fragment the
            # cache into one entry per object.
            key = (input_class,
                   prev_active.tobytes() if has_context else None)
            code = cache.get(key)
            if code is not None:
                return code
        config = self.config
        base = self._pre_base
        if base is not None:
            pre = self._pre_buf
            np.copyto(pre, base[input_class])
        elif self._signatures is not None:
            hits = self.w_in[self._signatures[input_class]].sum(axis=0)
            # standardized overlap: signature-specific, hub-neutral; scaled
            # so the strongest winners sit around input_gain like one-hot
            z = (hits - self._sig_mu) / self._sig_sigma
            pre = (config.input_gain / 3.0) * z + self._tiebreak
        else:
            pre = config.input_gain * self.w_in[input_class] + self._tiebreak
        if has_context:
            # Normalize by the expected number of recurrent hits per unit so
            # the recurrent term peaks around ``recurrent_strength`` and can
            # order units within the input's support without overriding it.
            expected_hits = max(1.0, prev_active.size * config.connectivity_rec)
            scale = config.recurrent_strength / expected_hits
            if self._kern is not None:
                self._kern.pre_accumulate(pre, prev_active, scale)
            else:
                counts = np.bincount(self._rec_pad[prev_active].ravel(),
                                     minlength=self._rec_bins)
                pre += scale * counts[:config.hidden_dim]
        active = pre.argpartition(-self._k)[-self._k:]
        if cache is not None:
            if len(cache) >= _CODE_CACHE_CAP:
                cache.clear()
                self._code_masks.clear()
                self._delta_cache.clear()
                self._readout_idx.clear()
            cache[key] = active
            mask = np.zeros(config.hidden_dim, dtype=bool)
            mask[active] = True
            self._code_masks[id(active)] = mask
        return active

    def readout(self, active: np.ndarray) -> np.ndarray:
        """Class scores from an active hidden set.

        Cache-resident codes take a sparse path: gather only the
        *connected* entries of the active rows and accumulate them per
        class with ``np.bincount``.  This is bit-identical to the dense
        row sum: ``np.add.reduce`` over axis 0 adds the rows elementwise
        in order, bincount adds the row-major-ordered connected values per
        column in the same row order, and the skipped entries are exactly
        ``+0.0`` (``_learn`` never touches unconnected entries and the
        update arithmetic cannot produce ``-0.0``), so dropping them
        changes no bits.  Pinned by tests against the dense reference.
        """
        entry = self._readout_entry(active)
        if entry is None:
            # Foreign (non-resident) code: dense row sum, as before.
            # np.add.reduce is what ndarray.sum calls underneath minus
            # a dispatch layer.  (Cold path: stays numpy under every
            # backend; serves from the mirror like the sparse path.)
            return np.add.reduce(self._serve_w.take(active, axis=0), axis=0)
        cols, flat = entry
        if self._kern is not None:
            return self._kern.readout_sparse(self._serve_flat, flat, cols)
        return np.bincount(cols, weights=self._serve_flat.take(flat),
                           minlength=self.config.vocab_size)

    def _readout_entry(self, active: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray] | None:
        """(cols, flat) indices of the connected entries of ``active``'s
        rows, row-major; None for a foreign (non-resident) code."""
        entry = self._readout_idx.get(id(active))
        if entry is None and id(active) in self._code_masks:
            rows_i, cols = self.mask_out[active].nonzero()
            flat = (active[rows_i] * self.config.vocab_size
                    + cols).astype(np.intp)
            entry = (cols.astype(np.intp), flat)
            if len(self._readout_idx) >= _READOUT_IDX_CAP:
                self._readout_idx.clear()
            self._readout_idx[id(active)] = entry
        return entry

    def probabilities(self, scores: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        # Inline max-shifted softmax over scores / temperature.  ``out``
        # lets hot loops reuse a scratch buffer; the arithmetic (and hence
        # the result, bit for bit) is identical either way.
        x = np.divide(scores, self._temperature, out=out)
        x -= x.max()
        np.exp(x, out=x)
        x /= x.sum()
        return x

    # ------------------------------------------------------------------
    # SequenceModel interface
    # ------------------------------------------------------------------
    def step(self, input_class: int, train: bool = True,
             lr_scale: float = 1.0) -> np.ndarray:
        if not 0 <= input_class < self.vocab_size:
            raise ValueError(
                f"class {input_class} outside vocab [0, {self.vocab_size})")
        prev_active = self._prev_active
        if train and prev_active is not None:
            self._learn(prev_active, input_class, self._prev_pred, lr_scale)
            if self.config.plastic_hidden and self._prev_class is not None:
                self._adapt_hidden(self._prev_class, prev_active, lr_scale)
            self.train_steps += 1

        active = self.hidden_code(input_class, prev_active)
        scores = self.readout(active)
        probs = self.probabilities(scores)

        self._prev_class = input_class
        self._prev_active = active
        # The argmax only feeds the error-driven depression term; without
        # it, ``_learn`` never reads the prediction.
        self._prev_pred = (int(scores.argmax())
                           if self.config.punish_wrong else None)
        self._last_scores = scores
        self._last_active = active
        self._last_probs = probs
        return probs

    def train_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> float:
        self._check_class(input_class)
        self._check_class(target_class)
        active = self.hidden_code(input_class, prev_active=None)
        scores = self.readout(active)
        confidence = float(self.probabilities(scores)[target_class])
        predicted = (int(scores.argmax())
                     if self.config.punish_wrong else None)
        self._learn(active, target_class, predicted, lr_scale)
        if self.config.plastic_hidden:
            self._adapt_hidden(input_class, active, lr_scale)
        return confidence

    def train_pairs(self, pairs: list[tuple[int, int]],
                    lr_scale: float = 1.0) -> None:
        """Batched training, bit-identical to the per-pair loop.

        Eq. 1 updates are local — each pair touches only its target's
        connected column entries — so with the error-driven term and the
        plastic hidden layer off, a pair's update is a pure function of
        its (fixed) hidden code and the pre-batch weights of that column.
        When every target in the batch is distinct, the touched flat
        offsets are disjoint, update order can't matter, and the whole
        batch applies as one gather-update-clip-scatter; the per-pair
        readout/softmax (whose confidences a batch discards anyway) is
        skipped entirely.  Duplicate targets fall back to sequential
        ``_learn`` calls, and punish_wrong/plastic_hidden configurations
        fall back to the full ``train_pair`` loop, so every path matches
        the reference element for element.  (The only divergence is on
        *invalid* input: the vectorized path validates the whole batch
        before applying any update.)
        """
        config = self.config
        if config.punish_wrong or config.plastic_hidden:
            for input_class, target_class in pairs:
                self.train_pair(input_class, target_class, lr_scale=lr_scale)
            return
        targets = [t for _, t in pairs]
        if len(pairs) < 2 or len(set(targets)) != len(targets):
            for input_class, target_class in pairs:
                self._check_class(input_class)
                self._check_class(target_class)
                self._learn(self.hidden_code(input_class), target_class,
                            None, lr_scale)
            return
        flats = []
        deltas = []
        for input_class, target_class in pairs:
            self._check_class(input_class)
            self._check_class(target_class)
            deltas.append(self._column_delta(self.hidden_code(input_class),
                                             target_class, lr_scale))
            flats.append(self._out_flat[target_class])
        # Distinct targets => disjoint columns => distinct offsets.
        flat = np.concatenate(flats)
        apply_learn(self._kern, self._w_out_flat, flat,
                    np.concatenate(deltas), config.weight_max)
        self._sync_serving(flat)
        self._dirty[targets] = True

    def predict_rollout(self, width: int = 1, length: int = 1
                        ) -> list[list[tuple[int, float]]]:
        if self._last_scores is None:
            return []
        out: list[list[tuple[int, float]]] = []
        scores = self._last_scores
        active = self._last_active
        # Fused with step(): the first rollout step reuses the softmax
        # step() just computed over these exact (frozen) scores, so even
        # if training touched the weights in between the result is the
        # same, bit for bit.  Later steps softmax into a scratch buffer.
        probs = self._last_probs
        if probs is None:
            probs = self.probabilities(scores)
        for remaining in range(length - 1, -1, -1):
            step = _select_topk(probs, width)
            out.append(step)
            if not remaining:
                break  # the next readout would be discarded
            active = self.hidden_code(step[0][0], active)
            scores = self.readout(active)
            probs = self.probabilities(scores, out=self._probs_buf)
        return out

    def reset_state(self) -> None:
        self._prev_class = None
        self._prev_active = None
        self._prev_pred = None
        self._last_scores = None
        self._last_active = None
        self._last_probs = None

    def clone(self) -> "SparseHebbianNetwork":
        """Deep copy of the learned state.

        The fixed structures (masks, signatures, tie-break jitter, and the
        precomputed kernels derived from them) are shared between clones —
        nothing ever mutates them — so cloning costs only the learned
        weight copies instead of a full re-initialization.  Without
        ``plastic_hidden`` the input projection ``w_in`` is fixed too
        (only ``_adapt_hidden`` writes it) and is shared as well.
        """
        twin = object.__new__(SparseHebbianNetwork)
        twin.__dict__.update(self.__dict__)
        twin.w_out = self._w_out.copy()  # setter rebuilds the flat alias
        twin._pre_buf = np.empty(self.config.hidden_dim)
        twin._probs_buf = np.empty(self.config.vocab_size)
        twin._scratch_active = np.zeros(self.config.hidden_dim, dtype=bool)
        twin._changed = np.zeros(self.config.vocab_size, dtype=bool)
        if self.config.plastic_hidden:
            # Plastic clones diverge; give each its own input projection
            # and (disabled) cache, recomputing the drive per call.
            twin.w_in = self.w_in.copy()
            twin._code_cache = None
            twin._code_masks = {}
            twin._delta_cache = {}
            twin._readout_idx = {}
        twin._copy_sequence_state(self)
        return twin

    def sync_from(self, source: SequenceModel) -> np.ndarray:
        """Make this network equal to ``source.clone()``, in place.

        Exact for a twin pair (networks cloned or synced from one
        another): every ``w_out`` write marks the columns it touched in
        ``_dirty`` — the setter marks all, making this a full sync — so
        the pair differs only in columns marked on either side, and
        only those are copied.  Returns that column mask (a scratch
        buffer, valid until the next call) for mirrors of this
        network's old weights, like a fleet slot.
        """
        if not (isinstance(source, SparseHebbianNetwork)
                and (source.config is self.config
                     or source.config == self.config)):
            raise ValueError("sync_from needs a network of the same config")
        changed = np.logical_or(self._dirty, source._dirty, out=self._changed)
        copy_columns(self._w_out, source._w_out, changed)
        if self._serve_w is not self._w_out:
            copy_columns(self._serve_w, source._serve_w, changed)
        if self.w_in is not source.w_in:
            np.copyto(self.w_in, source.w_in)
        self._dirty.fill(False)
        source._dirty.fill(False)
        self._copy_sequence_state(source)
        return changed

    def _copy_sequence_state(self, source: "SparseHebbianNetwork") -> None:
        self._prev_class = source._prev_class
        self._prev_pred = source._prev_pred
        for attr in ("_prev_active", "_last_scores", "_last_active",
                     "_last_probs"):
            value = getattr(source, attr)
            setattr(self, attr, None if value is None else value.copy())
        self.train_steps = source.train_steps

    def restore_state(self, *, w_out: np.ndarray, prev_class: int | None,
                      prev_active: np.ndarray | None, prev_pred: int | None,
                      last_active: np.ndarray | None,
                      last_scores: np.ndarray | None,
                      last_probs: np.ndarray | None,
                      train_steps: int) -> None:
        """Install externally-held learned state wholesale.

        The hand-back half of the :class:`~repro.nn.hebbian_fleet.
        HebbianFleet` adoption protocol: a fleet slot carries this
        network's weights and sequence context while batched stepping
        owns the lane, and returns them here when the lane leaves.  The
        ``w_out`` setter rebuilds the flat (and serving) aliases.
        """
        self.w_out = w_out
        self._prev_class = prev_class
        self._prev_active = prev_active
        self._prev_pred = prev_pred
        self._last_active = last_active
        self._last_scores = last_scores
        self._last_probs = last_probs
        self.train_steps = train_steps

    def evaluate_sequence(self, classes: list[int]) -> float:
        probs = evaluate_sequence_probs(self, classes)
        return float(probs.mean()) if probs.size else 0.0

    # ------------------------------------------------------------------
    # Learning rules
    # ------------------------------------------------------------------
    def _learn(self, active: np.ndarray, target: int, predicted: int | None,
               lr_scale: float) -> None:
        """Eq. 1 with the output clamped to the observed next class.

        Touches only the target column's connected rows (``_out_rows``):
        active-and-connected entries get ``+lr``, the other connected
        entries get the depression term, and the result is clipped —
        element-for-element the same arithmetic as the dense column
        update, without the ``(hidden,)`` temporaries.
        """
        config = self.config
        lr = config.lr * lr_scale
        flat = self._out_flat[target]
        w_flat = self._w_out_flat
        delta = self._column_delta(active, target, lr_scale)
        wm = config.weight_max
        apply_learn(self._kern, w_flat, flat, delta, wm)
        self._sync_serving(flat)
        self._dirty[target] = True

        if config.punish_wrong and predicted is not None and predicted != target:
            wrong = active[self.mask_out[active, predicted]]
            if wrong.size:
                wrong_flat = wrong * config.vocab_size + predicted
                apply_punish(self._kern, w_flat, wrong_flat, lr, wm)
                self._sync_serving(wrong_flat)
                self._dirty[predicted] = True

    def _column_delta(self, active: np.ndarray, target: int,
                      lr_scale: float) -> np.ndarray:
        """Eq. 1 update of the target column's connected rows: ``+lr``
        where ``active`` fires, the depression term elsewhere.

        Memoized per (cache-resident code, target, lr_scale): the delta
        depends only on the code's membership and the fixed learning
        rate, never on the weights, so one entry serves every clone and
        every fleet lane sharing this network's caches.
        """
        key = (id(active), target, lr_scale)
        delta = self._delta_cache.get(key)
        if delta is not None:
            return delta
        config = self.config
        lr = config.lr * lr_scale
        rows = self._out_rows[target]
        mask = self._code_masks.get(id(active))
        if mask is not None:
            is_active = mask[rows]
        else:
            scratch = self._scratch_active
            scratch[active] = True
            is_active = scratch[rows]
            scratch[active] = False
        delta = np.where(is_active, lr, -lr * config.negative_scale)
        if mask is not None:
            if len(self._delta_cache) >= _DELTA_CACHE_CAP:
                self._delta_cache.clear()
            self._delta_cache[key] = delta
        return delta

    def _adapt_hidden(self, input_class: int, active: np.ndarray,
                      lr_scale: float) -> None:
        """Optional Hebbian strengthening of the hidden projection."""
        lr = 0.01 * self.config.lr * lr_scale
        rows = (self._signatures[input_class] if self._signatures is not None
                else np.array([input_class]))
        for row in rows:
            connected = active[self.mask_in[row, active]]
            self.w_in[row, connected] = np.minimum(
                self.w_in[row, connected] + lr, 2.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        """Connected weights across all three projections (Table 2)."""
        return int(self.mask_in.sum() + self.mask_rec.sum() + self.mask_out.sum())

    def _check_class(self, class_id: int) -> None:
        if not 0 <= class_id < self.vocab_size:
            raise ValueError(f"class {class_id} outside vocab [0, {self.vocab_size})")
