"""Availability of a model that is trained and queried concurrently (§5.5).

Training mutates weights, so a live model's inference can race its own
updates.  §5.5 motivates "a protocol where training is applied to a
separate model copy, which is later redeployed when the live model's
confidence/accuracy decreases" — :class:`ShadowModelManager` implements
exactly that.  §5.5 also conjectures that simpler schemes may suffice
because networks are noise-robust; :func:`weight_noise_robustness`
measures that conjecture directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..nn.base import SequenceModel
from ..nn.hebbian import SparseHebbianNetwork
from ..nn.lstm import OnlineLSTM


@dataclass
class ShadowModelManager:
    """Train a shadow copy; serve inference from a stable live copy.

    Inference always hits :attr:`live`.  Training goes to :attr:`shadow`.
    The live model's recent confidence is tracked with an exponential
    moving average; when it falls below ``redeploy_below`` (or every
    ``max_staleness`` training steps as a backstop), the shadow is
    redeployed as the new live model.

    Attributes:
        model: The initial model; becomes the first live copy.
        redeploy_below: EMA-confidence threshold that triggers redeploy.
        ema_alpha: Smoothing for the confidence EMA.
        max_staleness: Redeploy at least this often (training steps).
    """

    model: SequenceModel
    redeploy_below: float = 0.5
    ema_alpha: float = 0.05
    max_staleness: int = 256
    live: SequenceModel = field(init=False)
    shadow: SequenceModel = field(init=False)
    confidence_ema: float = field(default=1.0, init=False)
    redeploys: int = field(default=0, init=False)
    _staleness: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 < self.ema_alpha <= 1:
            raise ValueError("ema_alpha must be in (0, 1]")
        if self.max_staleness < 1:
            raise ValueError("max_staleness must be >= 1")
        self.live = self.model
        self.shadow = self.model.clone()

    def observe(self, input_class: int, target_class: int,
                lr_scale: float = 1.0) -> float:
        """Record an observed transition: score the live copy, train the
        shadow, and redeploy if the live copy has degraded.

        Returns the live model's confidence on the observed target.
        """
        live_probs = self.live.step(input_class, train=False)
        confidence = float(live_probs[target_class])
        self.note_confidence(confidence)
        self.train_shadow(input_class, target_class, lr_scale=lr_scale)
        if self.should_redeploy():
            self.redeploy()
        return confidence

    # Lower-level pieces, for callers (like CLSPrefetcher) that manage the
    # live model's streaming state themselves.
    def note_confidence(self, confidence: float) -> None:
        self.confidence_ema = ((1 - self.ema_alpha) * self.confidence_ema
                               + self.ema_alpha * confidence)

    def train_shadow(self, input_class: int, target_class: int,
                     lr_scale: float = 1.0) -> None:
        self.shadow.train_pair(input_class, target_class, lr_scale=lr_scale)
        self._staleness += 1

    def should_redeploy(self) -> bool:
        return (self.confidence_ema < self.redeploy_below
                or self._staleness >= self.max_staleness)

    def redeploy(self) -> np.ndarray | None:
        """Promote the shadow to live; the old live copy, brought up to
        date with ``sync_from``, trains on as the new shadow (a role
        exchange: nothing is allocated).  Returns what ``sync_from``
        returned — for the Hebbian network, the readout columns in
        which the new live weights differ from the old."""
        old_live = self.live
        changed = old_live.sync_from(self.shadow)
        self.live, self.shadow = self.shadow, old_live
        self.redeploys += 1
        self._staleness = 0
        self.confidence_ema = max(self.confidence_ema, self.redeploy_below)
        return changed

    def discard_shadow(self) -> None:
        """Throw the shadow's training away; resync it from live.

        The escape hatch for a corrupted shadow (e.g. a poisoned update
        caught by :func:`weights_finite` at swap admission): the shadow
        takes the live weights and state back and the two objects swap
        roles, so serving continues unchanged and background training
        restarts from the live weights.  Resets the staleness backstop —
        the discarded steps no longer count toward a forced redeploy.
        """
        self.shadow.sync_from(self.live)
        self.live, self.shadow = self.shadow, self.live
        self._staleness = 0

    @property
    def staleness(self) -> int:
        """Training steps absorbed by the shadow since the last swap."""
        return self._staleness


def weights_finite(model: SequenceModel) -> bool:
    """True iff every learned weight of ``model`` is finite.

    The swap admission check of the serving layer: a shadow that picked
    up a NaN/inf (hardware fault, poisoned update) must never be
    promoted to live.
    """
    if isinstance(model, OnlineLSTM):
        return all(bool(np.isfinite(values).all())
                   for values in model.net.params.values())
    if isinstance(model, SparseHebbianNetwork):
        # One pass, no temporary: a finite sum proves every entry finite;
        # only a non-finite one (a bad entry, or overflow) needs the
        # exact elementwise check.
        w_out = model.w_out
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(w_out, axis=None)
        return math.isfinite(total) or bool(np.isfinite(w_out).all())
    raise TypeError(f"don't know how to validate {type(model).__name__}")


def perturb_weights(model: SequenceModel, sigma: float,
                    seed: int = 0) -> SequenceModel:
    """A copy of ``model`` with Gaussian weight noise of scale ``sigma``.

    ``sigma`` is relative: each weight tensor is perturbed by
    ``N(0, sigma * std(tensor))``, so the same setting is meaningful for
    both model families.
    """
    if not isinstance(model, (OnlineLSTM, SparseHebbianNetwork)):
        raise TypeError(f"don't know how to perturb {type(model).__name__}")
    rng = np.random.default_rng(seed)
    twin = model.clone()
    if isinstance(twin, OnlineLSTM):
        for key, values in twin.net.params.items():
            scale = sigma * (float(values.std()) or 1.0)
            twin.net.params[key] = values + rng.normal(0.0, scale, size=values.shape)
    elif isinstance(twin, SparseHebbianNetwork):
        scale = sigma * (float(twin.w_out.std()) or 1.0)
        noise = rng.normal(0.0, scale, size=twin.w_out.shape)
        twin.w_out = np.where(twin.mask_out, twin.w_out + noise, twin.w_out)
    return twin


def weight_noise_robustness(model: SequenceModel, classes: list[int],
                            sigmas: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.5),
                            seed: int = 0) -> dict[float, float]:
    """Confidence on ``classes`` under increasing weight noise (§5.5).

    Returns {sigma: mean confidence}.  A flat curve at small sigma is the
    noise-robustness §5.5 hopes allows inference concurrent with training.
    """
    return {
        sigma: perturb_weights(model, sigma, seed=seed).evaluate_sequence(classes)
        for sigma in sigmas
    }
