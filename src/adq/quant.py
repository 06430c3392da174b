"""Uniform affine k-bit fake quantization with straight-through gradients.

Levels are computed as ``round((x - x_min) * (2^k - 1) / (x_max - x_min))``
after clamping x into [x_min, x_max]; dequantization maps a level back to
``x_min + level * (x_max - x_min) / (2^k - 1)``. Rounding is half-away-from-
zero everywhere so results are reproducible independent of the platform's
default tie-breaking.

A degenerate range (x_max == x_min) carries no information: quantize returns
all-zero levels and fake_quant returns the input unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from adq.errors import ConfigurationError, InputError

MAX_BITS = 16


def round_half_away(x):
    """round() with halves away from zero, elementwise."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    k: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if not (1 <= self.k <= MAX_BITS):
            raise ConfigurationError(f"bit-width k={self.k} outside [1, {MAX_BITS}]")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ConfigurationError("quantization range must be finite")
        if self.x_max < self.x_min:
            raise ConfigurationError(
                f"x_max ({self.x_max}) < x_min ({self.x_min})"
            )

    @property
    def levels(self) -> int:
        return (1 << self.k) - 1

    @property
    def degenerate(self) -> bool:
        return self.x_max == self.x_min


def quantize(x, qp: QuantParams):
    """Map values to integer levels in [0, 2^k - 1] (float64 array of ints)."""
    x = np.asarray(x, dtype=np.float64)
    if qp.degenerate:
        return np.zeros_like(x)
    # clip, shift, scale and round in one buffer
    q = np.clip(x, qp.x_min, qp.x_max)
    q -= qp.x_min
    q *= qp.levels / (qp.x_max - qp.x_min)
    q += 0.5
    return np.floor(q, out=q)  # round_half_away, as q >= 0


def _check_levels(levels, qp: QuantParams):
    if np.any(levels < 0) or np.any(levels > qp.levels):
        raise InputError(f"levels outside [0, {qp.levels}]")


def dequantize(levels, qp: QuantParams):
    levels = np.asarray(levels, dtype=np.float64)
    _check_levels(levels, qp)
    if qp.degenerate:
        return np.full_like(levels, qp.x_min)
    return levels * ((qp.x_max - qp.x_min) / qp.levels) + qp.x_min


def fake_quant(x, qp: QuantParams):
    """Quantize-then-dequantize; idempotent for fixed params. Dequantizes
    the levels in place, with dequantize's arithmetic."""
    x = np.asarray(x, dtype=np.float64)
    if qp.degenerate:
        return x.copy()
    q = quantize(x, qp)
    _check_levels(q, qp)
    q *= (qp.x_max - qp.x_min) / qp.levels
    q += qp.x_min
    return q


def ste_mask(x, qp: QuantParams):
    return (np.asarray(x) >= qp.x_min) & (np.asarray(x) <= qp.x_max)


@dataclass
class RangeTracker:
    """Observed [x_min, x_max] for a tensor stream.

    mode 'minmax': running min/max over everything seen.
    mode 'ema': exponential moving average of per-batch extrema with the given
    decay; the first observation initializes the bounds directly.
    """

    mode: str = "minmax"
    ema_decay: float = 0.99
    x_min: float | None = None
    x_max: float | None = None

    def __post_init__(self):
        if self.mode not in ("minmax", "ema"):
            raise ConfigurationError(f"unknown range-tracker mode {self.mode!r}")
        if not (0.0 < self.ema_decay < 1.0):
            raise ConfigurationError("ema_decay must lie in (0, 1)")

    @property
    def initialized(self) -> bool:
        return self.x_min is not None

    def observe(self, x) -> "RangeTracker":
        x = np.asarray(x)
        lo = float(x.min())
        hi = float(x.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            return self  # never let a diverging batch poison the range
        if not self.initialized:
            self.x_min, self.x_max = lo, hi
        elif self.mode == "minmax":
            self.x_min = min(self.x_min, lo)
            self.x_max = max(self.x_max, hi)
        else:
            d = self.ema_decay
            self.x_min = d * self.x_min + (1.0 - d) * lo
            self.x_max = d * self.x_max + (1.0 - d) * hi
        return self

    def params(self, k: int) -> QuantParams:
        if not self.initialized:
            raise InputError("range tracker has no observations")
        return QuantParams(k, self.x_min, self.x_max)

    def state_dict(self) -> dict:
        return {
            "mode": self.mode,
            "ema_decay": self.ema_decay,
            "x_min": self.x_min,
            "x_max": self.x_max,
        }


@dataclass
class NetworkQuantizer:
    """Per-layer fake quantization driven by a bit-width assignment.

    For each non-exempt weighted layer l the weights are fake-quantized with a
    fresh per-tensor min/max range at bit-width k_l, and the activation tensor
    entering the layer is fake-quantized at k_l using an EMA range tracker.
    Residual-add skip branches are quantized at the destination layer's
    bit-width. Tracker updates happen only in training mode; evaluation uses
    the frozen ranges. Layers whose effective bit-width exceeds MAX_BITS are
    passed through unquantized.
    """

    bits: dict  # layer id -> effective bit-width (skip rules already applied)
    exempt: frozenset = frozenset()
    skip_bits: dict = field(default_factory=dict)  # residual-add id -> k
    act_mode: str = "ema"
    ema_decay: float = 0.99
    trackers: dict = field(default_factory=dict)
    training: bool = True

    def _tracker(self, site) -> RangeTracker:
        if site not in self.trackers:
            self.trackers[site] = RangeTracker(self.act_mode, self.ema_decay)
        return self.trackers[site]

    def _active(self, layer_id) -> bool:
        k = self.bits.get(layer_id)
        return k is not None and layer_id not in self.exempt and k <= MAX_BITS

    # Each of the three returns (quantized tensor, STE mask). The mask is
    # None when the tensor passes unquantized, or when mask is false: a
    # forward-only pass has no backward to use it.

    def weight(self, layer_id, w, mask=True):
        if not self._active(layer_id):
            return w, None
        lo, hi = float(w.min()), float(w.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            return w, None  # let divergence surface at the loss check
        qp = QuantParams(self.bits[layer_id], lo, hi)
        return fake_quant(w, qp), (ste_mask(w, qp) if mask else None)

    def activation(self, layer_id, x, mask=True):
        """Quantize the tensor entering a weighted layer."""
        if not self._active(layer_id):
            return x, None
        return self._site(("input", layer_id), x, self.bits[layer_id], mask)

    def skip_activation(self, add_id, x, mask=True):
        """Quantize a residual-add skip input at the destination bit-width."""
        k = self.skip_bits.get(add_id)
        if k is None or k > MAX_BITS:
            return x, None
        return self._site(("skip", add_id), x, k, mask)

    def _site(self, site, x, k, mask):
        tr = self._tracker(site)
        if self.training:
            tr.observe(x)
        if not tr.initialized:
            return x, None
        qp = tr.params(k)
        return fake_quant(x, qp), (ste_mask(x, qp) if mask else None)

    def _site_bits(self, site):
        kind, lid = site
        return self.skip_bits.get(lid) if kind == "skip" else self.bits.get(lid)

    def state_dict(self) -> dict:
        """Serialized ranges: {"<kind>:<layer>": {k, x_min, x_max, ...}}."""
        out = {}
        for site, tr in self.trackers.items():
            entry = tr.state_dict()
            entry["k"] = self._site_bits(site)
            out["%s:%s" % site] = entry
        return out
