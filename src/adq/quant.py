"""Uniform affine k-bit fake quantization with straight-through gradients.

Levels are computed as ``round((x - x_min) * (2^k - 1) / (x_max - x_min))``
after clamping x into [x_min, x_max]; dequantization maps a level back to
``x_min + level * (x_max - x_min) / (2^k - 1)``. Rounding is half-away-from-
zero everywhere so results are reproducible independent of the platform's
default tie-breaking.

A degenerate range (x_max == x_min) carries no information: quantize returns
all-zero levels and fake_quant returns the input unchanged. Any other range
must keep its width and level scale finite. ``NetworkQuantizer`` applies
this to a network at one table of quantized sites.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # quantize's levels turn into inf and NaN when the width overflows
        # (the scale (2^k - 1)/width is then 0) or the scale does
        width = float(self.x_max) - float(self.x_min)
        if width and not 0.0 < self.levels / width < np.inf:
            raise ConfigurationError(f"quantization range [{self.x_min}, "
                                     f"{self.x_max}] overflows at k={self.k}")

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
    q = quantize(x, qp)  # levels in [0, 2^k - 1] by construction
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

    mode: str
    ema_decay: float
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
    """Fake quantization at ``sites``, {("input", weighted layer id) or
    ("skip", residual-add id): bit-width k}, as ``scheduler.build_quantizer``
    builds it. An input site quantizes the layer's weights with a fresh
    per-tensor min/max range and the tensor entering the layer with the
    site's range tracker; a skip site, with its tracker, the skip branch's
    tensor entering the add. A tensor at no site passes unquantized.
    Trackers move only in a training pass (the engine's ``training``
    argument); other passes use the frozen ranges.
    """

    sites: dict  # ("input" | "skip", layer id) -> bit-width k
    act_mode: str
    ema_decay: float
    trackers: dict  # site -> RangeTracker

    def weight(self, layer_id, w):
        """The weights, fake-quantized over their own [min, max]. That
        range holds every weight, so their straight-through mask would be
        all ones and none is made."""
        k = self.sites.get(("input", layer_id))
        if k is None:
            return w
        lo, hi = float(w.min()), float(w.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            return w  # let divergence surface at the loss check
        return fake_quant(w, QuantParams(k, lo, hi))

    # The two activation sites return (quantized tensor, STE mask). The
    # mask is None when the tensor passes unquantized, or when mask is
    # false: a forward-only pass has no backward to use it. They observe x
    # into their range only when training is set.

    def activation(self, layer_id, x, training, mask=True):
        """Quantize the tensor entering a weighted layer."""
        return self._site(("input", layer_id), x, training, mask)

    def skip_activation(self, add_id, x, training, mask=True):
        """Quantize a residual-add skip input at the destination bit-width."""
        return self._site(("skip", add_id), x, training, mask)

    def _site(self, site, x, training, mask):
        k = self.sites.get(site)
        if k is None:
            return x, None
        tr = self.trackers.get(site)
        if tr is None:
            tr = self.trackers[site] = RangeTracker(self.act_mode,
                                                    self.ema_decay)
        if training:
            tr.observe(x)
        if not tr.initialized:
            return x, None
        qp = tr.params(k)
        return fake_quant(x, qp), (ste_mask(x, qp) if mask else None)

    def state_dict(self) -> dict:
        """Serialized ranges: {"<kind>:<layer>": {k, x_min, x_max, ...}}."""
        out = {}
        for site, tr in self.trackers.items():
            entry = tr.state_dict()
            entry["k"] = self.sites.get(site)
            out["%s:%s" % site] = entry
        return out
