"""Activation-density tracking: per-layer nonzero/total counters by epoch.

Density of a layer is the fraction of strictly positive values among the
activations observed in an epoch (activations are post-ReLU, so positive and
nonzero coincide). Counters accumulate across batches within an epoch; the
network-level density pools the raw counts of all layers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from adq.artifacts import csv_text
from adq.errors import InputError
from adq.nn.arch import KINDS, NetworkArch


@dataclass
class ADRecord:
    layer_id: int
    epoch: int
    nonzero: int = 0
    total: int = 0

    def ad(self) -> float:
        if self.total == 0:
            raise InputError(
                f"layer {self.layer_id}, epoch {self.epoch}: no activations recorded")
        return self.nonzero / self.total


@dataclass
class ADHistory:
    records: dict = field(default_factory=dict)  # (layer_id, epoch) -> ADRecord

    def record(self, layer_id: int, epoch: int, activations) -> "ADHistory":
        """Accumulate counts for one batch of activations."""
        acts = np.asarray(activations)
        key = (layer_id, epoch)
        rec = self.records.get(key)
        if rec is None:
            prior = self.epochs(layer_id)
            if prior and epoch <= prior[-1]:
                raise InputError(
                    f"layer {layer_id}: epoch {epoch} not increasing "
                    f"(last was {prior[-1]})")
            rec = self.records[key] = ADRecord(layer_id, epoch)
        rec.nonzero += int(np.count_nonzero(acts > 0))
        rec.total += acts.size
        return self

    def layers(self) -> list[int]:
        return sorted({lid for lid, _ in self.records})

    def epochs(self, layer_id: int) -> list[int]:
        return sorted(e for lid, e in self.records if lid == layer_id)

    def layer_ad(self, layer_id: int, epoch: int) -> float:
        key = (layer_id, epoch)
        if key not in self.records:
            raise InputError(f"no AD record for layer {layer_id}, epoch {epoch}")
        return self.records[key].ad()

    def network_ad(self, epoch: int, mode: str = "pooled") -> float:
        """Network-level density for an epoch.

        'pooled' divides summed nonzero counts by summed totals; 'mean' averages
        the per-layer densities without size weighting.
        """
        recs = [r for (lid, e), r in self.records.items() if e == epoch]
        missing = [lid for lid in self.layers() if (lid, epoch) not in self.records]
        if not recs or missing:
            raise InputError(
                f"epoch {epoch} incomplete: missing layers {missing or 'all'}")
        if mode == "mean":
            return float(np.mean([r.ad() for r in recs]))
        return sum(r.nonzero for r in recs) / sum(r.total for r in recs)

    def layer_saturated(self, layer_id: int, epsilon: float, window: int,
                        epochs: list[int] | None = None) -> bool:
        """True when the last `window` recorded densities span less than epsilon.

        Insufficient history is reported as not saturated rather than an error.
        """
        if window < 2:
            raise InputError("saturation window must span at least 2 epochs")
        eps = self.epochs(layer_id) if epochs is None else [
            e for e in epochs if (layer_id, e) in self.records]
        if len(eps) < window:
            return False
        tail = [self.layer_ad(layer_id, e) for e in eps[-window:]]
        return (max(tail) - min(tail)) < epsilon

    def is_saturated(self, epsilon: float, window: int,
                     epochs: list[int] | None = None) -> bool:
        """True when every recorded layer is saturated."""
        layers = self.layers()
        if not layers:
            return False
        return all(self.layer_saturated(l, epsilon, window, epochs)
                   for l in layers)

    def to_csv(self) -> str:
        return csv_text([
            ["layer_id", "epoch", "nonzero", "total", "ad"],
            *([lid, e, r.nonzero, r.total, f"{r.ad():.10g}"]
              for (lid, e), r in sorted(self.records.items()))])

    @classmethod
    def from_csv(cls, path) -> "ADHistory":
        """Read to_csv's file; a missing column or a value that is not an
        integer raises InputError."""
        hist = cls()
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            try:
                for row in reader:
                    key = (int(row["layer_id"]), int(row["epoch"]))
                    hist.records[key] = ADRecord(
                        key[0], key[1], int(row["nonzero"]), int(row["total"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{path!r}, line {reader.line_num}: not an "
                                 f"AD history row ({exc!r})") from None
        return hist

    def to_rows(self):
        return [
            {"layer_id": lid, "epoch": e,
             "nonzero": r.nonzero, "total": r.total, "ad": r.ad()}
            for (lid, e), r in sorted(self.records.items())
        ]


def observation_points(arch: NetworkArch) -> dict[int, int]:
    """Map each weighted layer to its activation observation point.

    Returns {weighted_layer_id: observed_layer_id}. The observation point is
    the first ReLU (an ``observed`` kind) after the layer and before the
    next weighted layer, in layer order; a weighted layer with no such ReLU
    (e.g. the final classifier) observes its own raw output.
    """
    points = {}
    pending = None  # the last weighted layer, until a ReLU observes it
    for spec in arch.layers:
        if spec.weighted:
            points[spec.id] = pending = spec.id
        elif KINDS[spec.kind].observed and pending is not None:
            points[pending], pending = spec.id, None
    return points
