"""Network architecture description: layer specs, shape inference, JSON I/O.

A network is an ordered list of layers. Each layer consumes the output of the
previous layer unless it carries a ``skip_source``:

* ``residual-add``: output = previous-layer output + output of ``skip_source``.
* any other kind: the layer reads its input from ``skip_source`` instead of
  the previous layer (used to start a projection branch on a skip path).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

from adq.errors import ConfigurationError

WEIGHTED_KINDS = ("conv2d", "linear")
LAYER_KINDS = (
    "conv2d",
    "linear",
    "relu",
    "maxpool",
    "avgpool",
    "flatten",
    "residual-add",
    "batchnorm",
)


@dataclass(frozen=True)
class LayerSpec:
    id: int
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    skip_source: int | None = None

    def validate(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigurationError(f"layer {self.id}: unknown kind {self.kind!r}")
        if self.kind in WEIGHTED_KINDS:
            if self.in_channels < 1 or self.out_channels < 1:
                raise ConfigurationError(
                    f"layer {self.id} ({self.kind}): in/out channels must be >= 1"
                )
        if self.kind == "conv2d" and self.kernel < 1:
            raise ConfigurationError(f"layer {self.id} (conv2d): kernel must be >= 1")
        if self.kind in ("maxpool", "avgpool") and self.kernel < 0:
            raise ConfigurationError(f"layer {self.id} ({self.kind}): kernel must be >= 0")
        if self.stride < 1 and self.kind in ("conv2d", "maxpool", "avgpool"):
            raise ConfigurationError(f"layer {self.id} ({self.kind}): stride must be >= 1")
        if self.padding < 0:
            raise ConfigurationError(f"layer {self.id}: negative padding")
        if self.kind == "residual-add" and self.skip_source is None:
            raise ConfigurationError(f"layer {self.id}: residual-add requires skip_source")


@dataclass
class NetworkArch:
    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]  # (channels, height, width)
    num_classes: int
    _index: dict[int, int] = field(default_factory=dict, repr=False)
    _inputs: dict[int, tuple] = field(default_factory=dict, init=False,
                                      repr=False, compare=False)
    _hash: str | None = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)
        self._index = {l.id: i for i, l in enumerate(self.layers)}
        if len(self._index) != len(self.layers):
            raise ConfigurationError("duplicate layer ids")
        # resolved once: shape inference and the energy model ask per layer
        prev = -1
        for spec in self.layers:
            if spec.kind == "residual-add":
                self._inputs[spec.id] = (prev, spec.skip_source)
            elif spec.skip_source is not None:
                self._inputs[spec.id] = (spec.skip_source,)
            else:
                self._inputs[spec.id] = (prev,)
            prev = spec.id
        self.validate()

    def layer(self, layer_id: int) -> LayerSpec:
        return self.layers[self._index[layer_id]]

    def position(self, layer_id: int) -> int:
        return self._index[layer_id]

    def weighted_ids(self) -> list[int]:
        return [l.id for l in self.layers if l.kind in WEIGHTED_KINDS]

    def conv_ids(self) -> list[int]:
        return [l.id for l in self.layers if l.kind == "conv2d"]

    def input_ids(self, layer_id: int) -> tuple:
        """Resolved data-flow inputs of a layer (-1 denotes the network input)."""
        return self._inputs[layer_id]

    def validate(self):
        seen = set()
        for spec in self.layers:
            spec.validate()
            if spec.skip_source is not None:
                if spec.skip_source not in seen:
                    raise ConfigurationError(
                        f"layer {spec.id}: skip_source {spec.skip_source} is not an "
                        "earlier layer"
                    )
            seen.add(spec.id)
        self.infer_shapes()

    def infer_shapes(self) -> dict[int, tuple]:
        """Propagate the input shape through every layer.

        Returns a map layer_id -> output shape, either (C, H, W) or (F,).
        Raises ConfigurationError naming the first inconsistent layer.
        """
        shapes: dict[int, tuple] = {-1: tuple(self.input_shape)}
        for spec in self.layers:
            ins = []
            for src in self.input_ids(spec.id):
                if src not in shapes:
                    raise ConfigurationError(
                        f"layer {spec.id}: input {src} has no resolved shape"
                    )
                ins.append(shapes[src])
            shapes[spec.id] = _out_shape(spec, ins)
        last = self.layers[-1]
        out = shapes[last.id]
        if out != (self.num_classes,):
            raise ConfigurationError(
                f"final layer {last.id} produces shape {out}, expected "
                f"({self.num_classes},)"
            )
        return shapes

    def arch_hash(self) -> str:
        # Computed on first use, not at construction: most archs (the preset
        # catalog's) are never hashed. Specs are frozen and archs are never
        # edited in place, so the cached value cannot go stale.
        if self._hash is None:
            self._hash = hashlib.sha256(
                json.dumps(self.to_dict(), sort_keys=True).encode()
            ).hexdigest()[:16]
        return self._hash

    def to_dict(self) -> dict:
        recs = []
        for l in self.layers:
            d = asdict(l)
            recs.append(d)
        return {
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "layers": recs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkArch":
        try:
            layers = [
                LayerSpec(
                    id=int(r["id"]),
                    kind=r["kind"],
                    in_channels=int(r.get("in_channels", 0) or 0),
                    out_channels=int(r.get("out_channels", 0) or 0),
                    kernel=int(r.get("kernel", 0) or 0),
                    stride=int(r.get("stride", 1) or 1),
                    padding=int(r.get("padding", 0) or 0),
                    skip_source=r.get("skip_source"),
                )
                for r in d["layers"]
            ]
            return cls(
                layers=layers,
                input_shape=tuple(d["input_shape"]),
                num_classes=int(d["num_classes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed architecture record: {exc}") from exc

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)

    @classmethod
    def load(cls, path) -> "NetworkArch":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def drop_layers(self, layer_ids) -> "NetworkArch":
        """Return a copy with the given layers removed (shape-revalidated)."""
        doomed = set(layer_ids)
        missing = doomed - set(self._index)
        if missing:
            raise ConfigurationError(f"cannot remove unknown layers {sorted(missing)}")
        kept = [l for l in self.layers if l.id not in doomed]
        for l in kept:
            if l.skip_source in doomed:
                raise ConfigurationError(
                    f"layer {l.id}: skip_source {l.skip_source} was removed"
                )
        return NetworkArch(kept, self.input_shape, self.num_classes)


def _out_shape(spec: LayerSpec, ins: list[tuple]) -> tuple:
    kind = spec.kind
    lid = spec.id
    if kind == "residual-add":
        a, b = ins
        if a != b:
            raise ConfigurationError(
                f"layer {lid}: residual-add inputs have shapes {a} and {b}"
            )
        return a
    (shape,) = ins
    if kind == "conv2d":
        if len(shape) != 3:
            raise ConfigurationError(f"layer {lid}: conv2d needs a (C,H,W) input, got {shape}")
        c, h, w = shape
        if c != spec.in_channels:
            raise ConfigurationError(
                f"layer {lid}: conv2d expects {spec.in_channels} input channels, got {c}"
            )
        ho = (h + 2 * spec.padding - spec.kernel) // spec.stride + 1
        wo = (w + 2 * spec.padding - spec.kernel) // spec.stride + 1
        if ho < 1 or wo < 1:
            raise ConfigurationError(f"layer {lid}: conv2d output would be empty")
        return (spec.out_channels, ho, wo)
    if kind == "linear":
        if len(shape) != 1:
            raise ConfigurationError(
                f"layer {lid}: linear needs a flat input, got {shape} (missing flatten?)"
            )
        (f,) = shape
        if f != spec.in_channels:
            raise ConfigurationError(
                f"layer {lid}: linear expects {spec.in_channels} features, got {f}"
            )
        return (spec.out_channels,)
    if kind in ("relu", "batchnorm"):
        return shape
    if kind == "flatten":
        n = 1
        for s in shape:
            n *= s
        return (n,)
    if kind in ("maxpool", "avgpool"):
        if len(shape) != 3:
            raise ConfigurationError(f"layer {lid}: {kind} needs a (C,H,W) input")
        c, h, w = shape
        k = spec.kernel
        if k == 0:  # global pooling
            return (c, 1, 1)
        s = spec.stride if spec.stride else k
        ho = (h - k) // s + 1
        wo = (w - k) // s + 1
        if ho < 1 or wo < 1:
            raise ConfigurationError(f"layer {lid}: {kind} output would be empty")
        return (c, ho, wo)
    raise ConfigurationError(f"layer {lid}: unknown kind {kind!r}")
