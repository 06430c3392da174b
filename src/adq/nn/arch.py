"""Network architecture description: layer kinds, layer specs, shape
inference, skip connections, JSON I/O.

``KINDS`` is the one place that defines a layer kind. Its entry says which
spec fields the kind reads, how it transforms its input shape, which
parameters it holds and trains, their shapes and how they are initialised,
which kernel pair in ``adq.nn.layers`` runs it, and how it carries
surviving channels through a pruning rebuild. Spec validation,
``infer_shapes``, the engine's ``init_state``/``forward``/``backward``,
checkpoint loading, the energy model and pruning's ``rebuild_pruned`` all
read it; a new kind is added there and nowhere else.

A network is an ordered tuple of layers. Each layer consumes the output of
the previous layer unless it carries a ``skip_source``:

* ``residual-add``: output = previous-layer output + output of ``skip_source``.
* any other kind: the layer reads its input from ``skip_source`` instead of
  the previous layer (used to start a projection branch on a skip path).

A ``NetworkArch`` is frozen, and what is derived from it alone is computed
once, on first use, and kept in its memo (``NetworkArch.kept``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from adq.artifacts import write_file
from adq.errors import ConfigurationError
from adq.nn.layers import conv_output_size, pool_geometry


# ------------------------------------------------------------------ kinds
# Shape rules take (spec, input shapes, channel overrides) and return the
# output shape. With overrides ({conv id: out channels}, see infer_shapes)
# input channel and feature counts follow the propagated shapes instead of
# being checked against the spec. Errors are prefixed with the layer by
# infer_shapes.

def _chw_input(ins):
    (shape,) = ins
    if len(shape) != 3:
        raise ConfigurationError(f"needs a (C,H,W) input, got {shape}")
    return shape


def _nonempty(c, ho, wo):
    if ho < 1 or wo < 1:
        raise ConfigurationError("output would be empty")
    return (c, ho, wo)


def _conv_shape(spec, ins, channels):
    c, h, w = _chw_input(ins)
    if channels is None and c != spec.in_channels:
        raise ConfigurationError(
            f"expects {spec.in_channels} input channels, got {c}")
    out = spec.out_channels if channels is None else channels.get(
        spec.id, spec.out_channels)
    return _nonempty(out, *conv_output_size(h, w, spec.kernel, spec.stride,
                                            spec.padding))


def _linear_shape(spec, ins, channels):
    (shape,) = ins
    if len(shape) != 1:
        raise ConfigurationError(
            f"needs a flat input, got {shape} (missing flatten?)")
    if channels is None and shape[0] != spec.in_channels:
        raise ConfigurationError(
            f"expects {spec.in_channels} features, got {shape[0]}")
    return (spec.out_channels,)


def _pool_shape(spec, ins, channels):
    c, h, w = _chw_input(ins)
    _, _, ho, wo = pool_geometry(h, w, spec.kernel, spec.stride)
    return _nonempty(c, ho, wo)


def _same_shape(spec, ins, channels):
    (shape,) = ins
    return shape


def _flat_shape(spec, ins, channels):
    (shape,) = ins
    return (math.prod(shape),)


def _add_shape(spec, ins, channels):
    a, b = ins
    if a != b:
        raise ConfigurationError(f"inputs have shapes {a} and {b}")
    return a


# Selection rules carry pruning through the network: they take (spec, input
# selections, input shapes, kept, channels) and return the indices of the
# layer's original output channels (or features) that survive. `kept` maps a
# conv id to the channel indices it keeps; a conv without an entry keeps its
# first channels[id] channels.

def _pass_selection(spec, sels, shapes, kept, channels):
    return sels[0]


def _conv_selection(spec, sels, shapes, kept, channels):
    if spec.id in kept:
        return kept[spec.id]
    return list(range(channels[spec.id]))


def _linear_selection(spec, sels, shapes, kept, channels):
    return list(range(spec.out_channels))


def _flat_selection(spec, sels, shapes, kept, channels):
    per = math.prod(shapes[0][1:])  # features per channel
    return [c * per + j for c in sels[0] for j in range(per)]


def _add_selection(spec, sels, shapes, kept, channels):
    main, skip = sels
    if len(main) != len(skip):
        raise ConfigurationError(
            f"layer {spec.id} (residual-add): channel counts diverge "
            f"({len(main)} vs {len(skip)}); pruning a skip connection "
            "requires a projection convolution")
    return main


def _conv_shapes(spec, shape):
    out = spec.out_channels
    return {"w": (out, spec.in_channels, spec.kernel, spec.kernel),
            "b": (out,)}


def _linear_shapes(spec, shape):
    return {"w": (spec.out_channels, spec.in_channels),
            "b": (spec.out_channels,)}


def _bn_shapes(spec, shape):
    return dict.fromkeys(("gamma", "beta", "running_mean", "running_var"),
                         shape[:1])


def _he_init(shapes, rng):
    """He-normal weights (fan-in: every axis but the first) and a zero bias."""
    wshape = shapes["w"]
    return {"w": rng.normal(0.0, np.sqrt(2.0 / math.prod(wshape[1:])), wshape),
            "b": np.zeros(shapes["b"])}


def _bn_init(shapes, rng):
    (c,) = shapes["gamma"]
    return {"gamma": np.ones(c), "beta": np.zeros(c),
            "running_mean": np.zeros(c), "running_var": np.ones(c)}


def _pool_args(spec, training):
    return (spec.kernel, spec.stride)


@dataclass(frozen=True)
class LayerKind:
    """One layer kind; see the module docstring."""
    out_shape: Callable    # (spec, input shapes, channel overrides) -> shape
    kernel: str            # runs as adq.nn.layers.<kernel>_forward/_backward
    # (spec, training) -> the forward kernel's arguments after the inputs
    # and the parameters
    args: Callable = lambda spec, training: ()
    reads: tuple = ()      # (spec field, least valid value) pairs
    inputs: int = 1        # 2: the previous layer, then skip_source
    params: tuple = ()     # parameter names, in forward-kernel order
    trainable: tuple = ()  # the parameters the optimizer updates
    # (spec, output shape) -> {parameter name: shape}
    shapes: Callable | None = None
    init: Callable | None = None  # ({parameter name: shape}, rng) -> params
    weighted: bool = False  # quantized weights and input; costed by energy
    observed: bool = False  # an AD site (see adq.admon.observation_points)
    # (spec, input selections, input shapes, kept, channels) -> selection
    select: Callable = _pass_selection


_CHANNEL_READS = (("in_channels", 1), ("out_channels", 1))
_POOL_READS = (("kernel", 0), ("stride", 1))

KINDS = {
    "conv2d": LayerKind(
        _conv_shape, "conv2d",
        args=lambda spec, training: (spec.stride, spec.padding),
        reads=_CHANNEL_READS + (("kernel", 1), ("stride", 1), ("padding", 0)),
        params=("w", "b"), trainable=("w", "b"), shapes=_conv_shapes,
        init=_he_init, weighted=True, select=_conv_selection),
    "linear": LayerKind(
        _linear_shape, "linear", reads=_CHANNEL_READS,
        params=("w", "b"), trainable=("w", "b"), shapes=_linear_shapes,
        init=_he_init, weighted=True, select=_linear_selection),
    "relu": LayerKind(_same_shape, "relu", observed=True),
    "maxpool": LayerKind(_pool_shape, "maxpool", args=_pool_args,
                         reads=_POOL_READS),
    "avgpool": LayerKind(_pool_shape, "avgpool", args=_pool_args,
                         reads=_POOL_READS),
    "flatten": LayerKind(_flat_shape, "flatten", select=_flat_selection),
    "residual-add": LayerKind(_add_shape, "add", inputs=2,
                              select=_add_selection),
    "batchnorm": LayerKind(
        _same_shape, "batchnorm", args=lambda spec, training: (training,),
        params=("gamma", "beta", "running_mean", "running_var"),
        trainable=("gamma", "beta"), shapes=_bn_shapes, init=_bn_init),
}


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

    @property
    def weighted(self) -> bool:
        return KINDS[self.kind].weighted

    def validate(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise ConfigurationError(f"layer {self.id}: unknown kind {self.kind!r}")
        for name, least in kind.reads:
            if getattr(self, name) < least:
                raise ConfigurationError(
                    f"layer {self.id} ({self.kind}): {name} must be >= {least}")
        if self.padding < 0:
            raise ConfigurationError(f"layer {self.id}: negative padding")
        if kind.inputs == 2 and self.skip_source is None:
            raise ConfigurationError(
                f"layer {self.id}: {self.kind} requires skip_source")


@dataclass(frozen=True)
class NetworkArch:
    """A network's layers, in order, its input shape and its class count.

    An architecture is frozen: pruning and drop_layers build a new one. So
    the facts derived from it alone (its hash, unpruned and parameter
    shapes, skip topology, main chain, the engine's last reader of each
    output, and energy's layer shapes and baseline totals) are computed
    once, on first use, and kept in its memo (see kept).
    """
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int]  # (channels, height, width)
    num_classes: int
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        self.validate()

    def kept(self, key, compute: Callable):
        """The derived fact `key`: compute() on first use, then the value
        kept in the memo. Callers must not edit it."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def layer(self, layer_id: int) -> LayerSpec:
        return self.layers[self._memo["index"][layer_id]]

    def position(self, layer_id: int) -> int:
        return self._memo["index"][layer_id]

    def weighted_ids(self) -> list[int]:
        return [l.id for l in self.layers if l.weighted]

    def conv_ids(self) -> list[int]:
        return [l.id for l in self.layers if l.kind == "conv2d"]

    def input_ids(self, layer_id: int) -> tuple:
        """Resolved data-flow inputs of a layer (-1 denotes the network input)."""
        return self._memo["inputs"][layer_id]

    def validate(self):
        index = {l.id: i for i, l in enumerate(self.layers)}
        if len(index) != len(self.layers):
            raise ConfigurationError("duplicate layer ids")
        # resolved once: shape inference and the energy model ask per layer
        inputs, prev = {}, -1
        for spec in self.layers:
            spec.validate()
            if spec.skip_source is not None and spec.skip_source not in inputs:
                raise ConfigurationError(
                    f"layer {spec.id}: skip_source {spec.skip_source} is not "
                    "an earlier layer")
            if KINDS[spec.kind].inputs == 2:
                inputs[spec.id] = (prev, spec.skip_source)
            elif spec.skip_source is not None:
                inputs[spec.id] = (spec.skip_source,)
            else:
                inputs[spec.id] = (prev,)
            prev = spec.id
        self._memo.update(index=index, inputs=inputs)
        self.infer_shapes()

    def infer_shapes(self, channels=None) -> dict[int, tuple]:
        """Propagate the input shape through every layer.

        Returns a map layer_id -> output shape, either (C, H, W) or (F,),
        with -1 for the network input. `channels` ({conv id: out channels})
        costs a pruned configuration on this architecture: overridden convs
        produce that many channels, and downstream input channel and feature
        counts follow the propagated shapes instead of the specs. The
        unpruned shapes are kept from validation; each call returns a fresh
        map. Raises ConfigurationError naming the first inconsistent layer.
        """
        if channels is None:
            return dict(self.kept("shapes", lambda: self._walk(None)))
        return self._walk(channels)

    def _walk(self, channels) -> dict[int, tuple]:
        shapes: dict[int, tuple] = {-1: self.input_shape}
        resolve = shapes.__getitem__
        for spec in self.layers:
            ins = [*map(resolve, self.input_ids(spec.id))]
            try:
                shapes[spec.id] = KINDS[spec.kind].out_shape(spec, ins, channels)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"layer {spec.id} ({spec.kind}): {exc}") from None
        last = self.layers[-1]
        out = shapes[last.id]
        if out != (self.num_classes,):
            raise ConfigurationError(
                f"final layer {last.id} produces shape {out}, expected "
                f"({self.num_classes},)"
            )
        return shapes

    def param_shapes(self) -> dict[int, dict]:
        """{layer id: {parameter name: shape}} for every layer that holds
        parameters, in layer order. Callers must not edit it."""
        def compute():
            shapes = self.infer_shapes()
            return {s.id: KINDS[s.kind].shapes(s, shapes[s.id])
                    for s in self.layers if KINDS[s.kind].shapes}
        return self.kept("param_shapes", compute)

    def arch_hash(self) -> str:
        # on first use, not at construction: most archs (the preset
        # catalog's) are never hashed
        return self.kept("hash", lambda: hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16])

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
                    in_channels=int(r.get("in_channels", 0)),
                    out_channels=int(r.get("out_channels", 0)),
                    kernel=int(r.get("kernel", 0)),
                    stride=int(r.get("stride", 1)),
                    padding=int(r.get("padding", 0)),
                    skip_source=(None if r.get("skip_source") is None
                                 else int(r["skip_source"])),
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
        write_file(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path) -> "NetworkArch":
        try:
            with open(path) as f:
                record = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot read architecture file {path!r}: {exc}") from exc
        return cls.from_dict(record)

    def drop_layers(self, layer_ids) -> "NetworkArch":
        """Return a copy with the given layers removed (shape-revalidated)."""
        doomed = set(layer_ids)
        missing = doomed - set(self._memo["index"])
        if missing:
            raise ConfigurationError(f"cannot remove unknown layers {sorted(missing)}")
        kept = [l for l in self.layers if l.id not in doomed]
        for l in kept:
            if l.skip_source in doomed:
                raise ConfigurationError(
                    f"layer {l.id}: skip_source {l.skip_source} was removed"
                )
        return NetworkArch(kept, self.input_shape, self.num_classes)


# --------------------------------------------------------- skip connections

def skip_topology(arch: NetworkArch) -> dict:
    """Resolve residual-add wiring: {add_id: {"destination": conv_id,
    "skip_convs": [conv ids on the skip path, nearest the add first]}}.

    A layer's chain is the weighted layers on its input-0 path. An add's
    destination ends its main input's chain; its skip convs are its skip
    input's chain less the main one. Resolved in one pass and kept in the
    architecture's memo; callers must not edit the result.
    """
    return arch.kept("skips", lambda: _resolve_skips(arch))


def _resolve_skips(arch: NetworkArch) -> dict:
    chains, info = {-1: ()}, {}
    for spec in arch.layers:
        main, *skip = [chains[src] for src in arch.input_ids(spec.id)]
        chains[spec.id] = main + (spec.id,) if spec.weighted else main
        if not skip:
            continue
        if not main:
            raise ConfigurationError(f"layer {spec.id}: residual-add has "
                                     "no weighted main ancestor")
        info[spec.id] = {"destination": main[-1], "skip_convs": [
            cid for cid in reversed(skip[0]) if cid not in main]}
    return info


def inherit_from_destinations(arch: NetworkArch, values: dict) -> dict:
    """The skip-connection rule: a copy of `values` ({layer id: bit-width,
    channel count or kept channels}) in which every skip-path convolution
    takes the value of its skip connection's destination layer. Skip convs
    whose destination has no value keep their own."""
    out = dict(values)
    for t in skip_topology(arch).values():
        if t["destination"] in out:
            for cid in t["skip_convs"]:
                out[cid] = out[t["destination"]]
    return out


def main_chain_weighted_ids(arch: NetworkArch) -> list[int]:
    """Weighted layers excluding those on skip paths (which carry no
    densities of their own). Kept in the architecture's memo; each call
    returns a fresh list."""
    def resolve():
        on_skip = {cid for t in skip_topology(arch).values()
                   for cid in t["skip_convs"]}
        return tuple(i for i in arch.weighted_ids() if i not in on_skip)
    return list(arch.kept("main_chain", resolve))
