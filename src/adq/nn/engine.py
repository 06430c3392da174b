"""Forward/backward execution, loss, and the Adam update.

The engine is deterministic: given the same seed, architecture, and data it
reproduces weight trajectories bit-for-bit (single-threaded numpy, fixed
reduction orders, explicit RNG state).

Every pass runs one layer loop. ``forward`` keeps what ``backward`` reads:
each layer's output, kernel cache and straight-through masks. Forward-only
passes (``eval_logits``, and through it ``predict``, ``accuracy`` and the
scheduler's strict AD pass) keep no backward state: no kernel caches, no
masks, and no layer output past its last reader. They fake-quantize each
weight once per call rather than once per batch, and give the same logits
bit for bit. ``backward`` computes the gradient with respect to the network
input only when asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from adq.errors import (ConfigurationError, InputError, UsageError,
                        check_field_types)
from adq.nn import layers as L
from adq.nn.arch import KINDS, NetworkArch


@dataclass
class TrainState:
    weights: dict  # layer id -> {name: ndarray}
    m: dict        # Adam first moments, mirrors trainable weights
    v: dict        # Adam second moments
    step: int
    epoch: int
    rng_seed: int
    rng: np.random.Generator


def init_state(arch: NetworkArch, seed: int) -> TrainState:
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = arch.infer_shapes()
    weights, m, v = {}, {}, {}
    for spec in arch.layers:
        kind = KINDS[spec.kind]
        if kind.init is None:
            continue
        params = weights[spec.id] = kind.init(spec, shapes[spec.id], rng)
        m[spec.id] = {k: np.zeros_like(params[k]) for k in kind.trainable}
        v[spec.id] = {k: np.zeros_like(params[k]) for k in kind.trainable}
    return TrainState(weights=weights, m=m, v=v, step=0, epoch=0,
                      rng_seed=seed, rng=rng)


@dataclass
class ForwardCache:
    arch_hash: str
    # layer id -> (input ids, kernel cache, per-input STE masks, weight mask)
    entries: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # layer id -> output array


def _check_batch(arch: NetworkArch, batch):
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(arch.input_shape):
        raise ConfigurationError(
            f"batch shape {batch.shape} does not match input shape "
            f"(B, {', '.join(map(str, arch.input_shape))})"
        )
    return batch


def _kernel_params(arch: NetworkArch, state: TrainState, quantizer, masks):
    """{layer id: (its forward kernel's parameters, the weight's STE mask)}.
    A quantized layer's weights come fake-quantized; masks=False skips the
    STE masks."""
    out = {}
    for spec in arch.layers:
        kind = KINDS[spec.kind]
        params = [state.weights[spec.id][name] for name in kind.params]
        w_mask = None
        if quantizer is not None and kind.weighted:
            params[0], w_mask = quantizer.weight(spec.id, params[0], masks)
        out[spec.id] = params, w_mask
    return out


def _run_layers(arch, batch, params, quantizer, training, hooks,
                raw_observers, cache=None):
    """The layer loop of every pass; returns the logits. With a cache it
    records what backward() reads: each layer's output, kernel cache and
    STE masks. Without one it keeps none of them, and drops each output
    after its last reader."""
    keep = cache is not None
    outputs = cache.outputs if keep else {}
    outputs[-1] = batch
    if not keep:
        last_reader = {src: spec.id for spec in arch.layers
                       for src in arch.input_ids(spec.id)}
    for spec in arch.layers:
        kind = KINDS[spec.kind]
        srcs = arch.input_ids(spec.id)
        xs = [outputs[src] for src in srcs]
        masks = [None] * len(xs)
        if quantizer is not None:
            if kind.weighted:
                xs[0], masks[0] = quantizer.activation(spec.id, xs[0], keep)
            elif kind.inputs == 2:
                xs[1], masks[1] = quantizer.skip_activation(spec.id, xs[1],
                                                            keep)
        layer_params, w_mask = params[spec.id]
        # looked up per call, so a rebound kernel attribute is honoured
        out, kc = getattr(L, f"{kind.kernel}_forward")(
            *xs, *layer_params, *kind.args(spec, training))
        if kind.observed:
            for hook in hooks:
                hook(spec.id, out)
        if spec.id in raw_observers:
            for hook in hooks:
                hook(spec.id, out)
        outputs[spec.id] = out
        if keep:
            cache.entries[spec.id] = (srcs, kc, masks, w_mask)
        else:
            for src in srcs:
                if last_reader[src] == spec.id:
                    outputs.pop(src, None)  # an add may read one layer twice
    return out


def forward(arch: NetworkArch, state: TrainState, batch, hooks=(),
            quantizer=None, training=True, raw_observers=()):
    """Run the network on a batch.

    hooks: callables ``hook(layer_id, tensor)`` invoked exactly once per ReLU
    layer per call with the post-ReLU output. raw_observers: layer ids whose
    raw output is also reported to the hooks (used for weighted layers with
    no downstream ReLU).
    Returns (logits, cache); cache feeds backward().
    """
    batch = _check_batch(arch, batch)
    cache = ForwardCache(arch_hash=arch.arch_hash())
    logits = _run_layers(arch, batch,
                         _kernel_params(arch, state, quantizer, True),
                         quantizer, training, hooks, set(raw_observers),
                         cache)
    return logits, cache


def backward(arch: NetworkArch, state: TrainState, cache: ForwardCache,
             loss_grad, input_grad=False):
    """Backpropagate loss_grad through a cached forward pass.

    Returns (grads, gx): grads is {layer_id: {param: grad}} for every
    trainable layer, gx the gradient with respect to the network input when
    input_grad is set and None otherwise. Only the gradients those need are
    computed. Gradients of quantized tensors pass through the
    straight-through masks captured at forward time.
    """
    if not isinstance(cache, ForwardCache) or not cache.entries:
        raise UsageError("backward needs the cache returned by forward()")
    if cache.arch_hash != arch.arch_hash():
        raise UsageError("cache was produced by a different architecture")

    # a tensor needs its gradient when a trainable layer made it or lies
    # upstream of it, or when it is the input and gx was asked for
    needed = {-1: input_grad}
    for spec in arch.layers:
        needed[spec.id] = bool(KINDS[spec.kind].trainable) or any(
            needed[src] for src in arch.input_ids(spec.id))
    gmap = {lid: None for lid in cache.outputs}
    gmap[arch.layers[-1].id] = np.asarray(loss_grad, dtype=np.float64)
    grads = {}

    def route(target, g):
        if gmap.get(target) is None:
            gmap[target] = g.copy()
        else:
            gmap[target] += g

    for spec in reversed(arch.layers):
        gout = gmap.get(spec.id)
        if gout is None or not needed[spec.id]:
            continue  # dead branch, or nothing upstream to train
        kind = KINDS[spec.kind]
        srcs, kc, masks, w_mask = cache.entries[spec.id]
        kernel = getattr(L, f"{kind.kernel}_backward")
        if kind.trainable and not needed[srcs[0]]:
            gin, pg = kernel(kc, gout, input_grad=False)
        else:
            gin, pg = kernel(kc, gout)
        if kind.inputs == 2:  # the add kernel returns (main, skip) gradients
            gins = (gin, pg)
        else:
            gins = (gin,)
            if w_mask is not None:
                pg["w"] = pg["w"] * w_mask
            if kind.trainable:
                grads[spec.id] = pg
        for src, g, mask in zip(srcs, gins, masks):
            if needed[src]:
                route(src, g if mask is None else g * mask)

    return grads, gmap.get(-1)


def loss_softmax_xent(logits, labels):
    """Mean softmax cross-entropy. Returns (loss, grad wrt logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), labels].mean()
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


@dataclass
class OptimConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def validate(self):
        check_field_types(self)
        if not self.lr > 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ConfigurationError(f"eps must be > 0, got {self.eps!r}")
        if not self.weight_decay >= 0:
            raise ConfigurationError(
                f"weight_decay must be >= 0, got {self.weight_decay!r}")


def optimizer_step(state: TrainState, grads: dict, config: OptimConfig):
    """One Adam step with bias correction, applied in place."""
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for lid, pg in grads.items():
        params = state.weights[lid]
        for name, g in pg.items():
            if g.shape != params[name].shape:
                raise InputError(
                    f"layer {lid}: gradient shape {g.shape} != weight shape "
                    f"{params[name].shape}"
                )
            if config.weight_decay:
                g = g + config.weight_decay * params[name]
            m = state.m[lid][name]
            v = state.v[lid][name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            mhat = m / c1
            vhat = v / c2
            params[name] -= config.lr * mhat / (np.sqrt(vhat) + config.eps)
    return state


def eval_logits(arch, state, x, quantizer=None, batch_size=256, hooks=(),
                raw_observers=()):
    """Logits of x in evaluation mode, batch_size samples per layer loop.

    The loop is forward()'s, keeping no backward state, and the weights are
    fake-quantized once per call. hooks and raw_observers are forward()'s.
    The quantizer's ranges stay frozen and its mode is restored on return.
    """
    raw_observers = set(raw_observers)
    was_training = getattr(quantizer, "training", None)
    if quantizer is not None:
        quantizer.training = False
    try:
        params = _kernel_params(arch, state, quantizer, False)
        logits = [_run_layers(arch, _check_batch(arch, x[i:i + batch_size]),
                              params, quantizer, False, hooks, raw_observers)
                  for i in range(0, len(x), batch_size)]
    finally:
        if quantizer is not None and was_training is not None:
            quantizer.training = was_training
    return (np.concatenate(logits) if logits
            else np.empty((0, arch.num_classes)))


def predict(arch, state, x, quantizer=None, batch_size=256):
    """Class predictions in evaluation mode."""
    return np.argmax(eval_logits(arch, state, x, quantizer, batch_size),
                     axis=1)


def accuracy(arch, state, x, y, quantizer=None, batch_size=256):
    return float(np.mean(predict(arch, state, x, quantizer, batch_size) == y))
