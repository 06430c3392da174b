"""Forward/backward execution, loss, and the Adam update.

The engine is deterministic: given the same seed, architecture, and data it
reproduces weight trajectories bit-for-bit (single-threaded numpy, fixed
reduction orders, explicit RNG state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from adq.errors import ConfigurationError, InputError, UsageError
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
    training: bool
    # layer id -> (input ids, kernel cache, per-input STE masks, weight mask)
    entries: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # layer id -> output array
    batch: np.ndarray | None = None


def forward(arch: NetworkArch, state: TrainState, batch, hooks=(),
            quantizer=None, training=True, raw_observers=()):
    """Run the network on a batch.

    hooks: callables ``hook(layer_id, tensor)`` invoked exactly once per ReLU
    layer per call with the post-ReLU output. raw_observers: layer ids whose
    raw output is also reported to the hooks (used for weighted layers with
    no downstream ReLU).
    Returns (logits, cache); cache feeds backward().
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(arch.input_shape):
        raise ConfigurationError(
            f"batch shape {batch.shape} does not match input shape "
            f"(B, {', '.join(map(str, arch.input_shape))})"
        )
    cache = ForwardCache(arch_hash=arch.arch_hash(), training=training,
                         batch=batch)
    outputs = cache.outputs
    outputs[-1] = batch
    raw_observers = set(raw_observers)

    for spec in arch.layers:
        kind = KINDS[spec.kind]
        srcs = arch.input_ids(spec.id)
        xs = [outputs[src] for src in srcs]
        masks = [None] * len(xs)
        params = [state.weights[spec.id][name] for name in kind.params]
        w_mask = None
        if quantizer is not None:
            if kind.weighted:
                xs[0], masks[0] = quantizer.activation(spec.id, xs[0])
                params[0], w_mask = quantizer.weight(spec.id, params[0])
            elif kind.inputs == 2:
                xs[1], masks[1] = quantizer.skip_activation(spec.id, xs[1])
        # looked up per call, so a rebound kernel attribute is honoured
        out, kc = getattr(L, f"{kind.kernel}_forward")(
            *xs, *params, *kind.args(spec, training))
        if kind.observed:
            for hook in hooks:
                hook(spec.id, out)
        if spec.id in raw_observers:
            for hook in hooks:
                hook(spec.id, out)
        outputs[spec.id] = out
        cache.entries[spec.id] = (srcs, kc, masks, w_mask)

    logits = outputs[arch.layers[-1].id]
    return logits, cache


def backward(arch: NetworkArch, state: TrainState, cache: ForwardCache,
             loss_grad):
    """Backpropagate loss_grad through a cached forward pass.

    Returns {layer_id: {param: grad}} for every trainable layer. Gradients of
    quantized tensors pass through the straight-through masks captured at
    forward time.
    """
    if not isinstance(cache, ForwardCache) or not cache.entries:
        raise UsageError("backward needs the cache returned by forward()")
    if cache.arch_hash != arch.arch_hash():
        raise UsageError("cache was produced by a different architecture")

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
        if gout is None:
            continue  # dead branch (no consumer contributed gradient)
        kind = KINDS[spec.kind]
        srcs, kc, masks, w_mask = cache.entries[spec.id]
        gin, pg = getattr(L, f"{kind.kernel}_backward")(kc, gout)
        if kind.inputs == 2:  # the add kernel returns (main, skip) gradients
            gins = (gin, pg)
        else:
            gins = (gin,)
            if w_mask is not None:
                pg["w"] = pg["w"] * w_mask
            if kind.trainable:
                grads[spec.id] = pg
        for src, g, mask in zip(srcs, gins, masks):
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


def predict(arch, state, x, quantizer=None, batch_size=256):
    """Class predictions in evaluation mode."""
    outs = []
    was_training = getattr(quantizer, "training", None)
    if quantizer is not None:
        quantizer.training = False
    try:
        for i in range(0, len(x), batch_size):
            logits, _ = forward(arch, state, x[i:i + batch_size],
                                quantizer=quantizer, training=False)
            outs.append(np.argmax(logits, axis=1))
    finally:
        if quantizer is not None and was_training is not None:
            quantizer.training = was_training
    return np.concatenate(outs) if outs else np.empty(0, dtype=int)


def accuracy(arch, state, x, y, quantizer=None, batch_size=256):
    return float(np.mean(predict(arch, state, x, quantizer, batch_size) == y))
