"""Forward/backward execution, loss, and the Adam update.

The engine is deterministic: given the same seed, architecture, and data it
reproduces weight trajectories bit-for-bit (single-threaded numpy, fixed
reduction orders, explicit RNG state).

Every pass runs one layer loop, which drops each layer output after its
last reader. ``forward`` keeps what ``backward`` reads: each layer's kernel
cache and straight-through masks, not its output. Forward-only passes
(``eval_logits``, and through it ``predict``, ``accuracy`` and the
scheduler's strict AD pass) keep no backward state. They fake-quantize each
weight once per call rather than once per batch, and give the same logits
bit for bit. ``backward`` computes the gradient with respect to the network
input only when asked for it. It frees each layer's cache as it uses it, so
a cache feeds one backward, and drops each layer's gradient once it has
passed it on.
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
    weights, m, v = {}, {}, {}
    for lid, shapes in arch.param_shapes().items():
        kind = KINDS[arch.layer(lid).kind]
        params = weights[lid] = kind.init(shapes, rng)
        m[lid] = {k: np.zeros_like(params[k]) for k in kind.trainable}
        v[lid] = {k: np.zeros_like(params[k]) for k in kind.trainable}
    return TrainState(weights=weights, m=m, v=v, step=0, epoch=0,
                      rng_seed=seed, rng=rng)


@dataclass
class ForwardCache:
    arch_hash: str
    # layer id -> (input ids, kernel cache, per-input STE masks); backward
    # pops each entry as it uses it, so a cache feeds one backward
    entries: dict = field(default_factory=dict)


def _check_batch(arch: NetworkArch, batch):
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 4 or tuple(batch.shape[1:]) != tuple(arch.input_shape):
        raise ConfigurationError(
            f"batch shape {batch.shape} does not match input shape "
            f"(B, {', '.join(map(str, arch.input_shape))})"
        )
    return batch


def _kernel_params(arch: NetworkArch, state: TrainState, quantizer):
    """{layer id: its forward kernel's parameters}. A quantized layer's
    weights come fake-quantized."""
    out = {}
    for spec in arch.layers:
        kind = KINDS[spec.kind]
        params = [state.weights[spec.id][name] for name in kind.params]
        if quantizer is not None and kind.weighted:
            params[0] = quantizer.weight(spec.id, params[0])
        out[spec.id] = params
    return out


def _run_layers(arch, batch, params, quantizer, training, observe, cache=None):
    """The layer loop of every pass; returns the logits. Each output is
    dropped after its last reader. With a cache it records what backward()
    reads: each layer's kernel cache and STE masks. observe is forward()'s,
    or {}."""
    keep = cache is not None
    last_reader = arch.kept("last_reader", lambda: {
        src: spec.id for spec in arch.layers
        for src in arch.input_ids(spec.id)})
    outputs = {-1: batch}
    for spec in arch.layers:
        kind = KINDS[spec.kind]
        srcs = arch.input_ids(spec.id)
        xs = [outputs[src] for src in srcs]
        masks = [None] * len(xs)
        if quantizer is not None:
            if kind.weighted:
                xs[0], masks[0] = quantizer.activation(spec.id, xs[0],
                                                       training, keep)
            elif kind.inputs == 2:
                xs[1], masks[1] = quantizer.skip_activation(spec.id, xs[1],
                                                            training, keep)
        # looked up per call, so a rebound kernel attribute is honoured
        out, kc = getattr(L, f"{kind.kernel}_forward")(
            *xs, *params[spec.id], *kind.args(spec, training))
        if spec.id in observe:
            observe[spec.id](out)
        outputs[spec.id] = out
        if keep:
            cache.entries[spec.id] = (srcs, kc, masks)
        for src in srcs:
            if last_reader[src] == spec.id:
                outputs.pop(src, None)  # an add may read one layer twice
    return out


def forward(arch: NetworkArch, state: TrainState, batch, observe=None,
            quantizer=None, training=True):
    """Run the network on a batch.

    observe: {layer id: callable(output)}; each callable is invoked exactly
    once per call with its layer's output, and no other layer's output is
    reported (the scheduler's AD sites). training selects batchnorm's batch
    statistics and lets the quantizer's activation ranges move. Returns
    (logits, cache); cache feeds one backward().
    """
    batch = _check_batch(arch, batch)
    cache = ForwardCache(arch_hash=arch.arch_hash())
    logits = _run_layers(arch, batch,
                         _kernel_params(arch, state, quantizer),
                         quantizer, training, observe or {}, cache)
    return logits, cache


def backward(arch: NetworkArch, state: TrainState, cache: ForwardCache,
             loss_grad, input_grad=False):
    """Backpropagate loss_grad through a cached forward pass.

    Returns (grads, gx): grads is {layer_id: {param: grad}} for every
    trainable layer, gx the gradient with respect to the network input when
    input_grad is set and None otherwise. Only the gradients those need are
    computed. Gradients of quantized activations pass through the
    straight-through masks captured at forward time; a weight's range is
    its own [min, max], so its gradient passes whole. The cache is consumed:
    a second backward on it raises UsageError.
    """
    if not isinstance(cache, ForwardCache) or not cache.entries:
        raise UsageError("backward needs an unused cache returned by "
                         "forward()")
    if cache.arch_hash != arch.arch_hash():
        raise UsageError("cache was produced by a different architecture")

    # a tensor needs its gradient when a trainable layer made it or lies
    # upstream of it, or when it is the input and gx was asked for
    needed = {-1: input_grad}
    for spec in arch.layers:
        needed[spec.id] = bool(KINDS[spec.kind].trainable) or any(
            needed[src] for src in arch.input_ids(spec.id))
    gmap = {arch.layers[-1].id: np.asarray(loss_grad, dtype=np.float64)}
    grads = {}

    def route(target, g):
        if target in gmap:
            gmap[target] += g
        else:
            gmap[target] = g.copy()

    for spec in reversed(arch.layers):
        # popped: only the caches not yet used and the gradients not yet
        # passed on stay alive
        srcs, kc, masks = cache.entries.pop(spec.id)
        gout = gmap.pop(spec.id, None)
        if gout is None or not needed[spec.id]:
            continue  # dead branch, or nothing upstream to train
        kind = KINDS[spec.kind]
        kernel = getattr(L, f"{kind.kernel}_backward")
        if kind.trainable and not needed[srcs[0]]:
            gin, pg = kernel(kc, gout, input_grad=False)
        else:
            gin, pg = kernel(kc, gout)
        if kind.inputs == 2:  # the add kernel returns (main, skip) gradients
            gins = (gin, pg)
        else:
            gins = (gin,)
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


def eval_logits(arch, state, x, quantizer=None, batch_size=256, observe=None):
    """Logits of x in evaluation mode, batch_size samples per layer loop.

    The loop is forward()'s, keeping no backward state, and the weights are
    fake-quantized once per call. observe is forward()'s, called per batch.
    It is not a training pass, so the quantizer's ranges stay frozen.
    """
    params = _kernel_params(arch, state, quantizer)
    logits = [_run_layers(arch, _check_batch(arch, x[i:i + batch_size]),
                          params, quantizer, False, observe or {})
              for i in range(0, len(x), batch_size)]
    return (np.concatenate(logits) if logits
            else np.empty((0, arch.num_classes)))


def predict(arch, state, x, quantizer=None, batch_size=256):
    """Class predictions in evaluation mode."""
    return np.argmax(eval_logits(arch, state, x, quantizer, batch_size),
                     axis=1)


def accuracy(arch, state, x, y, quantizer=None, batch_size=256):
    return float(np.mean(predict(arch, state, x, quantizer, batch_size) == y))
