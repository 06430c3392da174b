"""Independent reference implementations used as test oracles.

Most of it shares no code with the package internals and is deliberately
naive (nested loops, direct formulas). Seven pieces are the package's former
code, kept as a bit-for-bit reference: the einsum convolution kernels; the
quantizer and batchnorm forward that allocated a new array per operation;
the relu and maxpool backward that multiplied by a bool mask;
the pruning rebuild that mirrored skip-path convs onto their destinations
and walked back from each linear layer to the flatten (it builds its result
with the package's architecture and engine); the evaluation that ran the
training forward batch by batch (``predict``, ``eval_logits``); the graph
walks that resolved skip connections and AD observation points per call
(``skip_topology``, ``observation_points``); and the schedule loop that kept
its state in locals, with the classes that held its bit-widths and channel
counts (``former_run_schedule``). The outputs of the energy reports and
``reproduce`` tables need no former code: tests/golden/energy.json holds
their bytes.
"""

from dataclasses import dataclass, replace

import numpy as np

from adq.admon import ADHistory
from adq.energy import PIM_MAC_FJ
from adq.errors import ConfigurationError, InputError, TrainingDiverged
from adq.nn import engine
from adq.nn.arch import (KINDS, NetworkArch, inherit_from_destinations,
                         main_chain_weighted_ids)
from adq.nn.data import iter_batches
from adq.nn.engine import forward
from adq.nn.layers import BN_EPS
from adq.quant import QuantParams
from adq.scheduler import (_QUIET_OVERFLOW, IterationRecord, ScheduleConfig,
                           ScheduleLog, ScheduleRun, _epoch_observer, _shrink,
                           build_quantizer, default_exempt, rebuild_pruned,
                           select_pruned_channels)


def naive_conv2d(x, w, b, stride=1, padding=0):
    """Direct nested-loop 2D convolution (cross-correlation)."""
    bs, cin, h, wdt = x.shape
    cout, _, p, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - p) // stride + 1
    wo = (wdt + 2 * padding - p) // stride + 1
    out = np.zeros((bs, cout, ho, wo))
    for n in range(bs):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = b[o]
                    for c in range(cin):
                        for a in range(p):
                            for z in range(p):
                                acc += (xp[n, c, i * stride + a, j * stride + z]
                                        * w[o, c, a, z])
                    out[n, o, i, j] = acc
    return out


# The package's original im2col + ``np.einsum`` convolution kernels, kept
# verbatim as the bit-for-bit reference for the einsum-free kernels: the
# rewrite must reproduce their results and the memory layout (strides) of
# every array they return, because downstream reductions follow strides.

def _im2col(x: np.ndarray, kernel: int, stride: int, padding: int):
    b, c, h, w = x.shape
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if padding:
        xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
    else:
        xp = x
    cols = np.empty((b, c, kernel, kernel, ho, wo), dtype=x.dtype)
    for i in range(kernel):
        hi = i + stride * ho
        for j in range(kernel):
            wj = j + stride * wo
            cols[:, :, i, j, :, :] = xp[:, :, i:hi:stride, j:wj:stride]
    return cols.reshape(b, c * kernel * kernel, ho * wo), (ho, wo)


def _col2im(gcols: np.ndarray, x_shape, kernel: int, stride: int, padding: int,
            ho: int, wo: int):
    b, c, h, w = x_shape
    gcols = gcols.reshape(b, c, kernel, kernel, ho, wo)
    gxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=gcols.dtype)
    for i in range(kernel):
        hi = i + stride * ho
        for j in range(kernel):
            wj = j + stride * wo
            gxp[:, :, i:hi:stride, j:wj:stride] += gcols[:, :, i, j, :, :]
    if padding:
        return gxp[:, :, padding:padding + h, padding:padding + w]
    return gxp


def einsum_conv2d_forward(x, weight, bias, stride=1, padding=0):
    """x: (B, Cin, H, W); weight: (Cout, Cin, p, p); bias: (Cout,)."""
    cout, cin, p, _ = weight.shape
    cols, (ho, wo) = _im2col(x, p, stride, padding)
    wmat = weight.reshape(cout, cin * p * p)
    out = np.einsum("of,bfn->bon", wmat, cols, optimize=True)
    out += bias[None, :, None]
    out = out.reshape(x.shape[0], cout, ho, wo)
    cache = (x.shape, cols, weight, stride, padding, ho, wo)
    return out, cache


def einsum_conv2d_backward(cache, gout):
    x_shape, cols, weight, stride, padding, ho, wo = cache
    b = x_shape[0]
    cout, cin, p, _ = weight.shape
    gmat = gout.reshape(b, cout, ho * wo)
    gw = np.einsum("bon,bfn->of", gmat, cols, optimize=True).reshape(weight.shape)
    gb = gout.sum(axis=(0, 2, 3))
    wmat = weight.reshape(cout, cin * p * p)
    gcols = np.einsum("of,bon->bfn", wmat, gmat, optimize=True)
    gx = _col2im(gcols, x_shape, p, stride, padding, ho, wo)
    return gx, {"w": gw, "b": gb}


# The package's former fake quantization and batchnorm forward, kept
# verbatim as the bit-for-bit reference for the in-place versions: values
# and the memory layout (strides) of every returned array must match.

def quantize(x, qp: QuantParams):
    """Map values to integer levels in [0, 2^k - 1] (float64 array of ints)."""
    x = np.asarray(x, dtype=np.float64)
    if qp.degenerate:
        return np.zeros_like(x)
    clamped = np.clip(x, qp.x_min, qp.x_max)
    scaled = (clamped - qp.x_min) * (qp.levels / (qp.x_max - qp.x_min))
    return np.floor(scaled + 0.5)  # round_half_away, as scaled >= 0


def dequantize(levels, qp: QuantParams):
    levels = np.asarray(levels, dtype=np.float64)
    if np.any(levels < 0) or np.any(levels > qp.levels):
        raise InputError(f"levels outside [0, {qp.levels}]")
    if qp.degenerate:
        return np.full_like(levels, qp.x_min)
    return levels * ((qp.x_max - qp.x_min) / qp.levels) + qp.x_min


def fake_quant(x, qp: QuantParams):
    """Quantize-then-dequantize; idempotent for fixed params."""
    x = np.asarray(x, dtype=np.float64)
    if qp.degenerate:
        return x.copy()
    return dequantize(quantize(x, qp), qp)


def ste_mask(x, qp: QuantParams):
    return (np.asarray(x) >= qp.x_min) & (np.asarray(x) <= qp.x_max)


def relu_backward(cache, gout):
    return gout * cache, {}


def maxpool_backward(cache, gout):
    x_shape, k, s, ho, wo, arg = cache
    gx = np.zeros(x_shape, dtype=gout.dtype)
    for i in range(k):
        for j in range(k):
            sel = arg == i * k + j
            gx[:, :, i:i + s * ho:s, j:j + s * wo:s] += gout * sel
    return gx, {}


def _bn_axes(x):
    return (0, 2, 3) if x.ndim == 4 else (0,)


def _bn_bcast(v, x):
    return v[None, :, None, None] if x.ndim == 4 else v[None, :]


def batchnorm_forward(x, gamma, beta, running_mean, running_var, training,
                      momentum=0.1):
    """Per-channel normalization. Running stats are updated in place when
    training; evaluation normalizes with the stored running stats."""
    axes = _bn_axes(x)
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - _bn_bcast(mean, x)) * _bn_bcast(inv_std, x)
    out = _bn_bcast(gamma, x) * xhat + _bn_bcast(beta, x)
    return out, (xhat, gamma, inv_std, training, x.shape)


def naive_maxpool(x, k, stride):
    bs, c, h, w = x.shape
    s = stride if stride else k
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    out = np.zeros((bs, c, ho, wo))
    for n in range(bs):
        for cc in range(c):
            for i in range(ho):
                for j in range(wo):
                    out[n, cc, i, j] = x[n, cc, i * s:i * s + k,
                                         j * s:j * s + k].max()
    return out


def naive_avgpool(x, k, stride):
    bs, c, h, w = x.shape
    s = stride if stride else k
    ho = (h - k) // s + 1
    wo = (w - k) // s + 1
    out = np.zeros((bs, c, ho, wo))
    for n in range(bs):
        for cc in range(c):
            for i in range(ho):
                for j in range(wo):
                    out[n, cc, i, j] = x[n, cc, i * s:i * s + k,
                                         j * s:j * s + k].mean()
    return out


def naive_linear(x, w, b):
    bs, f = x.shape
    o = w.shape[0]
    out = np.zeros((bs, o))
    for n in range(bs):
        for yy in range(o):
            acc = b[yy]
            for xx in range(f):
                acc += x[n, xx] * w[yy, xx]
            out[n, yy] = acc
    return out


def softmax_xent_direct(logits, labels):
    """Direct per-row evaluation of mean cross-entropy."""
    total = 0.0
    for row, lab in zip(logits, labels):
        e = np.exp(row - row.max())
        pr = e / e.sum()
        total += -np.log(pr[lab])
    return total / len(labels)


def central_difference(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def quantize_exact(x, k, lo, hi):
    """Affine quantization evaluated with exact Fraction arithmetic."""
    from fractions import Fraction
    levels = 2 ** k - 1
    xs = np.clip(np.asarray(x, dtype=np.float64), lo, hi)
    out = np.zeros_like(xs)
    flo, fhi = Fraction(lo), Fraction(hi)
    it = np.nditer(xs, flags=["multi_index"])
    while not it.finished:
        v = Fraction(float(it[0]))
        scaled = (v - flo) * levels / (fhi - flo)
        # round half away from zero
        n = scaled.numerator
        d = scaled.denominator
        q, r = divmod(abs(n), d)
        level = q + (1 if 2 * r >= d else 0)
        if scaled < 0:
            level = -level
        out[it.multi_index] = level
        it.iternext()
    return out


# ------------------------------------------------ former pruning rebuild

def mirroring_rebuild_pruned(arch: NetworkArch, state: engine.TrainState,
                             channels: dict, kept: dict):
    """Build a new architecture/state with only the kept channels.

    Surviving channels carry their weights; input slices corresponding to
    removed upstream channels are dropped. Residual-add inputs must keep
    matching channel counts, which holds when every skip edge carries a
    projection convolution tied to the destination layer.
    """
    topo = skip_topology(arch)
    # force skip-path convs to mirror their destination's kept set size
    kept = dict(kept)
    for add_id, t in topo.items():
        dsel = kept.get(t["destination"])
        for cid in t["skip_convs"]:
            if dsel is None:
                continue
            own = kept.get(cid, list(range(arch.layer(cid).out_channels)))
            if len(own) != len(dsel):
                own = own[:len(dsel)]
                if len(own) < len(dsel):
                    pool = [i for i in range(arch.layer(cid).out_channels)
                            if i not in own]
                    own = sorted(own + pool[:len(dsel) - len(own)])
            kept[cid] = own

    out_sel: dict[int, list] = {-1: list(range(arch.input_shape[0]))}
    new_layers = []
    new_weights = {}
    shapes = arch.infer_shapes()

    for spec in arch.layers:
        srcs = arch.input_ids(spec.id)
        new_spec = spec
        if spec.kind == "residual-add":
            main_sel, skip_sel = out_sel[srcs[0]], out_sel[srcs[1]]
            if len(main_sel) != len(skip_sel):
                raise ConfigurationError(
                    f"layer {spec.id}: residual-add channel counts diverge "
                    f"({len(main_sel)} vs {len(skip_sel)}); pruning a skip "
                    "connection requires a projection convolution")
            out_sel[spec.id] = main_sel
        elif spec.kind == "conv2d":
            in_sel = out_sel[srcs[0]]
            sel = kept.get(spec.id, list(range(spec.out_channels)))
            w = state.weights[spec.id]["w"][np.ix_(sel, in_sel)]
            b = state.weights[spec.id]["b"][sel]
            new_spec = replace(spec, in_channels=len(in_sel),
                               out_channels=len(sel))
            new_weights[spec.id] = {"w": w.copy(), "b": b.copy()}
            out_sel[spec.id] = sel
        elif spec.kind == "linear":
            in_sel = out_sel[srcs[0]]
            if len(shapes[srcs[0]]) == 1:
                feats = _linear_feature_selection(arch, spec.id, in_sel, shapes)
            else:
                feats = in_sel
            w = state.weights[spec.id]["w"][:, feats]
            new_spec = replace(spec, in_channels=len(feats))
            new_weights[spec.id] = {"w": w.copy(),
                                    "b": state.weights[spec.id]["b"].copy()}
            out_sel[spec.id] = list(range(spec.out_channels))
        elif spec.kind == "batchnorm":
            sel = out_sel[srcs[0]]
            p = state.weights[spec.id]
            new_weights[spec.id] = {k: p[k][sel].copy() for k in p}
            out_sel[spec.id] = sel
        else:
            out_sel[spec.id] = out_sel[srcs[0]]
        new_layers.append(new_spec)

    new_arch = NetworkArch(new_layers, arch.input_shape, arch.num_classes)
    new_state = engine.init_state(new_arch, state.rng_seed)
    new_state.rng = state.rng
    new_state.epoch = state.epoch
    # fresh Adam moments: the parameter space changed shape
    for lid, params in new_weights.items():
        for name, arr in params.items():
            new_state.weights[lid][name] = arr
    return new_arch, new_state


def _linear_feature_selection(arch, linear_id, channel_sel, shapes):
    """Map kept channels through a flatten into linear feature indices."""
    src = arch.input_ids(linear_id)[0]
    # walk back to the flatten's (C, H, W) input
    spec = arch.layer(src)
    while spec.kind != "flatten":
        src = arch.input_ids(src)[0]
        if src == -1:
            return channel_sel
        spec = arch.layer(src)
    c_, h_, w_ = shapes[arch.input_ids(spec.id)[0]]
    per = h_ * w_
    feats = []
    for c in channel_sel:
        feats.extend(range(c * per, (c + 1) * per))
    return feats


# ------------------------------------------------------ former evaluation

def predict(arch, state, x, quantizer=None, batch_size=256):
    """Class predictions in evaluation mode."""
    outs = []
    for i in range(0, len(x), batch_size):
        logits, _ = forward(arch, state, x[i:i + batch_size],
                            quantizer=quantizer, training=False)
        outs.append(np.argmax(logits, axis=1))
    return np.concatenate(outs) if outs else np.empty(0, dtype=int)


def eval_logits(arch, state, x, quantizer=None, batch_size=256,
                observe=None):
    """``engine.eval_logits`` as the former strict AD pass computed it: the
    training forward, batch by batch, in evaluation mode."""
    logits = [forward(arch, state, x[i:i + batch_size], observe,
                      quantizer=quantizer, training=False)[0]
              for i in range(0, len(x), batch_size)]
    return (np.concatenate(logits) if logits
            else np.empty((0, arch.num_classes)))


# -------------------------------------------- former skip and AD-site walks

def skip_topology(arch: NetworkArch) -> dict:
    """Resolve residual-add wiring.

    Returns {add_id: {"destination": conv_id, "skip_convs": [conv ids on the
    skip path]}}. The destination of a skip connection is the weighted layer
    feeding the residual-add on the main branch; skip-path convolutions are
    the weighted layers reachable from the skip input before it rejoins the
    main branch.
    """
    info = {}
    for spec in arch.layers:
        if spec.kind != "residual-add":
            continue
        main_src, skip_src = arch.input_ids(spec.id)
        dest = _weighted_ancestor(arch, main_src)
        if dest is None:
            raise ConfigurationError(
                f"layer {spec.id}: residual-add has no weighted main ancestor")
        main_anc = _ancestry(arch, main_src)
        skip_convs = []
        cur = skip_src
        while cur not in main_anc and cur != -1:
            if arch.layer(cur).weighted:
                skip_convs.append(cur)
            cur = arch.input_ids(cur)[0]
        info[spec.id] = {"destination": dest, "skip_convs": skip_convs}
    return info


def _ancestry(arch, layer_id):
    seen = set()
    cur = layer_id
    while cur != -1 and cur not in seen:
        seen.add(cur)
        cur = arch.input_ids(cur)[0]
    seen.add(-1)
    return seen


def _weighted_ancestor(arch, layer_id):
    cur = layer_id
    while cur != -1:
        if arch.layer(cur).weighted:
            return cur
        cur = arch.input_ids(cur)[0]
    return None


def observation_points(arch: NetworkArch) -> dict[int, tuple[int, bool]]:
    """Map each weighted layer to its activation observation point.

    Returns {weighted_layer_id: (observed_layer_id, observed_is_relu)}. The
    observation point is the first ReLU downstream of the layer before the
    next weighted layer; a weighted layer with no such ReLU (e.g. the final
    classifier) observes its own raw output.
    """
    points = {}
    layers = arch.layers
    for i, spec in enumerate(layers):
        if not spec.weighted:
            continue
        found = None
        for nxt in layers[i + 1:]:
            if nxt.weighted:
                break
            if KINDS[nxt.kind].observed:
                found = nxt.id
                break
        if found is None:
            points[spec.id] = (spec.id, False)
        else:
            points[spec.id] = (found, True)
    return points


# ------------------------------------------------------- former schedule
# The package's former ``run_schedule`` (renamed ``former_run_schedule``),
# ``_test_accuracy`` and ``_train_epoch`` verbatim: the schedule's state in
# locals, and the epoch body written out in both loops. It returns the
# package's ``ScheduleRun``. Its ``diagnostics_dir`` option and the
# diverged checkpoint it wrote are gone, as from ``run_schedule``. The
# classes that held its bit-widths and channel counts, with their update
# rules, are the package's former ``BitWidthAssignment``, ``PruneState``,
# ``update_bitwidths`` and ``update_channels`` verbatim; its calls of the
# package's quantizer, channel selection and rebuild, its callback call and
# the run it returns pass their dicts.

@dataclass
class BitWidthAssignment:
    k: dict  # weighted layer id -> bit width
    exempt: frozenset

    @classmethod
    def initial(cls, arch: NetworkArch,
                initial_bits: int) -> "BitWidthAssignment":
        return cls(k={i: initial_bits for i in arch.weighted_ids()},
                   exempt=default_exempt(arch))


@dataclass
class PruneState:
    channels: dict           # conv layer id -> current channel count
    initial_channels: dict   # conv layer id -> original channel count

    @classmethod
    def initial(cls, arch: NetworkArch) -> "PruneState":
        ch = {i: arch.layer(i).out_channels for i in arch.conv_ids()}
        return cls(channels=dict(ch), initial_channels=dict(ch))


def update_bitwidths(assignment: BitWidthAssignment,
                     ad_per_layer: dict) -> BitWidthAssignment:
    """k_l <- round(k_l * AD_l), clamped to >= 1; exempt layers unchanged."""
    return BitWidthAssignment(
        _shrink(assignment.k, assignment.k, ad_per_layer, assignment.exempt),
        assignment.exempt)


def update_channels(prune_state: PruneState,
                    ad_per_layer: dict, from_initial: bool = True) -> PruneState:
    """C_l <- round(C_ref * AD_l) clamped to [1, current]; C_ref is the
    original width by default (the alternative multiplies the current width)."""
    refs = (prune_state.initial_channels if from_initial
            else prune_state.channels)
    return PruneState(_shrink(prune_state.channels, refs, ad_per_layer),
                      dict(prune_state.initial_channels))


@dataclass
class FormerRun(ScheduleRun):
    """A ScheduleRun with the former loop's original channel counts in
    place of the unpruned network, which that loop did not keep
    (``unpruned`` is None)."""
    initial_channels: dict | None = None


def _run(arch, state, assignment, prune_state, log, history, quantizer=None):
    """The package's ScheduleRun of the former loop's locals."""
    return FormerRun(
        arch, state, assignment.k,
        None if prune_state is None else prune_state.channels,
        None, log, history, quantizer,
        initial_channels=(None if prune_state is None
                          else prune_state.initial_channels))


def former_run_schedule(arch: NetworkArch, dataset, config: ScheduleConfig,
                        seed: int = 0,
                        optim: engine.OptimConfig | None = None,
                        iteration_callback=None) -> ScheduleRun:
    """Execute the full quantization (and optional pruning) schedule.

    iteration_callback, when given, is invoked after each completed iteration
    as callback(run, record).
    """
    config.validate()
    optim = optim or engine.OptimConfig()
    optim.validate()
    if config.remove_layers:
        arch = arch.drop_layers(config.remove_layers)

    state = engine.init_state(arch, seed)
    assignment = BitWidthAssignment.initial(arch, config.initial_bits)
    prune_state = PruneState.initial(arch) if config.pruning_enabled else None
    history = ADHistory()
    log = ScheduleLog()
    trackers = {}  # activation ranges, carried from phase to phase
    epoch_global = 0

    for it in range(1, config.max_iters + 1):
        quantizer = build_quantizer(arch, assignment.k, config, trackers)
        iter_epochs = []
        for _ in range(config.epoch_budget):
            epoch_global += 1
            loss, scores = _train_epoch(arch, state, quantizer, dataset,
                                        config, optim, history, epoch_global)
            acc = _test_accuracy(arch, state, dataset, quantizer)
            log.epoch_accuracy.append((epoch_global, acc))
            iter_epochs.append(epoch_global)
            if history.is_saturated(config.saturation_epsilon,
                                    config.saturation_window,
                                    epochs=iter_epochs):
                break

        ad = {lid: history.layer_ad(lid, epoch_global)
              for lid in main_chain_weighted_ids(arch)}
        record = IterationRecord(
            iter=it, bits=dict(assignment.k),
            channels=None if prune_state is None else dict(prune_state.channels),
            epochs=len(iter_epochs),
            network_ad=history.network_ad(epoch_global,
                                          config.network_ad_mode),
            test_accuracy=log.epoch_accuracy[-1][1],
            train_loss=loss)
        log.iterations.append(record)
        if iteration_callback is not None:
            iteration_callback(_run(arch, state, assignment, prune_state,
                                    log, history), record)

        new_assignment = update_bitwidths(assignment, ad)
        new_assignment.k = inherit_from_destinations(arch, new_assignment.k)
        new_prune = prune_state
        if prune_state is not None:
            new_prune = update_channels(prune_state, ad,
                                        from_initial=config.prune_from_initial)
            new_prune.channels = inherit_from_destinations(
                arch, new_prune.channels)
        bits_fixed = new_assignment.k == assignment.k
        chans_fixed = prune_state is None or new_prune.channels == prune_state.channels
        if bits_fixed and chans_fixed:
            assignment = new_assignment
            break
        if prune_state is not None and not chans_fixed:
            # skip-path convs keep their destination's channels
            kept = inherit_from_destinations(
                arch, select_pruned_channels(new_prune.channels, scores))
            arch, state = rebuild_pruned(arch, state, new_prune.channels, kept)
            trackers = {}  # channel identities changed
        assignment, prune_state = new_assignment, new_prune

    # final convergence phase at the fixed assignment
    quantizer = build_quantizer(arch, assignment.k, config, trackers)
    for _ in range(config.final_convergence_epochs):
        epoch_global += 1
        log.final_epochs += 1
        _train_epoch(arch, state, quantizer, dataset, config, optim,
                     history, epoch_global)
        acc = _test_accuracy(arch, state, dataset, quantizer)
        log.epoch_accuracy.append((epoch_global, acc))
    # the last final epoch evaluated this state and quantizer already; with
    # no final epochs the assignment, and so the quantizer, changed since
    # the last evaluation
    if not config.final_convergence_epochs:
        acc = _test_accuracy(arch, state, dataset, quantizer)
    log.final_accuracy = acc
    return _run(arch, state, assignment, prune_state, log, history, quantizer)


def _test_accuracy(arch, state, dataset, quantizer) -> float:
    with np.errstate(**_QUIET_OVERFLOW):
        return engine.accuracy(arch, state, dataset.x_test, dataset.y_test,
                               quantizer)


def _train_epoch(arch, state, quantizer, dataset, config, optim, history,
                 epoch):
    """Train one epoch, recording its AD into history. Returns the mean
    loss and, when pruning, each conv's positive fraction per channel over
    the epoch's observed activations ({} otherwise)."""
    observe, counts = _epoch_observer(arch, history, epoch,
                                      config.pruning_enabled)
    losses = []
    with np.errstate(**_QUIET_OVERFLOW):
        for bx, by in iter_batches(dataset.x_train, dataset.y_train,
                                   config.batch_size, state.rng):
            logits, cache = engine.forward(
                arch, state, bx, None if config.strict_ad_pass else observe,
                quantizer=quantizer, training=True)
            loss, lgrad = engine.loss_softmax_xent(logits, by)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
            grads, _ = engine.backward(arch, state, cache, lgrad)
            engine.optimizer_step(state, grads, optim)
            losses.append(loss)
        if config.strict_ad_pass:
            # dedicated full-train-set pass with the post-epoch model
            engine.eval_logits(arch, state, dataset.x_train, quantizer,
                               config.batch_size, observe)
    state.epoch = epoch
    scores = {lid: pos / n for lid, (pos, n) in counts.items()}
    return float(np.mean(losses)), scores


def energy_report_dict(model, arch, bits, channels=None, baseline_bits=16):
    """``EnergyReport.to_dict()`` from the README's formulas, at the shapes
    of ``arch.infer_shapes(channels)``; a linear layer is a 1x1 conv on a
    1x1 map. The baseline is uniform `baseline_bits`, unpruned."""
    def rows(shapes, bits):
        for spec in arch.layers:
            if spec.kind not in ("conv2d", "linear"):
                continue
            i, n, *_ = shapes[arch.input_ids(spec.id)[0]] + (1,)
            o, m, *_ = shapes[spec.id] + (1,)
            k, p = bits[spec.id], spec.kernel if spec.kind == "conv2d" else 1
            n_mem, n_mac = n * n * i + p * p * i * o, m * m * i * p * p * o
            if model == "pim":
                pim_k = min(s for s in PIM_MAC_FJ if s >= k)  # k rounded up
                e = n_mac * PIM_MAC_FJ[pim_k] / 1e3
            else:
                pim_k = None
                e = n_mem * (2.5 * k) + n_mac * (3.1 * k / 32 + 0.1)
            yield {"layer_id": spec.id, "kind": spec.kind.replace("2d", ""),
                   "k": k, "pim_k": pim_k, "in_channels": i,
                   "out_channels": o, "n_mem": n_mem, "n_mac": n_mac,
                   "energy_pj": e, "binary_flag": k == 1}

    layers = list(rows(arch.infer_shapes(channels), bits))
    total = base = 0  # added left to right
    for row, base_row in zip(layers, rows(arch.infer_shapes(), dict.fromkeys(
            bits, baseline_bits))):
        total, base = total + row["energy_pj"], base + base_row["energy_pj"]
    return {"model": model, "baseline_bits": baseline_bits, "layers": layers,
            "total_pj": total, "total_uj": total / 1e6,
            "baseline_total_pj": base, "baseline_total_uj": base / 1e6,
            "efficiency_ratio": base / total}
