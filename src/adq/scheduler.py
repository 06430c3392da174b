"""In-training compression schedule: train to density saturation, shrink
per-layer bit-widths (and optionally channel counts) from the measured
densities, rebuild, and repeat until the assignment reaches its fixed point.

Bit-widths follow k_l <- round(k_l * AD_l) clamped to >= 1; channel counts
follow C_l <- round(C_initial_l * AD_l) clamped to >= 1. The first weighted
layer and the final fully-connected layer are exempt from bit-width changes.
Layers on residual skip paths carry no densities of their own: their
bit-widths and channel counts are inherited from the destination layer of
the skip connection (``adq.nn.arch.inherit_from_destinations``). The rule
is applied where assignments are made, so every reader of an assignment
(the quantizer, energy reports, checkpoints and logs) sees the inherited
values. Bit-widths ({weighted layer id: k}) and channel counts ({conv
layer id: C}) are plain maps, as in presets, checkpoints and energy reports.
``build_quantizer`` turns bit-widths into the quantizer's site table, where
exempt layers (``default_exempt``) have no site and each residual add's
skip branch runs at its destination's width. A ``ScheduleRun`` holds the
schedule's whole state; ``run_schedule`` drives it epoch by epoch and
passes it to the iteration callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from functools import partial

import numpy as np

from adq.admon import ADHistory, observation_points
from adq.errors import (ConfigurationError, InputError, TrainingDiverged,
                        check_field_types)
from adq.nn.arch import (KINDS, NetworkArch, inherit_from_destinations,
                         main_chain_weighted_ids, skip_topology)
from adq.nn import engine
from adq.nn.checkpoint import save_checkpoint
from adq.nn.data import iter_batches
from adq.quant import MAX_BITS, NetworkQuantizer, RangeTracker, round_half_away


# ------------------------------------------------------------------ config

@dataclass
class ScheduleConfig:
    initial_bits: int = 16
    max_iters: int = 4
    epoch_budget: int = 10
    saturation_epsilon: float = 0.01
    saturation_window: int = 5
    pruning_enabled: bool = False
    final_convergence_epochs: int = 0
    prune_from_initial: bool = True  # False: multiply the current width instead
    strict_ad_pass: bool = False  # dedicated full-train-set AD pass per epoch
    remove_layers: tuple[int, ...] = ()
    batch_size: int = 64
    act_range_mode: str = "ema"
    ema_decay: float = 0.99
    network_ad_mode: str = "pooled"

    def validate(self):
        check_field_types(self)  # the range checks need numbers
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1")
        if not (1 <= self.initial_bits <= MAX_BITS):
            raise ConfigurationError(f"initial_bits must lie in [1, {MAX_BITS}]")
        if self.saturation_window < 2:
            raise ConfigurationError("saturation window must be >= 2")
        if self.epoch_budget < self.saturation_window:
            raise ConfigurationError("epoch budget smaller than saturation window")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.final_convergence_epochs < 0:
            raise ConfigurationError("final_convergence_epochs must be >= 0")
        if self.network_ad_mode not in ("pooled", "mean"):
            raise ConfigurationError(
                f"network_ad_mode must be 'pooled' or 'mean', got "
                f"{self.network_ad_mode!r}")
        # the quantizer's trackers are built from these two fields
        RangeTracker(self.act_range_mode, self.ema_decay)


def default_exempt(arch: NetworkArch) -> frozenset:
    """First weighted layer plus the final fully-connected layer."""
    ids = arch.weighted_ids()
    out = {ids[0]} if ids else set()
    linears = [l.id for l in arch.layers if l.kind == "linear"]
    if linears:
        out.add(linears[-1])
    return frozenset(out)


# ------------------------------------------------------------------ updates

def _shrink(widths: dict, refs: dict, ad_per_layer: dict,
            exempt=frozenset()) -> dict:
    """The paper's one shrink rule, w <- max(1, min(w, round(ref * AD))),
    for each layer of widths with an AD that is not exempt; the others keep
    w. refs gives each layer's ref."""
    for lid, ad in ad_per_layer.items():
        if not (0.0 <= ad <= 1.0):
            raise InputError(f"layer {lid}: AD {ad} outside [0, 1]")
    out = {}
    for lid, w in widths.items():
        if lid in exempt or lid not in ad_per_layer:
            out[lid] = w
        else:
            prop = int(round_half_away(refs[lid] * ad_per_layer[lid]))
            out[lid] = max(1, min(w, prop))
    return out


def update_bitwidths(bits: dict, ad_per_layer: dict, exempt) -> dict:
    """k_l <- round(k_l * AD_l), clamped to >= 1; exempt layers unchanged."""
    return _shrink(bits, bits, ad_per_layer, exempt)


def update_channels(channels: dict, initial_channels: dict,
                    ad_per_layer: dict, from_initial: bool = True) -> dict:
    """C_l <- round(C_ref * AD_l) clamped to [1, current]; C_ref is the
    original width by default (the alternative multiplies the current width)."""
    return _shrink(channels, initial_channels if from_initial else channels,
                   ad_per_layer)


def select_pruned_channels(channels: dict, per_channel_scores: dict) -> dict:
    """Keep the channels[l] highest-scoring channels of each scored layer;
    ties prefer the lower channel index. Returns {layer_id: sorted kept
    index list}."""
    kept = {}
    for lid, scores in per_channel_scores.items():
        target = channels[lid]
        scores = np.asarray(scores, dtype=np.float64)
        if target > scores.size:
            raise InputError(
                f"layer {lid}: want {target} channels, only {scores.size} exist")
        # stable sort on (-score, index): equal scores keep original order
        order = np.argsort(-scores, kind="stable")
        kept[lid] = sorted(int(i) for i in order[:target])
    return kept


# --------------------------------------------------------- skip connections

def propagate_skip_bitwidths(arch: NetworkArch, bits: dict) -> dict:
    """Effective bit-widths after applying the skip-connection rule.

    Returns {"layer_bits": {weighted id: k}, "skip_edge_bits": {add id: k}}:
    skip-path convolutions adopt the destination layer's bit-width, and the
    activation entering a residual-add via the skip branch is quantized at
    the destination bit-width.
    """
    layer_bits = inherit_from_destinations(arch, bits)
    edge_bits = {add_id: layer_bits[t["destination"]]
                 for add_id, t in skip_topology(arch).items()}
    return {"layer_bits": layer_bits, "skip_edge_bits": edge_bits}


# ------------------------------------------------------------------ rebuild

def rebuild_pruned(arch: NetworkArch, state: engine.TrainState,
                   channels: dict, kept: dict):
    """Build a new architecture/state with only the kept channels.

    One pass over the layers maps each layer's input selection to its own
    with its kind's selection rule (``arch.KINDS``): a conv keeps kept[id],
    or without a kept entry its first channels[id] channels; a flatten
    expands channels into features; a linear layer keeps every output; a
    residual-add requires equal input lengths, which holds when every skip
    edge carries a projection convolution whose count was inherited from
    the destination layer. Parameters are sliced on axis 0 by the layer's
    selection, and a weighted layer's "w" also on axis 1 by its input's.
    """
    shapes = arch.infer_shapes()
    sels: dict[int, list] = {-1: list(range(arch.input_shape[0]))}
    new_layers = []
    new_weights = {}
    for spec in arch.layers:
        kind = KINDS[spec.kind]
        srcs = arch.input_ids(spec.id)
        ins = [sels[s] for s in srcs]
        sel = kind.select(spec, ins, [shapes[s] for s in srcs], kept,
                          channels)
        sels[spec.id] = sel
        if kind.params:  # "w" is a weighted kind's (out, in, ...) array
            new_weights[spec.id] = {
                name: arr[np.ix_(sel, ins[0])] if name == "w" else arr[sel]
                for name, arr in state.weights[spec.id].items()}
        if kind.weighted:
            spec = replace(spec, in_channels=len(ins[0]),
                           out_channels=len(sel))
        new_layers.append(spec)

    new_arch = NetworkArch(new_layers, arch.input_shape, arch.num_classes)
    new_state = engine.init_state(new_arch, state.rng_seed)
    new_state.rng = state.rng
    new_state.epoch = state.epoch
    # fresh Adam moments: the parameter space changed shape
    for lid, params in new_weights.items():
        for name, arr in params.items():
            new_state.weights[lid][name] = arr
    return new_arch, new_state


# ------------------------------------------------------------- checkpoints

def save_schedule_checkpoint(path, run: ScheduleRun, quantizer=None):
    """Write run's checkpoint: the network, its bit-widths and channel
    counts (keyed by layer id, as strings in the JSON header), the AD
    history, and with a quantizer its activation ranges."""
    save_checkpoint(
        path, run.arch, run.state, bits=run.assignment, channels=run.channels,
        ad_history=run.ad_history.to_rows(),
        quant_state=None if quantizer is None else quantizer.state_dict())


# ---------------------------------------------------------------- schedule

@dataclass
class IterationRecord:
    iter: int
    bits: dict
    channels: dict | None
    epochs: int
    network_ad: float
    test_accuracy: float
    train_loss: float


@dataclass
class ScheduleLog:
    iterations: list = field(default_factory=list)
    epoch_accuracy: list = field(default_factory=list)  # (epoch, accuracy)
    final_accuracy: float | None = None
    final_epochs: int = 0

    def to_dict(self):
        return {
            "iterations": [
                {**asdict(r), "bits": {str(k): v for k, v in r.bits.items()},
                 "channels": (None if r.channels is None else
                              {str(k): v for k, v in r.channels.items()})}
                for r in self.iterations
            ],
            "epoch_accuracy": self.epoch_accuracy,
            "final_accuracy": self.final_accuracy,
            "final_epochs": self.final_epochs,
        }


@dataclass
class ScheduleRun:
    """A schedule's whole state, as run_schedule returns it."""
    arch: NetworkArch
    state: engine.TrainState
    assignment: dict  # weighted layer id -> bit-width
    channels: dict | None  # conv layer id -> channel count; None: no pruning
    unpruned: NetworkArch  # the network the schedule started from
    log: ScheduleLog
    ad_history: ADHistory
    quantizer: NetworkQuantizer | None = None  # the current phase's
    scores: dict = field(default_factory=dict)  # see _train_epoch


def run_schedule(arch: NetworkArch, dataset, config: ScheduleConfig,
                 seed: int = 0, optim: engine.OptimConfig | None = None,
                 iteration_callback=None) -> ScheduleRun:
    """Execute the full quantization (and optional pruning) schedule.

    iteration_callback, when given, is invoked after each completed iteration
    as callback(run, record), with run as that iteration left it.
    """
    config.validate()
    optim = optim or engine.OptimConfig()
    optim.validate()
    _keep_freed_memory()
    if config.remove_layers:
        arch = arch.drop_layers(config.remove_layers)
    run = ScheduleRun(arch, engine.init_state(arch, seed),
                      {i: config.initial_bits for i in arch.weighted_ids()},
                      None, arch, ScheduleLog(), ADHistory())
    if config.pruning_enabled:
        run.channels = {i: arch.layer(i).out_channels for i in arch.conv_ids()}

    for it in range(1, config.max_iters + 1):
        run.quantizer = build_quantizer(run.arch, run.assignment, config,
                                        run.quantizer and
                                        run.quantizer.trackers)
        start = run.state.epoch
        for _ in range(config.epoch_budget):
            loss = _train_epoch(run, dataset, config, optim)
            if run.ad_history.is_saturated(
                    config.saturation_epsilon, config.saturation_window,
                    epochs=list(range(start + 1, run.state.epoch + 1))):
                break

        record = IterationRecord(
            iter=it, bits=dict(run.assignment),
            channels=None if run.channels is None else dict(run.channels),
            epochs=run.state.epoch - start,
            network_ad=run.ad_history.network_ad(run.state.epoch,
                                                 config.network_ad_mode),
            test_accuracy=run.log.epoch_accuracy[-1][1],
            train_loss=loss)
        run.log.iterations.append(record)
        if iteration_callback is not None:
            iteration_callback(run, record)
        if not _advance(run, config):
            break

    # final convergence phase at the fixed assignment
    run.quantizer = build_quantizer(run.arch, run.assignment, config,
                                    run.quantizer and run.quantizer.trackers)
    for _ in range(config.final_convergence_epochs):
        run.log.final_epochs += 1
        _train_epoch(run, dataset, config, optim)
    # the last final epoch evaluated this state and quantizer already; with
    # no final epochs the assignment, and so the quantizer, changed since
    # the last evaluation
    run.log.final_accuracy = (run.log.epoch_accuracy[-1][1]
                              if config.final_convergence_epochs
                              else _test_accuracy(run, dataset,
                                                  config.batch_size))
    return run


def _advance(run: ScheduleRun, config: ScheduleConfig) -> bool:
    """Shrink the bit-widths, and when pruning the channel counts, by each
    main-chain layer's AD in the last epoch; skip-path layers inherit their
    destination's. Returns False at the fixed point, where nothing changed.
    Otherwise moves run to the new assignment, first rebuilding the network
    on the kept channels when the counts changed, and returns True."""
    arch = run.arch
    ad = {lid: run.ad_history.layer_ad(lid, run.state.epoch)
          for lid in main_chain_weighted_ids(arch)}
    bits = inherit_from_destinations(
        arch, update_bitwidths(run.assignment, ad, default_exempt(arch)))
    channels = run.channels
    if channels is not None:
        channels = inherit_from_destinations(arch, update_channels(
            channels, {i: run.unpruned.layer(i).out_channels
                       for i in run.unpruned.conv_ids()},
            ad, config.prune_from_initial))
    if bits == run.assignment and channels == run.channels:
        return False
    if channels != run.channels:
        # skip-path convs keep their destination's channels
        kept = inherit_from_destinations(
            arch, select_pruned_channels(channels, run.scores))
        run.arch, run.state = rebuild_pruned(arch, run.state, channels, kept)
        run.quantizer = None  # channel identities changed: no ranges carry
    run.assignment, run.channels = bits, channels
    return True


def build_quantizer(arch: NetworkArch, bits: dict, config: ScheduleConfig,
                    trackers=None) -> NetworkQuantizer:
    """The one quantizer constructor: an input site per weighted layer that
    is not exempt (``default_exempt``), at its bit-width in bits, and a skip
    site per residual add, at its destination's. trackers, when given, holds
    activation ranges to carry over, such as the previous phase's."""
    exempt = default_exempt(arch)
    sites = {("input", lid): k for lid, k in bits.items()
             if lid not in exempt}
    edges = propagate_skip_bitwidths(arch, bits)["skip_edge_bits"]
    sites.update({("skip", add_id): k for add_id, k in edges.items()})
    return NetworkQuantizer(sites, config.act_range_mode, config.ema_decay,
                            {} if trackers is None else trackers)


def _epoch_observer(arch: NetworkArch, history: ADHistory, epoch: int,
                    prune: bool):
    """The AD observers of one epoch: {observed layer id: callable(output)}
    for the engine's observe map, and the dict they count into.

    Each observer records its activation into history under the one
    main-chain weighted layer observed there (observation_points is
    one-to-one). When prune is set it also counts, into the returned dict,
    that conv's positive values per channel:
    {conv id: (positives per channel, values per channel)}. The observed
    tensor is 4-D, or flattened channel-major after a flatten; either way
    it reshapes to (samples, the conv's channels, values per channel).
    """
    points = observation_points(arch)
    channels = ({i: arch.layer(i).out_channels for i in arch.conv_ids()}
                if prune else {})
    counts = {}

    def record(wid, tensor):
        history.record(wid, epoch, tensor)
        if wid in channels:
            c = channels[wid]
            positive = tensor.reshape(len(tensor), c, -1) > 0
            pos, n = counts.get(wid, (0, 0))
            counts[wid] = (pos + positive.sum(axis=(0, 2)),
                           n + tensor.size // c)

    return {points[wid]: partial(record, wid)
            for wid in main_chain_weighted_ids(arch)}, counts


def _keep_freed_memory():
    """Free one untouched 16 MB block, so that glibc's malloc keeps the
    memory a training step frees for the next step.

    glibc returns the free top of its heap to the OS once it exceeds twice
    the largest mmap-backed block freed so far (counting blocks up to
    32 MB). When no block larger than a step's arrays has been freed, each
    step's freed caches go back to the OS and the next step faults them in
    again: about 400,000 minor page faults and 1 s of system time in one
    toy-quant job. Other allocators just allocate and free the block."""
    np.empty(16 << 20, dtype=np.uint8)


# a diverging network overflows into inf and NaN; the loss check reports
# that, so numpy's warnings would only repeat it
_QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore"}


def _test_accuracy(run: ScheduleRun, dataset, batch_size) -> float:
    """run's test accuracy, evaluated batch_size samples at a time (the
    training batch size, which bounds evaluation's working set as it
    bounds training's)."""
    with np.errstate(**_QUIET_OVERFLOW):
        return engine.accuracy(run.arch, run.state, dataset.x_test,
                               dataset.y_test, run.quantizer, batch_size)


def _train_epoch(run: ScheduleRun, dataset, config, optim) -> float:
    """Train run one more epoch and log its test accuracy. Records the
    epoch's AD into run.ad_history and sets run.scores: when pruning, each
    conv's positive fraction per channel over the epoch's observed
    activations ({} otherwise). Returns the mean loss. A non-finite loss
    raises TrainingDiverged with run as it stood at that batch."""
    arch, state, quantizer = run.arch, run.state, run.quantizer
    epoch = state.epoch + 1
    observe, counts = _epoch_observer(arch, run.ad_history, epoch,
                                      run.channels is not None)
    losses = []
    with np.errstate(**_QUIET_OVERFLOW):
        for bx, by in iter_batches(dataset.x_train, dataset.y_train,
                                   config.batch_size, state.rng):
            logits, cache = engine.forward(
                arch, state, bx, None if config.strict_ad_pass else observe,
                quantizer=quantizer, training=True)
            loss, lgrad = engine.loss_softmax_xent(logits, by)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}",
                                       run)
            grads, _ = engine.backward(arch, state, cache, lgrad)
            engine.optimizer_step(state, grads, optim)
            losses.append(loss)
            del cache, grads  # free them before the next forward pass
        if config.strict_ad_pass:
            # dedicated full-train-set pass with the post-epoch model
            engine.eval_logits(arch, state, dataset.x_train, quantizer,
                               config.batch_size, observe)
    state.epoch = epoch
    run.scores = {lid: pos / n for lid, (pos, n) in counts.items()}
    run.log.epoch_accuracy.append(
        (epoch, _test_accuracy(run, dataset, config.batch_size)))
    return float(np.mean(losses))
