"""In-training compression schedule: train to density saturation, shrink
per-layer bit-widths (and optionally channel counts) from the measured
densities, rebuild, and repeat until the assignment reaches its fixed point.

Bit-widths follow k_l <- round(k_l * AD_l) clamped to >= 1; channel counts
follow C_l <- round(C_initial_l * AD_l) clamped to >= 1. The first weighted
layer and the final fully-connected layer are exempt from bit-width changes.
Layers on residual skip paths carry no densities of their own: their
bit-widths and channel counts are inherited from the destination layer of
the skip connection (``inherit_from_destinations``). The rule is applied
where assignments are made, so every reader of an assignment (the
quantizer, energy reports, checkpoints and logs) sees the inherited values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace

import numpy as np

from adq.admon import ADHistory, observation_points
from adq.errors import (ConfigurationError, InputError, TrainingDiverged,
                        check_field_types)
from adq.nn.arch import KINDS, NetworkArch
from adq.nn import engine
from adq.nn.checkpoint import save_checkpoint
from adq.nn.data import iter_batches
from adq.quant import MAX_BITS, NetworkQuantizer, RangeTracker, round_half_away


# ------------------------------------------------------------------- state

@dataclass
class BitWidthAssignment:
    k: dict  # weighted layer id -> bit width
    exempt: frozenset
    iter: int = 0

    @classmethod
    def initial(cls, arch: NetworkArch,
                initial_bits: int) -> "BitWidthAssignment":
        return cls(k={i: initial_bits for i in arch.weighted_ids()},
                   exempt=default_exempt(arch), iter=0)


@dataclass
class PruneState:
    channels: dict           # conv layer id -> current channel count
    initial_channels: dict   # conv layer id -> original channel count

    @classmethod
    def initial(cls, arch: NetworkArch) -> "PruneState":
        ch = {i: arch.layer(i).out_channels for i in arch.conv_ids()}
        return cls(channels=dict(ch), initial_channels=dict(ch))


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

def _check_ad(ad_map):
    for lid, ad in ad_map.items():
        if not (0.0 <= ad <= 1.0):
            raise InputError(f"layer {lid}: AD {ad} outside [0, 1]")


def update_bitwidths(assignment: BitWidthAssignment,
                     ad_per_layer: dict) -> BitWidthAssignment:
    """k_l <- round(k_l * AD_l), clamped to >= 1; exempt layers unchanged."""
    _check_ad(ad_per_layer)
    new = {}
    for lid, k in assignment.k.items():
        if lid in assignment.exempt or lid not in ad_per_layer:
            new[lid] = k
            continue
        prop = int(round_half_away(k * ad_per_layer[lid]))
        new[lid] = max(1, min(k, prop))
    return BitWidthAssignment(new, assignment.exempt, assignment.iter + 1)


def update_channels(prune_state: PruneState,
                    ad_per_layer: dict, from_initial: bool = True) -> PruneState:
    """C_l <- round(C_ref * AD_l) clamped to [1, current]; C_ref is the
    original width by default (the alternative multiplies the current width)."""
    _check_ad(ad_per_layer)
    new = {}
    for lid, cur in prune_state.channels.items():
        if lid not in ad_per_layer:
            new[lid] = cur
            continue
        ref = prune_state.initial_channels[lid] if from_initial else cur
        prop = int(round_half_away(ref * ad_per_layer[lid]))
        new[lid] = max(1, min(cur, prop))
    return PruneState(new, dict(prune_state.initial_channels))


def select_pruned_channels(prune_state: PruneState,
                           per_channel_scores: dict) -> dict:
    """Keep the C_l highest-scoring channels of each scored layer; ties
    prefer the lower channel index. Returns {layer_id: sorted kept index
    list}."""
    kept = {}
    for lid, scores in per_channel_scores.items():
        target = prune_state.channels[lid]
        scores = np.asarray(scores, dtype=np.float64)
        if target > scores.size:
            raise RuntimeError(
                f"layer {lid}: want {target} channels, only {scores.size} exist")
        # stable sort on (-score, index): equal scores keep original order
        order = np.argsort(-scores, kind="stable")
        kept[lid] = sorted(int(i) for i in order[:target])
    return kept


# --------------------------------------------------------- skip connections

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


def inherit_from_destinations(arch: NetworkArch, values: dict) -> dict:
    """The skip-connection rule: a copy of `values` ({layer id: bit-width or
    channel count}) in which every skip-path convolution takes the value of
    its skip connection's destination layer. Skip convs whose destination
    has no value keep their own."""
    out = dict(values)
    for t in skip_topology(arch).values():
        if t["destination"] in out:
            for cid in t["skip_convs"]:
                out[cid] = out[t["destination"]]
    return out


def propagate_skip_bitwidths(arch: NetworkArch,
                             assignment: BitWidthAssignment) -> dict:
    """Effective bit-widths after applying the skip-connection rule.

    Returns {"layer_bits": {weighted id: k}, "skip_edge_bits": {add id: k}}:
    skip-path convolutions adopt the destination layer's bit-width, and the
    activation entering a residual-add via the skip branch is quantized at
    the destination bit-width.
    """
    layer_bits = inherit_from_destinations(arch, assignment.k)
    edge_bits = {add_id: layer_bits[t["destination"]]
                 for add_id, t in skip_topology(arch).items()}
    return {"layer_bits": layer_bits, "skip_edge_bits": edge_bits}


def main_chain_weighted_ids(arch: NetworkArch) -> list[int]:
    """Weighted layers excluding those on skip paths (which carry no
    densities of their own)."""
    on_skip = set()
    for t in skip_topology(arch).values():
        on_skip.update(t["skip_convs"])
    return [i for i in arch.weighted_ids() if i not in on_skip]


# ------------------------------------------------------------------ rebuild

def rebuild_pruned(arch: NetworkArch, state: engine.TrainState,
                   prune_state: PruneState, kept: dict):
    """Build a new architecture/state with only the kept channels.

    One pass over the layers maps each layer's input selection to its own
    with its kind's selection rule (``arch.KINDS``): a conv keeps kept[id],
    or without a kept entry its first prune_state.channels[id] channels; a
    flatten expands channels into features; a linear layer keeps every
    output; a residual-add requires equal input lengths, which holds when
    every skip edge carries a projection convolution whose count was
    inherited from the destination layer. Parameters are sliced on axis 0
    by the layer's selection, and a weighted layer's "w" also on axis 1 by
    its input's.
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
                          prune_state.channels)
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
class ScheduleResult:
    arch: NetworkArch
    state: engine.TrainState
    assignment: BitWidthAssignment
    prune_state: PruneState | None
    log: ScheduleLog
    ad_history: ADHistory
    quantizer: NetworkQuantizer


def run_schedule(arch: NetworkArch, dataset, config: ScheduleConfig,
                 seed: int = 0, optim: engine.OptimConfig | None = None,
                 diagnostics_dir=None,
                 iteration_callback=None) -> ScheduleResult:
    """Execute the full quantization (and optional pruning) schedule.

    iteration_callback, when given, is invoked after each completed iteration
    as callback(iter, arch, state, assignment, prune_state, history, record).
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
    quantizer = None
    epoch_global = 0

    for it in range(1, config.max_iters + 1):
        quantizer = _build_quantizer(arch, assignment, config, quantizer)
        iter_epochs = []
        for _ in range(config.epoch_budget):
            epoch_global += 1
            loss, scores = _train_epoch(arch, state, quantizer, dataset,
                                        config, optim, history, epoch_global,
                                        diagnostics_dir, assignment,
                                        prune_state)
            acc = engine.accuracy(arch, state, dataset.x_test, dataset.y_test,
                                  quantizer)
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
            iteration_callback(it, arch, state, assignment, prune_state,
                               history, record)

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
            kept = select_pruned_channels(new_prune, scores)
            arch, state = rebuild_pruned(arch, state, new_prune, kept)
            quantizer.trackers = {}  # channel identities changed
        assignment, prune_state = new_assignment, new_prune

    # final convergence phase at the fixed assignment
    quantizer = _build_quantizer(arch, assignment, config, quantizer)
    for _ in range(config.final_convergence_epochs):
        epoch_global += 1
        log.final_epochs += 1
        _train_epoch(arch, state, quantizer, dataset, config, optim,
                     history, epoch_global, diagnostics_dir,
                     assignment, prune_state)
        acc = engine.accuracy(arch, state, dataset.x_test, dataset.y_test,
                              quantizer)
        log.epoch_accuracy.append((epoch_global, acc))
    # the last final epoch evaluated this state and quantizer already; with
    # no final epochs the assignment, and so the quantizer, changed since
    # the last evaluation
    if not config.final_convergence_epochs:
        acc = engine.accuracy(arch, state, dataset.x_test, dataset.y_test,
                              quantizer)
    log.final_accuracy = acc
    return ScheduleResult(arch, state, assignment, prune_state, log, history,
                          quantizer)


def _build_quantizer(arch, assignment, config, previous):
    """The quantizer for one phase; activation ranges carry over from the
    previous phase's quantizer, if any."""
    eff = propagate_skip_bitwidths(arch, assignment)
    return NetworkQuantizer(
        bits=assignment.k, exempt=assignment.exempt,
        skip_bits=eff["skip_edge_bits"], act_mode=config.act_range_mode,
        ema_decay=config.ema_decay,
        trackers=previous.trackers if previous else {})


def _epoch_observer(arch: NetworkArch, history: ADHistory, epoch: int,
                    prune: bool):
    """The AD hook of one epoch, and the raw observer ids it needs.

    The hook records each observed activation into history under the
    main-chain weighted layers it belongs to. When prune is set it also
    counts, into the returned dict, each such conv's positive values per
    channel: {conv id: (positives per channel, values per channel)}.
    """
    points = observation_points(arch)
    on_main = set(main_chain_weighted_ids(arch))
    by_obs = {}
    for wid, (obs_id, _is_relu) in points.items():
        if wid in on_main:
            by_obs.setdefault(obs_id, []).append(wid)
    raw_ids = {obs
               for wid, (obs, is_relu) in points.items()
               if not is_relu and wid in on_main}
    conv_ids = set(arch.conv_ids()) if prune else set()
    counts = {}

    def hook(layer_id, tensor):
        for wid in by_obs.get(layer_id, ()):
            history.record(wid, epoch, tensor)
            if wid in conv_ids and tensor.ndim == 4:
                pos, n = counts.get(wid, (0, 0))
                counts[wid] = (pos + (tensor > 0).sum(axis=(0, 2, 3)),
                               n + tensor.size // tensor.shape[1])

    return hook, raw_ids, counts


def _train_epoch(arch, state, quantizer, dataset, config, optim, history,
                 epoch, diagnostics_dir, assignment, prune_state):
    """Train one epoch, recording its AD into history. Returns the mean
    loss and, when pruning, each conv's positive fraction per channel over
    the epoch's observed activations ({} otherwise)."""
    hook, raw_ids, counts = _epoch_observer(arch, history, epoch,
                                            config.pruning_enabled)
    quantizer.training = True
    train_hooks = () if config.strict_ad_pass else (hook,)
    losses = []
    for bx, by in iter_batches(dataset.x_train, dataset.y_train,
                               config.batch_size, state.rng):
        logits, cache = engine.forward(arch, state, bx, hooks=train_hooks,
                                       quantizer=quantizer, training=True,
                                       raw_observers=raw_ids)
        loss, lgrad = engine.loss_softmax_xent(logits, by)
        if not np.isfinite(loss):
            path = None
            if diagnostics_dir is not None:
                path = f"{diagnostics_dir}/diverged_epoch{epoch}.ckpt"
                save_checkpoint(path, arch, state,
                                bits=dict(assignment.k),
                                channels=None if prune_state is None
                                else dict(prune_state.channels),
                                ad_history=history.to_rows())
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}", checkpoint_path=path)
        grads, _ = engine.backward(arch, state, cache, lgrad)
        engine.optimizer_step(state, grads, optim)
        losses.append(loss)
    if config.strict_ad_pass:
        # dedicated full-train-set pass with the post-epoch model
        engine.eval_logits(arch, state, dataset.x_train, quantizer,
                           config.batch_size, hooks=(hook,),
                           raw_observers=raw_ids)
    state.epoch = epoch
    scores = {lid: pos / n for lid, (pos, n) in counts.items()}
    return float(np.mean(losses)), scores
