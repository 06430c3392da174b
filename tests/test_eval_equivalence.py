"""Forward-only evaluation reproduces the former evaluation bit for bit.

``engine.eval_logits`` (and through it ``predict``, ``accuracy`` and the
strict AD pass) runs ``forward``'s layer loop without keeping backward state
and fake-quantizes each weight once per call. ``oracles.predict`` is the
former ``predict``, a loop over ``forward(..., training=False)``;
``oracles.eval_logits`` is the same loop with observers, as the strict AD pass
ran it. Each comparison runs both on deep copies of one quantizer, so a
tracker created during evaluation cannot leak from one side to the other.
"""

import copy

import numpy as np
import pytest

from adq import quant
from adq.errors import ConfigurationError
from adq.nn import engine
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.data import synthetic_dataset
from adq.presets import build_toy_cnn
from adq.scheduler import (ScheduleConfig, build_quantizer,
                           inherit_from_destinations, rebuild_pruned,
                           run_schedule)

import oracles

# (samples, batch size): full and partial batches, and tails of one sample
SIZES = ((300, 256), (257, 256), (9, 4), (1, 256))


def _quantizer(arch, bits):
    return build_quantizer(arch, dict.fromkeys(arch.weighted_ids(), bits),
                           ScheduleConfig())


def _train_steps(arch, state, quantizer, steps=3, batch=16, seed=0):
    """A few Adam steps: moves the weights and batchnorm running statistics
    off their initial values and initializes the quantizer's trackers."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        x = rng.normal(size=(batch,) + tuple(arch.input_shape))
        y = rng.integers(0, arch.num_classes, size=batch)
        logits, cache = engine.forward(arch, state, x, quantizer=quantizer)
        _, lgrad = engine.loss_softmax_xent(logits, y)
        grads, _ = engine.backward(arch, state, cache, lgrad)
        engine.optimizer_step(state, grads, engine.OptimConfig(lr=0.01))


def _toy():
    arch = build_toy_cnn()
    state = engine.init_state(arch, 0)
    quantizer = _quantizer(arch, 4)
    _train_steps(arch, state, quantizer)
    return arch, state, quantizer


def _residual_arch():
    specs = [
        dict(kind="conv2d", in_channels=3, out_channels=6, kernel=3,
             padding=1),
        dict(kind="batchnorm"),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=6, out_channels=8, kernel=1,
             stride=2, skip_source=2),
        dict(kind="batchnorm"),
        dict(kind="conv2d", in_channels=6, out_channels=8, kernel=3,
             stride=2, padding=1, skip_source=2),
        dict(kind="batchnorm"),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=8, out_channels=8, kernel=3,
             padding=1),
        dict(kind="batchnorm"),
        dict(kind="residual-add", skip_source=4),
        dict(kind="relu"),
        dict(kind="avgpool", kernel=0),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=8, out_channels=4),
    ]
    return NetworkArch([LayerSpec(id=i, **kw) for i, kw in enumerate(specs)],
                       (3, 8, 8), 4)


def _pruned_residual():
    """The residual net after a pruning rebuild, with its skip edge
    quantized at 5 bits."""
    arch = _residual_arch()
    state = engine.init_state(arch, 1)
    _train_steps(arch, state, _quantizer(arch, 5))
    kept = inherit_from_destinations(arch, {0: [0, 2, 3, 5], 5: [1, 4, 6],
                                            8: [0, 3, 7]})
    channels = {lid: len(sel) for lid, sel in kept.items()}
    arch, state = rebuild_pruned(arch, state, channels, kept)
    quantizer = _quantizer(arch, 5)
    _train_steps(arch, state, quantizer, seed=1)
    assert ("skip", 10) in quantizer.sites
    assert quantizer.trackers[("skip", 10)].initialized
    return arch, state, quantizer


def _untracked_toy():
    """The toy CNN with quantized weights and a quantizer that has observed
    nothing: every activation site's tracker is uninitialized."""
    arch = build_toy_cnn()
    return arch, engine.init_state(arch, 2), _quantizer(arch, 3)


NETS = {"toy": _toy, "pruned-residual": _pruned_residual,
        "untracked": _untracked_toy}


def _reference(monkeypatch, arch, state, x, quantizer, batch_size):
    """The former predict's predictions, and the logits of the forward()
    calls it made."""
    seen = []

    def recording_forward(*args, **kwargs):
        logits, cache = engine.forward(*args, **kwargs)
        seen.append(logits)
        return logits, cache

    with monkeypatch.context() as mp:
        mp.setattr(oracles, "forward", recording_forward)
        preds = oracles.predict(arch, state, x, quantizer, batch_size)
    return preds, np.concatenate(seen)


@pytest.mark.parametrize("samples,batch_size", SIZES)
@pytest.mark.parametrize("net", sorted(NETS))
def test_predict_matches_former_predict(monkeypatch, net, samples,
                                        batch_size):
    arch, state, quantizer = NETS[net]()
    x = np.random.default_rng(samples).normal(
        size=(samples,) + tuple(arch.input_shape))
    q_want, q_got = copy.deepcopy(quantizer), copy.deepcopy(quantizer)
    want_preds, want_logits = _reference(monkeypatch, arch, state, x, q_want,
                                         batch_size)
    logits = engine.eval_logits(arch, state, x, q_got, batch_size)
    assert logits.shape == want_logits.shape
    assert logits.tobytes() == want_logits.tobytes()
    preds = engine.predict(arch, state, x, q_got, batch_size)
    assert preds.dtype == want_preds.dtype
    assert np.array_equal(preds, want_preds)
    assert q_got.state_dict() == q_want.state_dict()


def test_predict_of_no_samples():
    arch, state, quantizer = _toy()
    x = np.empty((0,) + tuple(arch.input_shape))
    want = oracles.predict(arch, state, x, quantizer)
    got = engine.predict(arch, state, x, quantizer)
    assert got.shape == want.shape == (0,)


def test_eval_keeps_no_masks_and_quantizes_weights_once(monkeypatch):
    arch, state, quantizer = _toy()
    quantized = []

    def recording_fake_quant(x, qp):
        quantized.append(x)
        return oracles.fake_quant(x, qp)

    def no_mask(x, qp):
        raise AssertionError("STE mask computed in a forward-only pass")

    x = np.zeros((10,) + tuple(arch.input_shape))
    with monkeypatch.context() as mp:
        mp.setattr(quant, "fake_quant", recording_fake_quant)
        mp.setattr(quant, "ste_mask", no_mask)
        engine.predict(arch, state, x, quantizer, batch_size=4)
    active = [lid for lid in arch.weighted_ids()
              if ("input", lid) in quantizer.sites]
    assert len(active) == 3
    for lid in active:  # each weight once per call
        w = state.weights[lid]["w"]
        assert sum(q is w for q in quantized) == 1, lid
    # and each active layer's input once per batch
    assert len(quantized) == len(active) + 3 * len(active)


def test_evaluating_a_bad_batch_shape_is_a_configuration_error():
    arch, state, quantizer = _toy()
    with pytest.raises(ConfigurationError, match="does not match input"):
        engine.accuracy(arch, state, np.zeros((2, 3, 8, 8)), np.zeros(2),
                        quantizer)


@pytest.mark.parametrize("net", ["pruned-residual", "toy"])
def test_only_a_training_forward_moves_the_quantizer_ranges(net):
    arch, state, quantizer = NETS[net]()
    x = np.random.default_rng(5).normal(
        size=(6,) + tuple(arch.input_shape)) * 3.0
    before = copy.deepcopy(quantizer.state_dict())
    engine.forward(arch, state, x, quantizer=quantizer, training=False)
    engine.eval_logits(arch, state, x, quantizer)
    assert quantizer.state_dict() == before
    engine.forward(arch, state, x, quantizer=quantizer, training=True)
    assert quantizer.state_dict() != before


def _strict_schedule():
    ds = synthetic_dataset(num_classes=4, image_shape=(3, 8, 8),
                           train_per_class=10, test_per_class=5, seed=4)
    # 40 samples in batches of 13: the strict AD pass ends on one sample
    cfg = ScheduleConfig(initial_bits=8, max_iters=2, epoch_budget=3,
                         saturation_epsilon=0.0, saturation_window=2,
                         pruning_enabled=True, strict_ad_pass=True,
                         final_convergence_epochs=1, batch_size=13)
    return run_schedule(_residual_arch(), ds, cfg, seed=6)


def test_strict_ad_schedule_matches_former_evaluation(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(engine, "eval_logits", oracles.eval_logits)
        mp.setattr(engine, "predict", oracles.predict)
        want = _strict_schedule()
    got = _strict_schedule()
    assert got.arch.to_dict() == want.arch.to_dict()
    assert got.ad_history.to_rows() == want.ad_history.to_rows()
    assert got.log.to_dict() == want.log.to_dict()
    assert got.quantizer.state_dict() == want.quantizer.state_dict()
    for lid, params in want.state.weights.items():
        for name, arr in params.items():
            assert got.state.weights[lid][name].tobytes() == arr.tobytes(), \
                (lid, name)
