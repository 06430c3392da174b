"""Backward-pass verification against central finite differences.

Every layer kind is embedded in a small network ending in the softmax
cross-entropy loss; analytic parameter and input gradients must match the
finite-difference estimate within a relative error of 1e-4 (h = 1e-5,
double precision).
"""

import numpy as np
import pytest

from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.engine import backward, forward, init_state, loss_softmax_xent

from oracles import central_difference

H = 1e-5
REL_TOL = 1e-4


def _net(*specs, input_shape, num_classes):
    return NetworkArch([LayerSpec(id=i, **kw) for i, kw in enumerate(specs)],
                       input_shape, num_classes)


def _rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def _check_grads(arch, seed=0, batch=3, training=True):
    rng = np.random.default_rng(seed)
    state = init_state(arch, seed)
    x = rng.normal(size=(batch,) + tuple(arch.input_shape))
    y = rng.integers(0, arch.num_classes, size=batch)

    def loss_fn():
        logits, _ = forward(arch, state, x, training=training)
        return loss_softmax_xent(logits, y)[0]

    logits, cache = forward(arch, state, x, training=training)
    _, lgrad = loss_softmax_xent(logits, y)
    grads, gx = backward(arch, state, cache, lgrad, input_grad=True)

    for lid, pg in grads.items():
        for name, g in pg.items():
            want = central_difference(loss_fn, state.weights[lid][name], H)
            err = _rel_err(g, want)
            assert err < REL_TOL, f"layer {lid} param {name}: rel err {err:.2e}"
    want_x = central_difference(loss_fn, x, H)
    assert _rel_err(gx, want_x) < REL_TOL, "input gradient mismatch"


def test_linear_gradients():
    _check_grads(_net(
        dict(kind="flatten"),
        dict(kind="linear", in_channels=6, out_channels=4),
        dict(kind="relu"),
        dict(kind="linear", in_channels=4, out_channels=3),
        input_shape=(6, 1, 1), num_classes=3))


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
def test_conv_gradients(stride, padding):
    _check_grads(_net(
        dict(kind="conv2d", in_channels=2, out_channels=3, kernel=3,
             stride=stride, padding=padding),
        dict(kind="relu"),
        dict(kind="flatten"),
        dict(kind="linear",
             in_channels=3 * ((5 + 2 * padding - 3) // stride + 1) ** 2,
             out_channels=2),
        input_shape=(2, 5, 5), num_classes=2), seed=1)


def test_maxpool_gradients():
    _check_grads(_net(
        dict(kind="conv2d", in_channels=1, out_channels=3, kernel=3, padding=1),
        dict(kind="relu"),
        dict(kind="maxpool", kernel=2, stride=2),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=3 * 9, out_channels=2),
        input_shape=(1, 6, 6), num_classes=2), seed=2)


def test_avgpool_gradients():
    _check_grads(_net(
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3, padding=1),
        dict(kind="relu"),
        dict(kind="avgpool", kernel=0),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=2, out_channels=2),
        input_shape=(2, 5, 5), num_classes=2), seed=3)


def test_batchnorm_gradients_training_mode():
    _check_grads(_net(
        dict(kind="conv2d", in_channels=1, out_channels=4, kernel=3, padding=1),
        dict(kind="batchnorm"),
        dict(kind="relu"),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=4 * 16, out_channels=3),
        input_shape=(1, 4, 4), num_classes=3), seed=4, batch=4)


def test_batchnorm_gradients_eval_mode():
    # running stats are constants in eval mode; gradient flows through the
    # frozen affine transform
    _check_grads(_net(
        dict(kind="conv2d", in_channels=1, out_channels=2, kernel=3, padding=1),
        dict(kind="batchnorm"),
        dict(kind="relu"),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=2 * 16, out_channels=2),
        input_shape=(1, 4, 4), num_classes=2), seed=5, training=False)


def test_residual_add_gradients():
    _check_grads(_net(
        dict(kind="conv2d", in_channels=2, out_channels=3, kernel=3, padding=1),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=3, out_channels=3, kernel=3, padding=1),
        dict(kind="residual-add", skip_source=1),
        dict(kind="relu"),
        dict(kind="avgpool", kernel=0),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=3, out_channels=2),
        input_shape=(2, 4, 4), num_classes=2), seed=6)


def test_projection_skip_gradients():
    # projection branch: ds conv reads the block input via input redirect
    _check_grads(_net(
        dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3, padding=1),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=2, out_channels=4, kernel=1, stride=2),
        dict(kind="conv2d", in_channels=2, out_channels=4, kernel=3, stride=2,
             padding=1, skip_source=1),
        dict(kind="relu"),
        dict(kind="conv2d", in_channels=4, out_channels=4, kernel=3, padding=1),
        dict(kind="residual-add", skip_source=2),
        dict(kind="relu"),
        dict(kind="avgpool", kernel=0),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=4, out_channels=2),
        input_shape=(2, 6, 6), num_classes=2), seed=7)


def test_zero_loss_grad_gives_zero_weight_grads():
    arch = _net(
        dict(kind="conv2d", in_channels=1, out_channels=2, kernel=3, padding=1),
        dict(kind="relu"),
        dict(kind="flatten"),
        dict(kind="linear", in_channels=2 * 16, out_channels=2),
        input_shape=(1, 4, 4), num_classes=2)
    state = init_state(arch, 0)
    x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
    logits, cache = forward(arch, state, x)
    grads, _ = backward(arch, state, cache, np.zeros_like(logits))
    for pg in grads.values():
        for g in pg.values():
            assert np.all(g == 0.0)


def test_scalar_linear_quadratic_closed_form():
    # model y = w*x, loss (y - t)^2 summed: dL/dw = 2*w*x^2 - 2*x*t
    arch = _net(
        dict(kind="flatten"),
        dict(kind="linear", in_channels=1, out_channels=1),
        input_shape=(1, 1, 1), num_classes=1)
    state = init_state(arch, 0)
    w, xv, t = 0.7, 1.3, -0.4
    state.weights[1]["w"] = np.array([[w]])
    state.weights[1]["b"] = np.zeros(1)
    x = np.full((1, 1, 1, 1), xv)
    logits, cache = forward(arch, state, x)
    lgrad = 2.0 * (logits - t)  # d/dy of (y - t)^2
    grads, _ = backward(arch, state, cache, lgrad)
    assert grads[1]["w"][0, 0] == pytest.approx(2 * w * xv * xv - 2 * xv * t,
                                                rel=1e-12)
