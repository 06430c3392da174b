"""Forward-pass correctness against naive oracles, plus observer semantics."""

import numpy as np
import pytest

from adq.errors import ConfigurationError
from adq.nn import layers as L
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.engine import forward, init_state
from adq.presets import build_toy_cnn

from oracles import naive_avgpool, naive_conv2d, naive_linear, naive_maxpool


class TestConvKernel:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        b = rng.normal(size=5)
        out, _ = L.conv2d_forward(x, w, b, stride, padding)
        want = naive_conv2d(x, w, b, stride, padding)
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-10

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (1, 2, 0)])
    def test_cache_holds_at_most_the_padded_input(self, kernel, stride,
                                                  padding):
        # the patch rows of a 3x3 conv are about k*k times the input; the
        # backward rebuilds what it needs from the padded input instead
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 4, 10, 10))
        w = rng.normal(size=(4, 4, kernel, kernel))
        _, cache = L.conv2d_forward(x, w, np.zeros(4), stride, padding)
        limit = 8 * 4 * (10 + 2 * padding) ** 2 * x.itemsize
        sizes = [a.nbytes for a in cache if isinstance(a, np.ndarray)]
        assert sizes and max(sizes) <= limit, (sizes, limit)

    def test_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 4, 6, 6))
        w = rng.normal(size=(2, 4, 1, 1))
        b = np.zeros(2)
        out, _ = L.conv2d_forward(x, w, b, 1, 0)
        assert np.abs(out - naive_conv2d(x, w, b, 1, 0)).max() <= 1e-10


class TestPoolKernels:
    @pytest.mark.parametrize("k,s", [(2, 2), (2, 1), (3, 3), (3, 2)])
    def test_maxpool_matches_naive(self, k, s):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 9, 9))
        out, _ = L.maxpool_forward(x, k, s)
        assert np.array_equal(out, naive_maxpool(x, k, s))

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 3), (3, 1)])
    def test_avgpool_matches_naive(self, k, s):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 9, 9))
        out, _ = L.avgpool_forward(x, k, s)
        assert np.abs(out - naive_avgpool(x, k, s)).max() <= 1e-12

    def test_global_avgpool(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 5, 5))
        out, _ = L.avgpool_forward(x, 0)
        assert out.shape == (2, 4, 1, 1)
        assert np.allclose(out[..., 0, 0], x.mean(axis=(2, 3)))


class TestGlobalPooling:
    def test_non_square_map_rejected_when_built(self):
        # global pooling of a 4x8 map would feed the classifier 2x the
        # features it was built for
        with pytest.raises(ConfigurationError, match="square"):
            build_toy_cnn(image_shape=(1, 8, 16))

    def test_kernels_reject_non_square_global_pooling(self):
        x = np.zeros((1, 2, 4, 8))
        for kernel in (L.maxpool_forward, L.avgpool_forward):
            with pytest.raises(ConfigurationError, match="square"):
                kernel(x, 0)


class TestLinearKernel:
    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 7))
        w = rng.normal(size=(5, 7))
        b = rng.normal(size=5)
        out, _ = L.linear_forward(x, w, b)
        assert np.abs(out - naive_linear(x, w, b)).max() <= 1e-10


def _chain(*specs, input_shape, num_classes):
    return NetworkArch([LayerSpec(id=i, **kw) for i, kw in enumerate(specs)],
                       input_shape, num_classes)


class TestNetworkForward:
    def test_identity_conv_relu_kills_negatives(self):
        arch = _chain(
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=1),
            dict(kind="relu"),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=2 * 3 * 3, out_channels=3),
            input_shape=(2, 3, 3), num_classes=3)
        state = init_state(arch, seed=0)
        state.weights[0]["w"] = np.eye(2).reshape(2, 2, 1, 1)
        state.weights[0]["b"] = np.zeros(2)
        x = -np.abs(np.random.default_rng(5).normal(size=(2, 2, 3, 3)))
        seen = {}
        forward(arch, state, x,
                observe={1: lambda out: seen.setdefault(1, out)})
        assert np.all(seen[1] == 0.0)

    def test_identity_linear_passthrough(self):
        arch = _chain(
            dict(kind="flatten"),
            dict(kind="linear", in_channels=4, out_channels=4),
            input_shape=(4, 1, 1), num_classes=4)
        state = init_state(arch, seed=0)
        state.weights[1]["w"] = np.eye(4)
        state.weights[1]["b"] = np.zeros(4)
        x = np.random.default_rng(6).normal(size=(3, 4, 1, 1))
        logits, _ = forward(arch, state, x)
        assert np.allclose(logits, x.reshape(3, 4))

    def test_two_conv_net_matches_naive_composition(self):
        arch = _chain(
            dict(kind="conv2d", in_channels=1, out_channels=4, kernel=3,
                 padding=1),
            dict(kind="relu"),
            dict(kind="conv2d", in_channels=4, out_channels=3, kernel=3),
            dict(kind="relu"),
            dict(kind="avgpool", kernel=0),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=3, out_channels=3),
            input_shape=(1, 8, 8), num_classes=3)
        state = init_state(arch, seed=7)
        x = np.random.default_rng(8).normal(size=(1, 1, 8, 8))
        logits, cache = forward(arch, state, x)

        h = naive_conv2d(x, state.weights[0]["w"], state.weights[0]["b"], 1, 1)
        h = np.maximum(h, 0)
        h = naive_conv2d(h, state.weights[2]["w"], state.weights[2]["b"], 1, 0)
        h = np.maximum(h, 0)
        h = h.mean(axis=(2, 3))
        want = naive_linear(h, state.weights[6]["w"], state.weights[6]["b"])
        assert np.abs(logits - want).max() <= 1e-10

    def test_shape_mismatch_names_layer(self):
        with pytest.raises(ConfigurationError, match="layer 1"):
            _chain(
                dict(kind="conv2d", in_channels=1, out_channels=4, kernel=3),
                dict(kind="linear", in_channels=10, out_channels=3),
                input_shape=(1, 8, 8), num_classes=3)

    def test_bad_batch_shape_rejected(self):
        arch = _chain(
            dict(kind="flatten"),
            dict(kind="linear", in_channels=4, out_channels=2),
            input_shape=(4, 1, 1), num_classes=2)
        state = init_state(arch, seed=0)
        with pytest.raises(ConfigurationError):
            forward(arch, state, np.zeros((2, 3, 1, 1)))


class TestResidual:
    def _resnet_block(self):
        return _chain(
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
                 padding=1),
            dict(kind="relu"),
            dict(kind="conv2d", in_channels=2, out_channels=2, kernel=3,
                 padding=1),
            dict(kind="residual-add", skip_source=1),
            dict(kind="relu"),
            dict(kind="avgpool", kernel=0),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=2, out_channels=2),
            input_shape=(2, 4, 4), num_classes=2)

    def test_add_combines_sources(self):
        arch = self._resnet_block()
        state = init_state(arch, seed=1)
        x = np.random.default_rng(9).normal(size=(2, 2, 4, 4))
        seen = {}
        forward(arch, state, x, observe={
            lid: lambda out, lid=lid: seen.setdefault(lid, out)
            for lid in (1, 2, 3)})
        assert np.allclose(seen[3], seen[2] + seen[1])

    def test_mismatched_add_shapes_rejected(self):
        with pytest.raises(ConfigurationError, match="residual-add"):
            _chain(
                dict(kind="conv2d", in_channels=2, out_channels=3, kernel=3,
                     padding=1),
                dict(kind="relu"),
                dict(kind="conv2d", in_channels=3, out_channels=2, kernel=3,
                     padding=1),
                dict(kind="residual-add", skip_source=1),
                input_shape=(2, 4, 4), num_classes=2)


class TestObservers:
    def test_every_relu_reported_exactly_once(self):
        arch = _chain(
            dict(kind="conv2d", in_channels=1, out_channels=3, kernel=3,
                 padding=1),
            dict(kind="relu"),
            dict(kind="conv2d", in_channels=3, out_channels=4, kernel=3,
                 padding=1),
            dict(kind="relu"),
            dict(kind="flatten"),
            dict(kind="linear", in_channels=4 * 36, out_channels=2),
            input_shape=(1, 6, 6), num_classes=2)
        state = init_state(arch, seed=2)
        x = np.random.default_rng(10).normal(size=(5, 1, 6, 6))
        seen = []
        relu_ids = [l.id for l in arch.layers if l.kind == "relu"]
        forward(arch, state, x, {lid: lambda t, lid=lid: seen.append(
            (lid, t.size, t.min())) for lid in relu_ids})
        assert [lid for lid, _, _ in seen] == relu_ids
        assert all(low >= 0 for _, _, low in seen)  # post-relu outputs
        total_reported = sum(n for _, n, _ in seen)
        assert total_reported == 5 * 3 * 36 + 5 * 4 * 36

    def test_raw_observer_reports_requested_layer(self):
        arch = _chain(
            dict(kind="flatten"),
            dict(kind="linear", in_channels=4, out_channels=2),
            input_shape=(4, 1, 1), num_classes=2)
        state = init_state(arch, seed=0)
        seen = []
        forward(arch, state, np.zeros((3, 4, 1, 1)),
                {1: lambda t: seen.append(t.shape)})
        assert seen == [(3, 2)]
