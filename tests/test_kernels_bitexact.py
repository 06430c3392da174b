"""The convolution kernels reproduce the former einsum kernels bit for bit.

``oracles.einsum_conv2d_forward``/``einsum_conv2d_backward`` are the
package's original im2col + ``np.einsum`` kernels. The current kernels must
return equal values *and* equal memory layouts: a GEMM operand's layout
picks OpenBLAS's summation order, and a returned array's strides pick the
summation order of every later numpy reduction over it (batchnorm, bias
gradients), so a layout change moves trained weights even when each conv
call is bit-equal. The schedule test checks that end to end by comparing two
trainings in one process, which holds on any BLAS build; a literal digest
would not.

The quantizer and the batchnorm forward are held the same way to their
former versions (``oracles.quantize``/``dequantize``/``fake_quant``/
``ste_mask`` and ``oracles.batchnorm_forward``), which allocated a new
array per operation where the current ones work in place. So are the
products of a gradient and a mask (relu, maxpool and the quantizer's
straight-through masks), which now multiply by the mask viewed as uint8
where they multiplied by bool: ``oracles.relu_backward``/
``maxpool_backward``, and the engine run with those and a bool STE mask.
"""

import copy
import itertools

import numpy as np
import pytest

from adq import quant
from adq.nn import engine
from adq.nn import layers as L
from adq.nn.arch import LayerSpec, NetworkArch
from adq.nn.data import synthetic_dataset
from adq.presets import build_toy_cnn
from adq.scheduler import ScheduleConfig, build_quantizer, run_schedule

import oracles

BATCHES = (1, 2, 44, 64, 256)
CHANNELS = (1, 3, 8, 16, 27, 32)
KERNELS = (1, 3)
STRIDE_PADDING = ((1, 1), (2, 1), (1, 0), (2, 0))


def _layout(a):
    """Strides of the axes longer than 1. numpy gives length-1 axes
    arbitrary strides, and no traversal order depends on them."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


def _same(got, want):
    return np.array_equal(got, want) and _layout(got) == _layout(want)


def _channels_last(a):
    """a's values in the layout conv outputs have: channels innermost."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("stride,padding", STRIDE_PADDING)
@pytest.mark.parametrize("batch", BATCHES)
def test_conv_matches_einsum_kernels(batch, stride, padding):
    rng = np.random.default_rng(batch * 10 + stride * 2 + padding)
    failures = []
    for cin, cout, k in itertools.product(CHANNELS, CHANNELS, KERNELS):
        x = rng.normal(size=(batch, cin, 4, 4))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        want, want_cache = oracles.einsum_conv2d_forward(x, w, b, stride,
                                                         padding)
        got, cache = L.conv2d_forward(x, w, b, stride, padding)
        case = f"{cin}->{cout} k{k}"
        if not _same(got, want):
            failures.append(f"{case}: out")
        # upstream gradients arrive NCHW-contiguous (from pooling, flatten
        # or a routed copy) or channels-innermost (from elementwise layers
        # over a conv output)
        gout = rng.normal(size=want.shape)
        for tag, g in (("nchw", gout), ("nhwc", _channels_last(gout))):
            gx_want, pg_want = oracles.einsum_conv2d_backward(want_cache, g)
            gx, pg = L.conv2d_backward(cache, g)
            for name, a, ref in (("gx", gx, gx_want), ("gw", pg["w"], pg_want["w"]),
                                 ("gb", pg["b"], pg_want["b"])):
                if not _same(a, ref):
                    failures.append(f"{case}: {name} ({tag} gout)")
    assert not failures, failures


def test_channels_last_input():
    """Conv inputs are usually channels-innermost (a ReLU over a conv
    output); the result must not depend on the input's layout."""
    rng = np.random.default_rng(7)
    x = _channels_last(rng.normal(size=(8, 16, 6, 5)))
    w = rng.normal(size=(8, 16, 3, 3))
    b = rng.normal(size=8)
    for stride, padding in STRIDE_PADDING:
        want, want_cache = oracles.einsum_conv2d_forward(x, w, b, stride,
                                                         padding)
        got, cache = L.conv2d_forward(x, w, b, stride, padding)
        assert _same(got, want)
        g = rng.normal(size=want.shape)
        gx_want, pg_want = oracles.einsum_conv2d_backward(want_cache, g)
        gx, pg = L.conv2d_backward(cache, g)
        assert _same(gx, gx_want)
        assert _same(pg["w"], pg_want["w"]) and _same(pg["b"], pg_want["b"])


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


def _train():
    ds = synthetic_dataset(num_classes=4, image_shape=(3, 8, 8),
                           train_per_class=16, test_per_class=5, seed=3)
    # 64 samples in batches of 21: the last batch of each epoch has one
    # sample, so B = 1 runs inside training too
    cfg = ScheduleConfig(initial_bits=8, max_iters=2, epoch_budget=3,
                         saturation_epsilon=0.0, saturation_window=2,
                         pruning_enabled=True, final_convergence_epochs=2,
                         batch_size=21)
    return run_schedule(_residual_arch(), ds, cfg, seed=5)


def _einsum_backward(cache, gout, input_grad=True):
    """The einsum backward, taking the engine's input_grad argument; it
    computes the input gradient either way."""
    return oracles.einsum_conv2d_backward(cache, gout)


def test_schedule_weights_match_einsum_kernels(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(L, "conv2d_forward", oracles.einsum_conv2d_forward)
        mp.setattr(L, "conv2d_backward", _einsum_backward)
        want = _train()
    got = _train()
    before = _residual_arch()
    assert any(got.arch.layer(i).out_channels < before.layer(i).out_channels
               for i in before.conv_ids()), "the schedule pruned nothing"
    assert got.arch.to_dict() == want.arch.to_dict()
    assert got.log.final_accuracy == want.log.final_accuracy
    assert got.state.weights.keys() == want.state.weights.keys()
    for lid, params in want.state.weights.items():
        for name, arr in params.items():
            assert np.array_equal(got.state.weights[lid][name], arr), (lid, name)


def test_schedule_matches_all_former_kernels(monkeypatch):
    """The conv, batchnorm and quantizer rewrites together, end to end."""
    with monkeypatch.context() as mp:
        mp.setattr(L, "conv2d_forward", oracles.einsum_conv2d_forward)
        mp.setattr(L, "conv2d_backward", _einsum_backward)
        mp.setattr(L, "batchnorm_forward", oracles.batchnorm_forward)
        mp.setattr(quant, "fake_quant", oracles.fake_quant)
        want = _train()
    got = _train()
    assert got.arch.to_dict() == want.arch.to_dict()
    assert got.log.to_dict() == want.log.to_dict()
    assert got.quantizer.state_dict() == want.quantizer.state_dict()
    for lid, params in want.state.weights.items():
        for name, arr in params.items():
            assert got.state.weights[lid][name].tobytes() == arr.tobytes(), \
                (lid, name)


class TestMaxpoolSemantics:
    def test_ties_route_to_the_first_window_position(self):
        x = np.array([[[[1.0, 3.0], [3.0, 3.0]]]])
        out, cache = L.maxpool_forward(x, 2, 2)
        assert out[0, 0, 0, 0] == 3.0
        gx, _ = L.maxpool_backward(cache, np.ones((1, 1, 1, 1)))
        assert gx.tolist() == [[[[0.0, 1.0], [0.0, 0.0]]]]

    def test_nans_are_never_selected(self):
        x = np.array([[[[np.nan, -2.0, np.nan, np.nan],
                        [-5.0, np.nan, np.nan, np.nan]]]])
        out, cache = L.maxpool_forward(x, 2, 2)
        # a window of NaNs only keeps the initial -inf and its first position
        assert out.tolist() == [[[[-2.0, -np.inf]]]]
        gx, _ = L.maxpool_backward(cache, np.array([[[[1.0, 2.0]]]]))
        assert gx.tolist() == [[[[0.0, 1.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]]

    def test_global_window_larger_than_int8(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 13, 13))  # 169 window positions
        out, cache = L.maxpool_forward(x, 0)
        assert np.array_equal(out[..., 0, 0], x.max(axis=(2, 3)))
        gx, _ = L.maxpool_backward(cache, np.ones_like(out))
        assert np.array_equal(gx, (x == x.max(axis=(2, 3), keepdims=True)) * 1.0)


# (batch, cin, cout, h, w, kernel, stride, padding): geometries the memoized
# gather and scatter indices must key correctly
GEOMETRIES = (
    (3, 2, 4, 5, 7, 3, 1, 1),    # non-square map
    (3, 2, 4, 7, 5, 3, 2, 0),
    (2, 3, 2, 9, 9, 5, 1, 2),    # k = 5, padding 2
    (2, 3, 2, 10, 8, 3, 3, 1),   # stride 3
    (2, 3, 2, 8, 7, 2, 3, 0),    # stride 3 > kernel: some inputs feed no patch
)


def _conv_failures(rng, x, w, b, stride, padding):
    """Where the kernels' results differ from the einsum kernels' on x."""
    failures = []
    want, want_cache = oracles.einsum_conv2d_forward(x, w, b, stride, padding)
    got, cache = L.conv2d_forward(x, w, b, stride, padding)
    if not _same(got, want):
        failures.append("out")
    gout = rng.normal(size=want.shape)
    for tag, g in (("nchw", gout), ("nhwc", _channels_last(gout))):
        gx_want, pg_want = oracles.einsum_conv2d_backward(want_cache, g)
        gx, pg = L.conv2d_backward(cache, g)
        for name, a, ref in (("gx", gx, gx_want), ("gw", pg["w"], pg_want["w"]),
                             ("gb", pg["b"], pg_want["b"])):
            if not _same(a, ref):
                failures.append(f"{name} ({tag} gout)")
    return failures


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
def test_conv_geometries(geometry):
    batch, cin, cout, h, wd, k, stride, padding = geometry
    rng = np.random.default_rng(sum(geometry))
    for x in (rng.normal(size=(batch, cin, h, wd)),
              _channels_last(rng.normal(size=(batch, cin, h, wd)))):
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        assert not _conv_failures(rng, x, w, b, stride, padding)


def test_conv_batch_sizes_in_a_row():
    """One geometry at batch sizes on and off the scatter's sample chunks,
    each call reusing the indices the previous ones memoized."""
    rng = np.random.default_rng(11)
    w = rng.normal(size=(5, 4, 3, 3))
    b = rng.normal(size=5)
    failures = []
    for batch in (1, 12, 52, 256):
        x = _channels_last(rng.normal(size=(batch, 4, 6, 6)))
        failures += [f"B{batch}: {f}"
                     for f in _conv_failures(rng, x, w, b, 1, 1)]
    assert not failures


def test_conv_channel_count_changes_between_calls():
    """Pruning rebuilds a conv with fewer channels on the same map."""
    rng = np.random.default_rng(12)
    failures = []
    for cin, cout in ((8, 6), (5, 6), (5, 3), (8, 6), (2, 1), (8, 6)):
        x = _channels_last(rng.normal(size=(9, cin, 6, 6)))
        w = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        failures += [f"{cin}->{cout}: {f}"
                     for f in _conv_failures(rng, x, w, b, 2, 1)]
    assert not failures


def _tensors(rng):
    """The layouts layer inputs arrive in, offset from zero."""
    def draw(*shape):
        return rng.normal(1.5, 2.0, size=shape)
    return (("nchw", draw(6, 3, 5, 4)),
            ("channels-last", _channels_last(draw(6, 3, 5, 4))),
            ("2-d", draw(9, 7)),
            ("2-d transposed", draw(7, 9).T))


@pytest.mark.parametrize("k", (1, 3, 8, 16))
def test_quantizer_matches_former(k):
    rng = np.random.default_rng(k)
    tensors = _tensors(rng)
    # a range inside the data clips both tails; a degenerate one carries no
    # information
    lo, hi = np.quantile(tensors[0][1], [0.1, 0.85])
    # half a level above each level, where a reordered scaling moves levels
    step = (hi - lo) / ((1 << k) - 1)
    mids = lo + (np.arange(64).reshape(8, 8) + 0.5) * step
    for tag, x in tensors + (("level midpoints", mids),):
        before = x.copy()
        for qp in (quant.QuantParams(k, lo, hi),
                   quant.QuantParams(k, float(x.min()), float(x.max())),
                   quant.QuantParams(k, lo, lo)):
            case = f"{tag} [{qp.x_min:.3g}, {qp.x_max:.3g}]"
            levels = oracles.quantize(x, qp)
            assert _same(quant.quantize(x, qp), levels), case
            assert _same(quant.dequantize(levels, qp),
                         oracles.dequantize(levels, qp)), case
            assert _same(quant.fake_quant(x, qp),
                         oracles.fake_quant(x, qp)), case
            assert _same(quant.ste_mask(x, qp), oracles.ste_mask(x, qp)), case
        assert np.array_equal(x, before), f"{tag}: the input was written"


@pytest.mark.parametrize("training", (True, False), ids=("train", "eval"))
def test_batchnorm_forward_matches_former(training):
    rng = np.random.default_rng(21)
    for tag, x in _tensors(rng):
        c = x.shape[1]
        gamma, beta = rng.normal(size=c), rng.normal(size=c)
        running = (rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
        want_running = tuple(r.copy() for r in running)
        want, want_cache = oracles.batchnorm_forward(x, gamma, beta,
                                                     *want_running, training)
        got, cache = L.batchnorm_forward(x, gamma, beta, *running, training)
        assert _same(got, want), tag
        for a, ref in zip(cache, want_cache):
            if isinstance(ref, np.ndarray):
                assert _same(a, ref), tag
            else:
                assert a == ref, tag
        for r, ref in zip(running, want_running):
            assert r.tobytes() == ref.tobytes(), f"{tag}: running statistics"


def _backward_both_ways(monkeypatch, arch, seed):
    """backward's results with and without the input gradient, and the
    input_grad argument each conv backward got in the second run. A cache
    feeds one backward, so each run gets its own forward; the arch has no
    batchnorm, so both caches are equal."""
    state = engine.init_state(arch, seed)
    x = np.random.default_rng(seed).normal(size=(5,) + tuple(arch.input_shape))
    logits, cache = engine.forward(arch, state, x)
    lgrad = engine.loss_softmax_xent(logits, np.arange(5) % arch.num_classes)[1]
    full = engine.backward(arch, state, cache, lgrad, input_grad=True)
    _, cache = engine.forward(arch, state, x)
    asked = []
    conv_backward = L.conv2d_backward

    def recording(kc, gout, input_grad=True):
        asked.append(input_grad)
        return conv_backward(kc, gout, input_grad)

    with monkeypatch.context() as mp:
        mp.setattr(L, "conv2d_backward", recording)
        lean = engine.backward(arch, state, cache, lgrad)
    return full, lean, asked


@pytest.mark.parametrize("first", ["conv2d", "maxpool"])
def test_backward_skips_the_input_gradient_keeping_bits(monkeypatch, first):
    specs = [dict(kind="conv2d", in_channels=3, out_channels=4, kernel=3,
                  padding=1)] if first == "conv2d" else [
        dict(kind="maxpool", kernel=2, stride=1),
        dict(kind="conv2d", in_channels=3, out_channels=4, kernel=3,
             padding=1)]
    specs += [dict(kind="relu"),
              dict(kind="conv2d", in_channels=4, out_channels=4, kernel=3,
                   padding=1),
              dict(kind="avgpool", kernel=0), dict(kind="flatten"),
              dict(kind="linear", in_channels=4, out_channels=3)]
    arch = NetworkArch([LayerSpec(id=i, **kw) for i, kw in enumerate(specs)],
                       (3, 6, 6) if first == "conv2d" else (3, 7, 7), 3)
    (grads, gx), (lean_grads, lean_gx), asked = _backward_both_ways(
        monkeypatch, arch, 1)
    assert gx is not None and lean_gx is None
    assert asked == [True, False]  # only the first conv's is skipped
    assert lean_grads.keys() == grads.keys()
    for lid, pg in grads.items():
        for name, g in pg.items():
            assert lean_grads[lid][name].tobytes() == g.tobytes(), (lid, name)


# ------------------------------------------------------------ mask products

def _same_bytes(got, want):
    """Equal bytes (so -0.0 and NaN count as their bits) and layouts."""
    return (got.dtype == want.dtype and _layout(got) == _layout(want)
            and got.tobytes() == want.tobytes())


def _layouts(a):
    """a in C order and with its channels innermost (a 2-d a: transposed)."""
    return (("c-order", a), ("channels-last", _channels_last(a)
                             if a.ndim == 4 else np.asfortranarray(a)))


def _with_specials(rng, shape):
    """Normal values, a third of them replaced by +-0, NaN and +-inf."""
    g = rng.normal(size=shape)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    pick = rng.random(shape) < 1 / 3
    g[pick] = rng.choice(specials, size=int(pick.sum()))
    g.reshape(-1)[:5] = specials  # each at least once
    return g


@pytest.mark.parametrize("shape", [(4, 6, 5, 3), (7, 9)])
def test_relu_backward_matches_the_bool_mask_product(shape):
    rng = np.random.default_rng(len(shape))
    for (gtag, g), (mtag, mask) in itertools.product(
            _layouts(_with_specials(rng, shape)),
            _layouts(rng.random(shape) < 0.5)):
        with np.errstate(invalid="ignore"):  # inf * 0
            got, _ = L.relu_backward(mask, g)
            want, _ = oracles.relu_backward(mask, g)
        assert _same_bytes(got, want), (gtag, mtag)


@pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (3, 2)])
def test_maxpool_backward_matches_the_bool_mask_product(kernel, stride):
    rng = np.random.default_rng(kernel * 10 + stride)
    for xtag, x in _layouts(rng.normal(size=(3, 4, 7, 7))):
        out, cache = L.maxpool_forward(x, kernel, stride)
        for gtag, g in _layouts(_with_specials(rng, out.shape)):
            with np.errstate(invalid="ignore"):  # inf * 0, inf - inf
                got, _ = L.maxpool_backward(cache, g)
                want, _ = oracles.maxpool_backward(cache, g)
            assert _same_bytes(got, want), (xtag, gtag)


class _BoolMask(np.ndarray):
    """An STE mask whose uint8 view is the bool mask itself, so that the
    engine multiplies by bool, as it did before."""

    def view(self, *args, **kwargs):
        return np.ndarray.view(self, np.ndarray)


def _engine_grads(arch, quantizer, x):
    """The gradients of a backward after a training forward on x."""
    state = engine.init_state(arch, 2)
    logits, cache = engine.forward(arch, state, x,
                                   quantizer=copy.deepcopy(quantizer))
    lgrad = engine.loss_softmax_xent(logits,
                                     np.arange(len(x)) % arch.num_classes)[1]
    return engine.backward(arch, state, cache, lgrad, input_grad=True)


@pytest.mark.parametrize("arch", [build_toy_cnn(), _residual_arch()],
                         ids=["toy", "residual"])
def test_engine_backward_matches_the_bool_mask_products(monkeypatch, arch):
    rng = np.random.default_rng(11)
    shape = (6,) + tuple(arch.input_shape)
    quantizer = build_quantizer(arch, dict.fromkeys(arch.weighted_ids(), 3),
                                ScheduleConfig())
    # ranges from a narrow batch, then a wide one: its STE masks clip
    engine.forward(arch, engine.init_state(arch, 2),
                   0.25 * rng.normal(size=shape), quantizer=quantizer)
    x = 2.0 * rng.normal(size=shape)
    grads, gx = _engine_grads(arch, quantizer, x)
    with monkeypatch.context() as mp:
        mp.setattr(L, "relu_backward", oracles.relu_backward)
        mp.setattr(L, "maxpool_backward", oracles.maxpool_backward)
        mp.setattr(quant, "ste_mask",
                   lambda x, qp: oracles.ste_mask(x, qp).view(_BoolMask))
        want, want_gx = _engine_grads(arch, quantizer, x)
    with monkeypatch.context() as mp:
        mp.setattr(quant, "ste_mask", lambda x, qp: np.ones(x.shape, bool))
        unclipped, _ = _engine_grads(arch, quantizer, x)
    assert _same_bytes(gx, want_gx)
    assert grads.keys() == want.keys()
    for lid, pg in want.items():
        for name, g in pg.items():
            assert _same_bytes(grads[lid][name], g), (lid, name)
    assert any(not np.array_equal(unclipped[lid][name], g)
               for lid, pg in want.items() for name, g in pg.items()), \
        "the STE masks clip nothing"
