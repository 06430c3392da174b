"""Dense forward/backward kernels for the supported layer kinds.

Everything runs in float64. Each forward returns ``(out, cache)`` and each
backward consumes ``(cache, grad_out)`` and returns ``(grad_in, param_grads)``
where ``param_grads`` maps parameter name -> gradient array. The backward of
a kind with trainable parameters also takes ``input_grad=False``, which
skips ``grad_in`` (returned as None).

Convolution is a GEMM over patch rows: the (B·Ho·Wo, C·k·k) matrix, one
row per output position, columns in ``weight.reshape(Cout, -1)`` order. It
is gathered with ``np.take`` from a channels-last (padded) copy of the
input, ``xp`` (B, Hp, Wp, C), through one sample's flat patch offsets into
that copy; they depend only on the geometry (C, Hp, Wp, k, stride) and are
memoized. The forward's cache keeps ``xp``, not the rows, which are about
k·k times its size. The backward rebuilds the weight gradient's operand,
the rows' transpose ``cols`` (C·k·k, B·Ho·Wo), from ``xp`` with k·k strided
copies, one per kernel tap (classic im2col). It scatters the patch gradient
back through the patch offsets with ``np.bincount``, SCATTER_CHUNK samples
per call (a per-call index that stays small whatever the batch size), and
copies each chunk's channels-last sums into a padded NCHW buffer. Training must stay bit-identical to the
earlier im2col kernels, which fixes orders and memory layouts that are
usually free choices:

* GEMM operands. OpenBLAS's summation order follows operand layout, so the
  forward is ``rows @ Wmat.T`` with ``rows`` C-ordered (F-ordered when
  B = 1), the weight gradient ``cols @ G`` with ``G`` the (B·Ho·Wo, Cout)
  matrix of the output gradient, and the patch gradient ``G @ Wmat``.
  ``cols`` has the values, bytes and layout of ``ascontiguousarray(rows.T)``
  (F-ordered, as ``rows.T`` is, when Ho·Wo = 1): the tap copies move values
  without arithmetic into a buffer allocated in that layout, so BLAS sees
  the operands the earlier kernels passed it on any build. A transposed
  view in place of a copy changes bits.
* Scatter order. The earlier kernels added the k·k kernel taps in turn,
  so each input element is ``0 + g(0,0) + g(0,1) + ... + g(k-1,k-1)`` over
  the taps that reach it. ``np.bincount`` adds in traversal order, and the
  patch gradient is (B, Ho, Wo, C, k, k)-ordered. Tap (i, j) reaches input
  (h, w) from output ((h - i) / stride, (w - j) / stride), so for one input
  element a later output brings an earlier tap. Walking the patch gradient
  backwards therefore meets every element's taps in (i, j) order, and the
  sums keep their bits.
* Returned strides. numpy reductions (batchnorm statistics, bias gradients)
  sum in stride order, so the output is the channels-innermost view of the
  (B·Ho·Wo, Cout) GEMM result and the input gradient is the interior slice
  of a padded NCHW buffer, even where another layout would be cheaper.

``batchnorm_forward`` forms ``x - mean`` once and normalizes it in place,
with the statistics computed op for op as ``x.mean``/``x.var`` compute them.
``tests/test_kernels_bitexact.py`` holds both conv kernels and the batchnorm
forward to the earlier ones' bits and strides. Pooling uses per-offset
slicing with a fixed scan order so max-pool ties always break toward the
first window position (deterministic backward).
"""

from __future__ import annotations

import functools

import numpy as np

from adq.errors import ConfigurationError

BN_EPS = 1e-5
SCATTER_CHUNK = 2  # samples per np.bincount call in conv2d_backward


# ------------------------------------------------------------------- geometry
# Shape inference (``adq.nn.arch``) sizes layers with these same helpers.

def conv_output_size(h, w, kernel, stride, padding):
    """(Ho, Wo) of a convolution over an h x w map."""
    return ((h + 2 * padding - kernel) // stride + 1,
            (w + 2 * padding - kernel) // stride + 1)


def pool_geometry(h, w, kernel, stride):
    """(window, stride, Ho, Wo) of pooling over an h x w map.

    kernel 0 is global pooling, which needs a square map; stride 0 steps by
    the window.
    """
    if kernel == 0:
        if h != w:
            raise ConfigurationError(
                f"global pooling needs a square map, got {h}x{w}")
        kernel = stride = h
    stride = stride or kernel
    return kernel, stride, (h - kernel) // stride + 1, (w - kernel) // stride + 1


# ---------------------------------------------------------------- convolution

@functools.lru_cache(maxsize=64)
def _patch_index(c, hp, wp, kernel, stride):
    """(Ho·Wo, C·k·k) offsets of one sample's patch-row elements into its
    flattened channels-last padded map (Hp, Wp, C)."""
    ho, wo = conv_output_size(hp, wp, kernel, stride, 0)
    corner = np.arange(ho)[:, None] * stride * wp + np.arange(wo) * stride
    tap = np.arange(kernel)[:, None] * wp + np.arange(kernel)
    idx = (corner.reshape(-1, 1, 1, 1) + tap) * c + np.arange(c)[:, None, None]
    idx = idx.reshape(ho * wo, c * kernel * kernel)
    idx.flags.writeable = False
    return idx


def _padded(x: np.ndarray, padding: int):
    """x channels-last, zero-padded: (B, Hp, Wp, C). Without padding it is
    a free view of a channels-innermost x."""
    xp = x.transpose(0, 2, 3, 1)
    if padding:
        b, c, h, w = x.shape
        xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    return xp


def _patch_rows(xp: np.ndarray, kernel: int, stride: int):
    """Patch rows of the padded map xp (see the module docstring)."""
    b, hp, wp, c = xp.shape
    idx = _patch_index(c, hp, wp, kernel, stride)
    rows = np.take(xp.reshape(b, -1), idx, axis=1).reshape(-1, idx.shape[1])
    return np.asfortranarray(rows) if b == 1 else rows


def _patch_cols(xp: np.ndarray, kernel: int, stride: int, ho: int, wo: int):
    """The patch rows' transpose, (C·k·k, B·Ho·Wo), copied tap by tap from
    the padded map xp: C-ordered, or F-ordered for one output position."""
    b, _, _, c = xp.shape
    cols = np.empty((c * kernel * kernel, b * ho * wo),
                    order="F" if ho * wo == 1 else "C")
    taps = cols.reshape(c, kernel, kernel, b, ho, wo)  # a view of cols
    src = xp.transpose(3, 0, 1, 2)
    if kernel > 1:  # read k·k times: make the taps' reads unit-stride
        src = np.ascontiguousarray(src)
    for i in range(kernel):
        for j in range(kernel):
            taps[:, i, j] = src[:, :, i:i + stride * ho:stride,
                                j:j + stride * wo:stride]
    return cols


def conv2d_forward(x, weight, bias, stride=1, padding=0):
    """x: (B, Cin, H, W); weight: (Cout, Cin, p, p); bias: (Cout,)."""
    b, _, h, w = x.shape
    cout, _, p, _ = weight.shape
    ho, wo = conv_output_size(h, w, p, stride, padding)
    xp = _padded(x, padding)
    rows = _patch_rows(xp, p, stride)
    out = rows @ weight.reshape(cout, -1).T
    out += bias
    out = out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)
    if rows.shape[1] == 1:  # an outer product: the earlier kernel's was NCHW
        out = np.ascontiguousarray(out)
    cache = (x.shape, xp, weight, stride, padding, ho, wo)
    return out, cache


def conv2d_backward(cache, gout, input_grad=True):
    x_shape, xp, weight, stride, padding, ho, wo = cache
    b, c, h, w = x_shape
    cout, _, p, _ = weight.shape
    n = ho * wo
    g = gout.reshape(b, cout, n).transpose(0, 2, 1).reshape(b * n, cout)
    cols = _patch_cols(xp, p, stride, ho, wo)
    gw = (cols @ g).T
    # freed before grows is allocated, so the allocator can hand the same
    # block back; two such blocks freed together go back to the OS and
    # are page-faulted in again on the next call
    del cols
    if b * n == 1:  # an outer product: the earlier kernel's was C-ordered
        gw = np.ascontiguousarray(gw)
    gw = gw.reshape(weight.shape)
    gb = gout.sum(axis=(0, 2, 3))
    if not input_grad:
        return None, {"w": gw, "b": gb}
    grows = (g @ weight.reshape(cout, -1)).reshape(b, -1)
    hp, wp = h + 2 * padding, w + 2 * padding
    per = hp * wp * c
    chunk = min(b, SCATTER_CHUNK)
    # the patch rows' offsets, reversed: the reversed gradient of a chunk
    # holds samples chunk - 1, ..., 0
    idx = (np.arange(chunk - 1, -1, -1)[:, None] * per
           + _patch_index(c, hp, wp, p, stride).reshape(-1)[::-1]).reshape(-1)
    gxp = np.empty((b, c, hp, wp), dtype=grows.dtype)
    for s in range(0, b, chunk):
        part = grows[s:s + chunk]
        m = part.shape[0]
        acc = np.bincount(idx[idx.size - part.size:], part.reshape(-1)[::-1],
                          minlength=m * per)
        gxp[s:s + m] = acc.reshape(m, hp, wp, c).transpose(0, 3, 1, 2)
    gx = gxp[:, :, padding:padding + h, padding:padding + w]
    return gx, {"w": gw, "b": gb}


# --------------------------------------------------------------------- linear

def linear_forward(x, weight, bias):
    """x: (B, F); weight: (O, F); bias: (O,)."""
    out = x @ weight.T + bias
    return out, (x, weight)


def linear_backward(cache, gout, input_grad=True):
    x, weight = cache
    gw = gout.T @ x
    gb = gout.sum(axis=0)
    gx = gout @ weight if input_grad else None
    return gx, {"w": gw, "b": gb}


# ----------------------------------------------------------------- activation

def relu_forward(x):
    out = np.maximum(x, 0.0)
    return out, (x > 0)


def relu_backward(cache, gout):
    # uint8 casts to the same 1.0/0.0 as bool, but multiplies several x faster
    return gout * cache.view(np.uint8), {}


# -------------------------------------------------------------------- pooling

def maxpool_forward(x, kernel, stride=0):
    k, s, ho, wo = pool_geometry(*x.shape[2:], kernel, stride)
    b, c = x.shape[:2]
    best = np.full((b, c, ho, wo), -np.inf, dtype=x.dtype)
    arg = np.zeros((b, c, ho, wo), dtype=np.min_scalar_type(k * k - 1))
    better = np.empty((b, c, ho, wo), dtype=bool)
    for i in range(k):
        for j in range(k):
            patch = x[:, :, i:i + s * ho:s, j:j + s * wo:s]
            # strict: ties keep the first (i, j) seen, NaNs are never taken
            np.greater(patch, best, out=better)
            np.copyto(best, patch, where=better)
            np.copyto(arg, i * k + j, where=better)
    return best, (x.shape, k, s, ho, wo, arg)


def maxpool_backward(cache, gout):
    x_shape, k, s, ho, wo, arg = cache
    gx = np.zeros(x_shape, dtype=gout.dtype)
    for i in range(k):
        for j in range(k):
            # uint8, not bool: the same product, faster (see relu_backward)
            sel = (arg == i * k + j).view(np.uint8)
            gx[:, :, i:i + s * ho:s, j:j + s * wo:s] += gout * sel
    return gx, {}


def avgpool_forward(x, kernel, stride=0):
    k, s, ho, wo = pool_geometry(*x.shape[2:], kernel, stride)
    b, c = x.shape[:2]
    acc = np.zeros((b, c, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            acc += x[:, :, i:i + s * ho:s, j:j + s * wo:s]
    out = acc / (k * k)
    return out, (x.shape, k, s, ho, wo)


def avgpool_backward(cache, gout):
    x_shape, k, s, ho, wo = cache
    gx = np.zeros(x_shape, dtype=gout.dtype)
    share = gout / (k * k)
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + s * ho:s, j:j + s * wo:s] += share
    return gx, {}


# -------------------------------------------------------------------- flatten

def flatten_forward(x):
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(cache, gout):
    return gout.reshape(cache), {}


# --------------------------------------------------------------- residual add

def add_forward(x, skip):
    return x + skip, None


def add_backward(cache, gout):
    return gout, gout  # main, skip


# ----------------------------------------------------------------- batch norm

def _bn_axes(x):
    return (0, 2, 3) if x.ndim == 4 else (0,)


def _bn_bcast(v, x):
    return v[None, :, None, None] if x.ndim == 4 else v[None, :]


def batchnorm_forward(x, gamma, beta, running_mean, running_var, training,
                      momentum=0.1):
    """Per-channel normalization. Running stats are updated in place when
    training; evaluation normalizes with the stored running stats.

    The batch statistics are computed op for op as ``x.mean``/``x.var`` do,
    with ``x - mean`` formed once and turned into ``xhat`` in place."""
    axes = _bn_axes(x)
    if training:
        n = x.size // x.shape[1]
        mean = np.add.reduce(x, axis=axes) / n
        d = x - _bn_bcast(mean, x)
        var = np.add.reduce(np.square(d), axis=axes) / n
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        var = running_var
        d = x - _bn_bcast(running_mean, x)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = d
    xhat *= _bn_bcast(inv_std, x)
    out = _bn_bcast(gamma, x) * xhat
    out += _bn_bcast(beta, x)
    return out, (xhat, gamma, inv_std, training, x.shape)


def batchnorm_backward(cache, gout, input_grad=True):
    xhat, gamma, inv_std, training, x_shape = cache
    axes = _bn_axes(gout)
    n = 1
    for a in axes:
        n *= x_shape[a]
    ggamma = (gout * xhat).sum(axis=axes)
    gbeta = gout.sum(axis=axes)
    if not input_grad:
        return None, {"gamma": ggamma, "beta": gbeta}
    gxhat = gout * _bn_bcast(gamma, gout)
    if training:
        # batch statistics are a function of x: full backward
        gx = (
            gxhat
            - _bn_bcast(gxhat.sum(axis=axes) / n, gout)
            - xhat * _bn_bcast((gxhat * xhat).sum(axis=axes) / n, gout)
        ) * _bn_bcast(inv_std, gout)
    else:
        gx = gxhat * _bn_bcast(inv_std, gout)
    return gx, {"gamma": ggamma, "beta": gbeta}
