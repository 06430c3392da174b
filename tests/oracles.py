"""Independent reference implementations used as test oracles.

Everything here shares no code with the package internals. Most of it is
deliberately naive (nested loops, direct formulas); the einsum convolution
kernels are the package's former kernels, kept as a bit-for-bit reference.
"""

import numpy as np


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
