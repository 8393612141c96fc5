"""Plain numpy references for the encoder's ops, one output element at a time.

They share no code with ``avil.autodiff``: no patch matrices, row blocks,
masks or worker splits, so a test that compares the kernels with them checks
what the kernels compute, not only that two of their paths agree.
"""

import itertools

import numpy as np


def naive_conv(x, kernels, bias):
    """Valid cross-correlation, one output position at a time."""
    b, _, h, w = x.shape
    cout, _, k, _ = kernels.shape
    out = np.zeros((b, cout, h - k + 1, w - k + 1))
    for n, y, z in itertools.product(range(b), range(h - k + 1), range(w - k + 1)):
        out[n, :, y, z] = np.tensordot(kernels, x[n, :, y : y + k, z : z + k], axes=3) + bias
    return out


def naive_conv_vjp(x, kernels, g):
    """(dx, dkernels, dbias) of naive_conv for upstream gradient g."""
    b, _, ho, wo = g.shape
    k = kernels.shape[2]
    dx = np.zeros(x.shape)
    dk = np.zeros(kernels.shape)
    for n, y, z in itertools.product(range(b), range(ho), range(wo)):
        dx[n, :, y : y + k, z : z + k] += np.tensordot(g[n, :, y, z], kernels, axes=1)
        dk += g[n, :, y, z][:, None, None, None] * x[n, :, y : y + k, z : z + k]
    return dx, dk, g.sum(axis=(0, 2, 3))


def maxpool_reference(x, g):
    """The argmax / take_along_axis / put_along_axis kernel: the 2x2 pool of x and g routed back through it.

    argmax picks the first maximum in row-major window order, so a tied
    window hands its whole gradient to its first tied element.
    """
    b, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = np.ascontiguousarray(
        x.reshape(b, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(b, c, h2, w2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dwin = np.zeros_like(win)
    np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
    return out, dwin.reshape(b, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)


def pooled_conv_reference(x, kernels, bias):
    """(output, vjp) of ``autodiff.conv2d`` by the references: the pool of naive_conv.

    ``vjp(g)`` is (dx, dkernels, dbias) for upstream gradient g.
    """
    conv = naive_conv(x, kernels, bias)
    out, _ = maxpool_reference(conv, np.zeros_like(conv[:, :, ::2, ::2]))
    return out, lambda g: naive_conv_vjp(x, kernels, maxpool_reference(conv, g)[1])


def assert_close_to(actual, reference, rtol=1e-12):
    """Relative agreement, scaled by the reference's largest entry near zeros."""
    np.testing.assert_allclose(actual, reference, rtol=rtol, atol=rtol * np.abs(reference).max())
