import gc
import itertools
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from avil import autodiff as ad
from avil.autodiff import ShapeError, Tape, Tensor, backward
from avil.model import build_model
from gradcheck import assert_gradients_close, numeric_gradient


def tracked(data):
    return Tensor(np.asarray(data, dtype=np.float64), tracked=True)


def weighted_sum(out, weights):
    """sum(out * weights) as a scalar tensor, so backward feeds ``weights`` to ``out``."""
    flat = ad.reshape(out, (1, -1))
    w = Tensor(np.asarray(weights, dtype=out.dtype).reshape(-1, 1))
    return ad.tensor_sum(ad.linear(flat, w, Tensor(np.zeros(1, dtype=out.dtype))))


# Memory layouts of a (b, c, h, w) array that the kernels accept: plain (the
# images), channel-major (a layout no op produces) and batch-innermost
# (every activation and activation gradient).
LAYOUTS = {
    "contiguous": lambda a: np.ascontiguousarray(a),
    "channel-major": lambda a: np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
    "batch-innermost": lambda a: np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2),
}


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestLinear:
    def test_identity_weight_passes_input(self):
        out = ad.linear(tracked([[1.0, 2.0]]), tracked(np.eye(2)), tracked([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_zero_weight_passes_bias(self):
        out = ad.linear(tracked([[1.0, 2.0]]), tracked(np.zeros((2, 2))), tracked([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 3\).*\(2, 2\)"):
            ad.linear(tracked(np.ones((1, 3))), tracked(np.ones((2, 2))), tracked(np.ones(2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_weight_gradient_matches_finite_differences(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((3, 4))
        w0 = gen.standard_normal((4, 2))
        b = gen.standard_normal(2)

        def loss_at(w):
            return ad.linear(Tensor(x), Tensor(w), Tensor(b)).data.sum()

        wt = tracked(w0)
        with Tape():
            out = ad.linear(Tensor(x), wt, Tensor(b))
            grads = backward(ad.tensor_sum(out))
        assert_gradients_close(grads[wt], numeric_gradient(loss_at, w0), rtol=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_input_and_bias_gradients_match_finite_differences(self, seed):
        gen = np.random.default_rng(100 + seed)
        x0 = gen.standard_normal((3, 4))
        w = gen.standard_normal((4, 2))
        b0 = gen.standard_normal(2)
        xt, bt = tracked(x0), tracked(b0)
        with Tape():
            grads = backward(ad.tensor_sum(ad.linear(xt, Tensor(w), bt)))
        assert_gradients_close(
            grads[xt], numeric_gradient(lambda x: ad.linear(Tensor(x), Tensor(w), Tensor(b0)).data.sum(), x0),
            rtol=1e-5,
        )
        assert_gradients_close(
            grads[bt], numeric_gradient(lambda b: ad.linear(Tensor(x0), Tensor(w), Tensor(b)).data.sum(), b0),
            rtol=1e-5,
        )


class TestConv2d:
    def test_box_sum(self):
        x = tracked(np.ones((1, 1, 3, 3)))
        k = tracked(np.ones((1, 1, 2, 2)))
        out = ad.conv2d(x, k, tracked([0.0]))
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_impulse_response_reveals_kernel(self):
        # cross-correlation: a centered unit impulse reproduces the kernel
        # spatially reversed (true convolution would reproduce it unflipped)
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        k = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = ad.conv2d(tracked(x), tracked(k), tracked([0.0]))
        np.testing.assert_array_equal(out.data[0, 0], k[0, 0, ::-1, ::-1])

    def test_delta_kernel_is_identity_crop(self):
        # the cross-correlation identity: a centered delta kernel crops the
        # input window unchanged
        gen = np.random.default_rng(5)
        x = gen.standard_normal((1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = ad.conv2d(tracked(x), tracked(k), tracked([0.0]))
        np.testing.assert_array_equal(out.data[0, 0], x[0, 0, 1:4, 1:4])

    def test_kernel_larger_than_input_is_error(self):
        with pytest.raises(ShapeError, match="larger than input"):
            ad.conv2d(tracked(np.ones((1, 1, 3, 3))), tracked(np.ones((1, 1, 5, 5))), tracked([0.0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_gradient_matches_finite_differences(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((2, 2, 6, 6))
        k0 = gen.standard_normal((3, 2, 3, 3))
        b = gen.standard_normal(3)
        kt = tracked(k0)
        with Tape():
            grads = backward(ad.tensor_sum(ad.conv2d(Tensor(x), kt, Tensor(b))))
        numeric = numeric_gradient(
            lambda k: ad.conv2d(Tensor(x), Tensor(k), Tensor(b)).data.sum(), k0
        )
        assert_gradients_close(grads[kt], numeric, rtol=1e-5)

    @pytest.mark.parametrize("seed", range(10))
    def test_input_gradient_matches_finite_differences(self, seed):
        gen = np.random.default_rng(200 + seed)
        x0 = gen.standard_normal((2, 2, 5, 5))
        k = gen.standard_normal((3, 2, 3, 3))
        b = gen.standard_normal(3)
        # relu after the conv makes the input gradient position-dependent
        xt = tracked(x0)
        with Tape():
            grads = backward(ad.tensor_sum(ad.relu(ad.conv2d(xt, Tensor(k), Tensor(b)))))
        numeric = numeric_gradient(
            lambda x: ad.relu(ad.conv2d(Tensor(x), Tensor(k), Tensor(b))).data.sum(), x0
        )
        assert_gradients_close(grads[xt], numeric, rtol=1e-4)


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


def assert_close_to(actual, reference, rtol=1e-12):
    """Relative agreement, scaled by the reference's largest entry near zeros."""
    np.testing.assert_allclose(actual, reference, rtol=rtol, atol=rtol * np.abs(reference).max())


def block_rows(ho, row_elements):
    """Rows per backward block of a float64 conv."""
    return [s.stop - s.start for s in ad._row_blocks(ho, row_elements, ad._BLOCK_BYTES // 8)]


class TestConv2dReference:
    @pytest.mark.parametrize(
        "layout, blocks",
        [pytest.param(layout, "one block", id=layout) for layout in sorted(LAYOUTS)]
        + [pytest.param(layout, "forced blocks", id=f"{layout}-forced blocks") for layout in sorted(LAYOUTS)],
    )
    def test_two_stacked_convs_match_naive_loops(self, monkeypatch, layout, blocks):
        # the second conv reads the first's batch-innermost output and hands
        # back a batch-innermost input gradient as the first's upstream
        gen = np.random.default_rng(11)
        h, w = (8, 8) if blocks == "one block" else (18, 8)
        if blocks == "forced blocks":
            # uneven row blocks ending in a one-row block: 27 and 16 patch
            # rows per output position, 6 and 5 output columns, batch 2
            monkeypatch.setattr(ad, "_BLOCK_BYTES", 1200 * 8)  # 1200 float64 elements
            assert block_rows(16, 27 * 6 * 2) == [3, 3, 3, 3, 3, 1]
            assert block_rows(15, 16 * 5 * 2) == [7, 7, 1]
        x = LAYOUTS[layout](gen.standard_normal((2, 3, h, w)))
        k1, b1 = gen.standard_normal((4, 3, 3, 3)), gen.standard_normal(4)
        k2, b2 = gen.standard_normal((5, 4, 2, 2)), gen.standard_normal(5)
        upstream = gen.standard_normal((2, 5, h - 3, w - 3))
        leaves = [tracked(a) for a in (x, k1, b1, k2, b2)]
        with Tape():
            hidden = ad.conv2d(*leaves[:3])
            out = ad.conv2d(hidden, *leaves[3:])
            loss = weighted_sum(out, upstream)
        grads = backward(loss)
        ref_hidden = naive_conv(x, k1, b1)
        assert_close_to(hidden.data, ref_hidden)
        assert_close_to(out.data, naive_conv(ref_hidden, k2, b2))
        d_hidden, dk2, db2 = naive_conv_vjp(ref_hidden, k2, upstream)
        dx, dk1, db1 = naive_conv_vjp(x, k1, d_hidden)
        for leaf, reference in zip(leaves, (dx, dk1, db1, dk2, db2)):
            assert_close_to(grads[leaf], reference)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_peak_memory_stays_within_a_few_row_blocks(self, traced_peak, dtype):
        # the whole (250, 8*8*512) patch matrix would be 31.3 MiB in float32
        # and 62.5 MiB in float64
        gen = np.random.default_rng(13)
        x = Tensor(LAYOUTS["batch-innermost"](gen.standard_normal((512, 10, 12, 12)).astype(dtype)), tracked=True)
        k, b = (Tensor(gen.standard_normal(shape).astype(dtype), tracked=True) for shape in ((20, 10, 5, 5), (20,)))
        assert 250 * 8 * 8 * 512 * x.dtype.itemsize > 3 * ad._BLOCK_BYTES

        def forward_backward():
            with Tape():
                out = ad.conv2d(x, k, b)
                loss = ad.tensor_sum(out)
            return out, backward(loss)

        (out, grads), peak = traced_peak(forward_backward)
        # the output, its gradient as tensor_sum hands it and as batch-innermost
        # rows, the input gradient, and one block's patches or patch gradient
        assert peak < 3 * out.data.nbytes + grads[x].nbytes + 1.5 * ad._BLOCK_BYTES

    def test_a_block_holds_the_same_bytes_in_float32_and_float64(self, monkeypatch):
        # conv2's shapes at batch 256, 2 workers: a forward part is 2 output
        # rows of every image in float32 and 1 in float64, a backward block
        # 4 output rows and 2
        monkeypatch.setattr(ad, "_WORKERS", 2)
        held = {}  # the most elements a forward part or a backward block holds
        forward_parts, row_blocks = ad._forward_parts, ad._row_blocks

        def recorded_parts(ho, b, row_elements, *rest):
            parts = forward_parts(ho, b, row_elements, *rest)
            held["part"] = max((rs.stop - rs.start) * (im.stop - im.start) for rs, im in parts) * row_elements
            return parts

        def recorded_blocks(ho, row_elements, *rest):
            blocks = row_blocks(ho, row_elements, *rest)
            held["block"] = max(rs.stop - rs.start for rs in blocks) * row_elements
            return blocks

        monkeypatch.setattr(ad, "_forward_parts", recorded_parts)
        monkeypatch.setattr(ad, "_row_blocks", recorded_blocks)
        gen = np.random.default_rng(17)
        arrays = [gen.standard_normal(shape) for shape in ((256, 10, 12, 12), (20, 10, 5, 5), (20,))]
        nbytes = {}
        for dtype in (np.float32, np.float64):
            ad.conv2d(*(Tensor(a.astype(dtype)) for a in arrays))
            nbytes[dtype] = {name: elements * np.dtype(dtype).itemsize for name, elements in held.items()}
        assert nbytes[np.float32] == nbytes[np.float64]
        assert nbytes[np.float64]["block"] <= ad._BLOCK_BYTES


def maxpool_reference(x, g):
    """The argmax / take_along_axis / put_along_axis kernel, for comparison."""
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


def maxpool_with_gradient(x, g):
    xt = Tensor(x, tracked=True)
    with Tape():
        out = ad.maxpool2(xt)
        loss = weighted_sum(out, g)
    grads = backward(loss)
    return out.data, grads[xt]


class TestMaxpool2Reference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_tie_pattern_is_bit_equal_to_the_argmax_kernel(self, dtype):
        # channel p holds one window per tie pattern: the positions in the
        # p-th non-empty subset of the four share the maximum; windows with
        # negative values and negative upstream gradients are included
        patterns = [s for r in range(1, 5) for s in itertools.combinations(range(4), r)]
        assert len(patterns) == 15
        windows = np.full((15, 4), 0.5)
        for p, subset in enumerate(patterns):
            windows[p, list(subset)] = 1.0
        x = np.concatenate([windows, windows - 3.0], axis=0).reshape(1, 30, 2, 2).astype(dtype)
        g = np.linspace(-1.0, 1.0, 30).reshape(1, 30, 1, 1).astype(dtype)
        out, dx = maxpool_with_gradient(x, g)
        ref_out, ref_dx = maxpool_reference(x, g)
        assert bits(out) == bits(ref_out)
        assert bits(dx) == bits(ref_dx)
        for p, subset in enumerate(patterns):
            assert np.flatnonzero(dx[0, p]).tolist() == [subset[0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_random_input_is_bit_equal_to_the_argmax_kernel(self, dtype, layout):
        gen = np.random.default_rng(12)
        # coarse values make ties common
        x = LAYOUTS[layout](gen.integers(-3, 4, size=(3, 4, 6, 8)).astype(dtype))
        g = gen.standard_normal((3, 4, 3, 4)).astype(dtype)
        out, dx = maxpool_with_gradient(x, g)
        ref_out, ref_dx = maxpool_reference(x, g)
        assert bits(out) == bits(ref_out)
        assert bits(dx) == bits(ref_dx)
        assert dx.strides == x.strides


class TestMaxpool2:
    def test_single_window(self):
        out = ad.maxpool2(tracked([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_array_equal(out.data, [[[[4.0]]]])

    def test_constant_input_ties_route_to_first_position(self):
        x = tracked(np.ones((1, 1, 4, 4)))
        with Tape():
            out = ad.maxpool2(x)
            grads = backward(ad.tensor_sum(out))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, ::2, ::2] = 1.0  # position (0,0) of each window
        np.testing.assert_array_equal(grads[x], expected)

    def test_odd_spatial_dims_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            ad.maxpool2(tracked(np.ones((1, 1, 3, 4))))

    def test_tape_free_call_records_nothing(self):
        x = np.ones((1, 1, 4, 4))
        out = ad.maxpool2(tracked(x))
        assert out.tape is None and not out.tracked
        with Tape() as tape:
            out = ad.maxpool2(Tensor(x))
        assert tape._records == [] and out.tape is None and not out.tracked

    def test_conv_output_is_freed_once_the_pool_returns(self, rng):
        # the pool's record keeps masks, never its input, so the conv output
        # dies with its tensor; gc stays off to show reference counting does it
        k, b = tracked(rng.standard_normal((3, 1, 3, 3))), tracked(rng.standard_normal(3))
        gc.collect()
        gc.disable()
        try:
            with Tape():
                conv = ad.conv2d(Tensor(rng.uniform(size=(4, 1, 10, 10))), k, b)
                conv_refs = weakref.ref(conv.data), weakref.ref(conv.data.base)
                pooled = ad.maxpool2(conv)
                del conv
                assert [ref() for ref in conv_refs] == [None, None]
                loss = ad.tensor_sum(ad.relu(pooled))
            grads = backward(loss)
        finally:
            gc.enable()
        assert set(grads) == {k, b}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_window_max(self, seed):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((1, 1, 4, 4))
        out = ad.maxpool2(tracked(x))
        brute = np.array([
            [x[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max() for j in range(2)]
            for i in range(2)
        ])
        np.testing.assert_array_equal(out.data[0, 0], brute)

    def test_backward_conserves_gradient_mass(self, rng):
        x = tracked(rng.standard_normal((2, 3, 8, 8)))
        with Tape():
            out = ad.maxpool2(x)
            grads = backward(ad.tensor_sum(out))
        assert grads[x].sum() == pytest.approx(out.data.size)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences_off_ties(self, seed):
        gen = np.random.default_rng(300 + seed)
        # resample until every window's top-2 gap clears the FD step comfortably
        while True:
            x0 = gen.standard_normal((1, 2, 4, 4))
            win = x0.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(1, 2, 2, 2, 4)
            top2 = np.sort(win, axis=-1)[..., -2:]
            if np.all(top2[..., 1] - top2[..., 0] > 1e-3):
                break
        xt = tracked(x0)
        with Tape():
            grads = backward(ad.tensor_sum(ad.maxpool2(xt)))
        numeric = numeric_gradient(lambda x: ad.maxpool2(Tensor(x)).data.sum(), x0, step=1e-5)
        assert_gradients_close(grads[xt], numeric, rtol=1e-5)


def maxpool2_of_conv2d(x, k, b):
    return ad.maxpool2(ad.conv2d(x, k, b))


def pooled_conv2d(x, k, b):
    return ad.conv2d(x, k, b, pool=True)


class TestPooledConv:
    """``conv2d(pool=True)`` is ``maxpool2(conv2d(...))`` bit for bit: output, gradients and their layouts."""

    # the model's shapes at batch 16, and rows of one image per forward part
    # (at 2 workers) that cut conv1's 24 or conv2's 8 output rows into runs
    # of row pairs ending in a short run, or each row pair into image spans
    SHAPES = {"conv1": ((16, 1, 28, 28), (10, 1, 5, 5)), "conv2": ((16, 10, 12, 12), (20, 10, 5, 5))}
    CUTS = {
        ("conv1", "rows"): (160, [10, 10, 4], [16]),
        ("conv1", "images"): (14, [2] * 12, [5, 5, 6]),
        ("conv2", "rows"): (96, [6, 2], [16]),
        ("conv2", "images"): (12, [2] * 4, [5, 5, 6]),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "batch-innermost"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("cut", ["whole", "rows", "images"])
    def test_bit_equal_to_maxpool2_of_conv2d(self, monkeypatch, dtype, layout, shape, cut):
        gen = np.random.default_rng(21)
        x_shape, k_shape = self.SHAPES[shape]
        batch, cout, ho = x_shape[0], k_shape[0], x_shape[2] - k_shape[2] + 1
        x = LAYOUTS[layout](gen.standard_normal(x_shape).astype(dtype))
        k, b = gen.standard_normal(k_shape).astype(dtype), gen.standard_normal(cout).astype(dtype)
        g = gen.standard_normal((batch, cout, ho // 2, ho // 2)).astype(dtype)
        whole = outputs_and_vjps(maxpool2_of_conv2d, (x, k, b), g)
        if cut != "whole":
            per_part, row_sizes, span_sizes = self.CUTS[shape, cut]
            row_elements = (k[0].size + cout) * ho  # a patch and a conv buffer column per position
            monkeypatch.setattr(ad, "_WORKERS", 2)
            block = 2 * per_part * row_elements  # elements of dtype
            monkeypatch.setattr(ad, "_BLOCK_BYTES", block * np.dtype(dtype).itemsize)
            parts = ad._forward_parts(ho, batch, row_elements, 2, block)
            rows = dict.fromkeys((rs.start, rs.stop) for rs, _ in parts)
            spans = dict.fromkeys((images.start, images.stop) for _, images in parts)
            assert [stop - start for start, stop in rows] == row_sizes
            assert [stop - start for start, stop in spans] == span_sizes
        # the output, the conv output's gradient and the gradients of x, k and b;
        # the kernel gradient's GEMMs follow _BLOCK_BYTES: compare within one setting
        pooled = outputs_and_vjps(pooled_conv2d, (x, k, b), g)
        assert pooled == outputs_and_vjps(maxpool2_of_conv2d, (x, k, b), g)
        assert pooled[0] == whole[0]  # the output does not depend on the cut

    def test_odd_conv_output_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            ad.conv2d(tracked(np.ones((1, 1, 7, 8))), tracked(np.ones((1, 1, 2, 2))), tracked(np.zeros(1)), pool=True)

    def test_tape_free_call_records_nothing(self, rng):
        args = [tracked(rng.standard_normal(s)) for s in ((2, 1, 6, 6), (3, 1, 3, 3), (3,))]
        out = ad.conv2d(*args, pool=True)
        assert out.tape is None and not out.tracked and out.shape == (2, 3, 2, 2)
        with Tape() as tape:
            out = ad.conv2d(*[Tensor(a.data) for a in args], pool=True)
        assert tape._records == [] and out.tape is None and not out.tracked


class TestRelu:
    def test_elementwise(self):
        np.testing.assert_array_equal(ad.relu(tracked([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_all_negative_blocks_gradient(self):
        x = tracked([-3.0, -1.0, -0.5])
        with Tape():
            grads = backward(ad.tensor_sum(ad.relu(x)))
        np.testing.assert_array_equal(grads[x], np.zeros(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences_away_from_zero(self, seed):
        gen = np.random.default_rng(seed)
        x0 = gen.standard_normal(32)
        x0 = np.where(np.abs(x0) > 1e-3, x0, x0 + np.sign(x0 + 0.5) * 0.1)
        xt = tracked(x0)
        with Tape():
            grads = backward(ad.tensor_sum(ad.relu(xt)))
        numeric = numeric_gradient(lambda x: ad.relu(Tensor(x)).data.sum(), x0, step=1e-4)
        assert_gradients_close(grads[xt], numeric, rtol=1e-5)


def relu_reference(x, g):
    """The np.where formula relu used before, for comparison."""
    mask = x > 0
    return np.where(mask, x, 0), g * mask


def maxpool_multiply_reference(x, g):
    """The multiply formula maxpool2 used while its record kept the input, for comparison."""
    b, c, h, w = x.shape
    pairs = x.reshape(b, c, h // 2, 2, w // 2, 2)
    rows = np.maximum(pairs[..., 0], pairs[..., 1])
    out = np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])
    top = rows[:, :, :, 0] == out
    left = pairs[..., 0] == rows
    g_rows = np.empty_like(rows)
    np.multiply(g, top, out=g_rows[:, :, :, 0])
    np.multiply(g, ~top, out=g_rows[:, :, :, 1])
    dx = np.empty_like(pairs)
    np.multiply(g_rows, left, out=dx[..., 0])
    np.multiply(g_rows, ~left, out=dx[..., 1])
    dx += 0.0
    return out, dx.reshape(b, c, h, w)


def op_with_gradient(op, x, g):
    """A one-operand op's output and its VJP applied to g, handed over in g's own layout."""
    xt = Tensor(x, tracked=True)
    with Tape() as tape:
        out = op(xt)
    ((_, vjp),) = tape._records[out.node]
    return out.data, vjp(g)


class TestReluReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_bit_equal_to_the_where_formula(self, dtype, layout):
        gen = np.random.default_rng(13)
        x = gen.standard_normal((3, 4, 6, 8))
        x[gen.random(x.shape) < 0.2] = 0.0
        x[gen.random(x.shape) < 0.2] = -0.0
        x = LAYOUTS[layout](x.astype(dtype))
        g = LAYOUTS[layout](gen.standard_normal(x.shape).astype(dtype))
        assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
        out, dx = op_with_gradient(ad.relu, x, g)
        ref_out, ref_dx = relu_reference(x, g)
        assert out.dtype == dx.dtype == dtype
        assert bits(out) == bits(ref_out)
        assert bits(dx) == bits(ref_dx)
        assert out.strides == x.strides
        zeros = out[out == 0]
        assert zeros.size > x.size // 3 and not np.signbit(zeros).any()

    def test_nan_and_minus_inf_give_nan(self):
        with np.errstate(invalid="ignore"):
            out, _ = op_with_gradient(ad.relu, np.array([np.nan, -np.inf, np.inf, -1.0]), np.ones(4))
        np.testing.assert_array_equal(out, [np.nan, np.nan, np.inf, 0.0])


# Every window of four values from these, and every window against each
# upstream gradient: NaN, +-inf and mixed +-0 in both.
EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0]
EDGE_GRADIENTS = [np.nan, np.inf, -np.inf, -0.0, -1.5, 2.0]


class TestMaxpool2EdgeCases:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_non_finite_and_signed_zero_windows_are_bit_equal_to_the_multiply_formula(self, dtype, layout):
        windows = np.array(list(itertools.product(EDGE_VALUES, repeat=4)))
        x = np.broadcast_to(windows.reshape(1, -1, 2, 2), (len(EDGE_GRADIENTS), len(windows), 2, 2))
        x = LAYOUTS[layout](x.astype(dtype))
        g = np.broadcast_to(np.array(EDGE_GRADIENTS).reshape(-1, 1, 1, 1), (len(EDGE_GRADIENTS), len(windows), 1, 1))
        g = LAYOUTS[layout](g.astype(dtype))
        with np.errstate(invalid="ignore"):
            out, dx = op_with_gradient(ad.maxpool2, x, g)
            ref_out, ref_dx = maxpool_multiply_reference(x, g)
        assert out.dtype == dx.dtype == dtype
        assert bits(out) == bits(ref_out)
        assert bits(dx) == bits(ref_dx)
        assert dx.strides == x.strides
        assert np.isnan(dx).any() and np.isinf(dx).any() and not np.signbit(dx[dx == 0]).any()


class TestCrossEntropyMean:
    def test_uniform_logits_give_log_k(self):
        logits = tracked(np.zeros((4, 10)))
        loss = ad.cross_entropy_mean(logits, np.array([0, 3, 7, 9]))
        assert float(loss.data) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_near_one_hot_logits_give_near_zero_loss(self):
        logits = np.full((1, 10), -30.0)
        logits[0, 4] = 30.0
        loss = ad.cross_entropy_mean(tracked(logits), np.array([4]))
        assert float(loss.data) < 1e-9

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.cross_entropy_mean(tracked(np.zeros((2, 10))), np.array([3, 10]))

    def test_matches_per_row_scalar_recomputation(self, rng):
        logits = rng.standard_normal((3, 10)) * 3.0
        labels = rng.integers(0, 10, size=3)
        # independent oracle: plain per-row softmax in float64
        per_row = [
            -np.log(np.exp(row[label]) / np.exp(row).sum())
            for row, label in zip(logits, labels)
        ]
        loss = ad.cross_entropy_mean(tracked(logits), labels)
        assert float(loss.data) == pytest.approx(np.mean(per_row), rel=1e-12)

    def test_loss_is_nonnegative(self, rng):
        for _ in range(20):
            logits = rng.standard_normal((5, 10)) * 10.0
            labels = rng.integers(0, 10, size=5)
            assert float(ad.cross_entropy_mean(tracked(logits), labels).data) >= 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_finite_differences(self, seed):
        gen = np.random.default_rng(seed)
        logits0 = gen.standard_normal((4, 6))
        labels = gen.integers(0, 6, size=4)
        lt = tracked(logits0)
        with Tape():
            grads = backward(ad.cross_entropy_mean(lt, labels))
        numeric = numeric_gradient(
            lambda l: float(ad.cross_entropy_mean(Tensor(l), labels).data), logits0
        )
        assert_gradients_close(grads[lt], numeric, rtol=1e-4)

    def test_backward_is_softmax_minus_onehot_over_batch(self, rng):
        logits = rng.standard_normal((3, 5))
        labels = np.array([0, 2, 4])
        lt = tracked(logits)
        with Tape():
            grads = backward(ad.cross_entropy_mean(lt, labels))
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        np.testing.assert_allclose(grads[lt], (p - onehot) / 3.0, rtol=1e-12)


def is_batch_innermost(a):
    return a.strides[0] == a.itemsize


class TestLayout:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_activation_and_activation_gradient_is_batch_innermost(self, monkeypatch, dtype):
        seen = []  # (what, array) for every 4-d array
        output, record = ad._output, Tape.record

        def recording_output(data, node):
            if data.ndim == 4:
                seen.append(("output", data))
            return output(data, node)

        def recording_record(tape, rules):
            def wrap(operand, vjp, first):
                def recorded(g):
                    contrib = vjp(g)
                    if first and g.ndim == 4:
                        seen.append(("output gradient", g))
                    if isinstance(operand, int) and contrib.ndim == 4:  # a node's, not a leaf's
                        seen.append(("input gradient", contrib))
                    return contrib

                return recorded

            return record(tape, tuple((t, wrap(t, fn, i == 0)) for i, (t, fn) in enumerate(rules)))

        monkeypatch.setattr(ad, "_output", recording_output)
        monkeypatch.setattr(Tape, "record", recording_record)
        model = build_model(["tl", "br"], seed=3, dtype=dtype)
        images = np.random.default_rng(3).uniform(size=(5, 1, 28, 28)).astype(dtype)
        with Tape():
            loss = ad.cross_entropy_mean(model.forward(images, "tl"), np.arange(5))
        backward(loss)
        # a pooled conv and a relu twice each: four outputs (no tensor holds
        # a conv output). Relu, pool and conv records twice each: the six
        # gradients handed to them, and the six input gradients they and the
        # flatten hand back (conv1's input, the images, is not tracked)
        assert [what for what, _ in seen].count("output") == 4
        assert [what for what, _ in seen].count("output gradient") == 6
        assert [what for what, _ in seen].count("input gradient") == 6
        wrong = [(what, a.shape, a.strides) for what, a in seen if not is_batch_innermost(a)]
        assert wrong == []


class TestTape:
    def test_leaving_nested_tapes_out_of_order_raises(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="reverse order"):
            outer.__exit__(None, None, None)
        assert ad.active_tape() is inner
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert ad.active_tape() is None


class TestBackward:
    def test_sum_gives_all_ones(self, rng):
        x = tracked(rng.standard_normal((3, 4)))
        with Tape():
            grads = backward(ad.tensor_sum(x))
        np.testing.assert_array_equal(grads[x], np.ones((3, 4)))

    def test_zero_scale_gives_zero_gradient(self, rng):
        x = tracked(rng.standard_normal(5))
        with Tape():
            grads = backward(ad.tensor_sum(ad.scale(x, 0.0)))
        np.testing.assert_array_equal(grads[x], np.zeros(5))

    def test_non_scalar_loss_rejected(self):
        x = tracked(np.ones(3))
        with Tape():
            y = ad.relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)

    def test_tensor_used_twice_accumulates_both_branches(self, rng):
        x = tracked(rng.standard_normal(4))
        with Tape():
            grads = backward(ad.tensor_sum(ad.add(ad.scale(x, 2.0), ad.scale(x, 3.0))))
        np.testing.assert_allclose(grads[x], np.full(4, 5.0), rtol=1e-15)

    def test_no_tape_means_no_graph(self):
        x = tracked(np.ones(3))
        y = ad.tensor_sum(x)
        assert y.tape is None
        with pytest.raises(ValueError, match="tape"):
            backward(y)

    def test_only_leaves_receive_grad(self):
        x = tracked(np.ones(3))
        with Tape():
            y = ad.scale(x, 2.0)
            loss = ad.tensor_sum(y)
        grads = backward(loss)
        assert list(grads) == [x]
        np.testing.assert_array_equal(grads[x], np.full(3, 2.0))
        assert x.grad is None and y.grad is None and loss.grad is None  # nothing is stored

    def test_second_backward_on_a_tape_raises(self):
        x = tracked(np.ones(3))
        with Tape():
            loss = ad.tensor_sum(ad.scale(x, 2.0))
        backward(loss)
        with pytest.raises(RuntimeError, match="^backward already ran on this tape$"):
            backward(loss)

    def test_graph_is_freed_without_the_cyclic_collector(self, rng):
        model = build_model(["tl"], seed=1)
        images = rng.uniform(size=(4, 1, 28, 28))
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                loss = ad.cross_entropy_mean(model.forward(images, "tl"), np.arange(4))
            grads = backward(loss)
            tape_ref = weakref.ref(tape)
            del tape, loss
            assert tape_ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert set(grads) == set(model.parameters())

    def test_forward_ops_stay_finite_on_finite_inputs(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 8, 8)) * 50)
        k = Tensor(rng.standard_normal((3, 1, 3, 3)))
        out = ad.relu(ad.maxpool2(ad.conv2d(x, k, Tensor(np.zeros(3)))))
        assert np.all(np.isfinite(out.data))
        big = Tensor(rng.standard_normal((4, 10)) * 500)
        assert np.isfinite(ad.cross_entropy_mean(big, np.zeros(4, dtype=np.int64)).data)


def outputs_and_vjps(op, arrays, g):
    """Bytes and strides of an op's output and of each operand's VJP applied to g, all operands tracked.

    A VJP into a node of the same tape (an op output, such as a pooled
    conv's conv output that no tensor holds) is followed into that node's
    VJPs.
    """
    leaves = [Tensor(a, tracked=True) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)

    def vjps(node, g):
        for operand, vjp in tape._records[node]:
            contrib = vjp(g)
            yield bits(contrib), contrib.strides
            if isinstance(operand, int):
                yield from vjps(operand, contrib)

    return [(bits(out.data), out.data.strides), *vjps(out.node, g)]


class TestWorkers:
    """Each encoder kernel split over worker threads computes every element as one thread does."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("batch", [1, 2, 8, 16, 64, 144, 256, 400, 512])
    def test_every_kernel_is_bit_equal_at_1_and_2_workers(self, monkeypatch, batch, layout, dtype):
        gen = np.random.default_rng(batch)

        def normal(*shape):
            return gen.standard_normal(shape).astype(dtype)

        def activation(c, hw):  # an input in the layout under test
            return LAYOUTS[layout](normal(batch, c, hw, hw))

        def upstream(c, hw):  # batch-innermost, as the model hands gradients back
            return LAYOUTS["batch-innermost"](normal(batch, c, hw, hw))

        # the model's shapes
        cases = [
            ("conv1", ad.conv2d, (activation(1, 28), normal(10, 1, 5, 5), normal(10)), upstream(10, 24)),
            ("conv2", ad.conv2d, (activation(10, 12), normal(20, 10, 5, 5), normal(20)), upstream(20, 8)),
            ("pooled conv1", pooled_conv2d, (activation(1, 28), normal(10, 1, 5, 5), normal(10)), upstream(10, 12)),
            ("pooled conv2", pooled_conv2d, (activation(10, 12), normal(20, 10, 5, 5), normal(20)), upstream(20, 4)),
            ("pool1", ad.maxpool2, (activation(10, 24),), upstream(10, 12)),
            ("pool2", ad.maxpool2, (activation(20, 8),), upstream(20, 4)),
            ("relu1", ad.relu, (activation(10, 12),), upstream(10, 12)),
            ("relu2", ad.relu, (activation(20, 4),), upstream(20, 4)),
        ]
        monkeypatch.setattr(ad, "_WORKERS", 1)
        one = {name: outputs_and_vjps(op, arrays, g) for name, op, arrays, g in cases}
        # every gated kernel splits, whatever its size
        monkeypatch.setattr(ad, "_WORKERS", 2)
        monkeypatch.setattr(ad, "_SPLIT_BYTES", 0)
        two = {name: outputs_and_vjps(op, arrays, g) for name, op, arrays, g in cases}
        assert [name for name in one if one[name] != two[name]] == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_peak_memory_at_2_workers(self, monkeypatch, traced_peak, dtype):
        monkeypatch.setattr(ad, "_WORKERS", 2)
        TestConv2dReference().test_peak_memory_stays_within_a_few_row_blocks(traced_peak, dtype)

    CONV2 = ((20, 10, 5, 5), (20,))  # conv2's kernels and bias

    # kernel: (op, an image's input shape, the other operands' shapes,
    # elements of gated work per image, the splits the gate decides). conv2's
    # output and output gradient hold 20 * 8 * 8 elements an image, its patches 250 * 8 * 8.
    GATED = {
        "relu": (
            ad.relu, (10, 12, 12), (), 10 * 12 * 12,
            {"relu.<locals>.forward", "relu.<locals>.d_x.<locals>.<lambda>"},
        ),
        "maxpool2": (
            ad.maxpool2, (20, 8, 8), (), 20 * 8 * 8,
            {"maxpool2.<locals>.<lambda>", "_unpool.<locals>.scatter"},
        ),
        "pooled conv scatter": (
            pooled_conv2d, (10, 12, 12), CONV2, 20 * 8 * 8,
            {"_unpool.<locals>.scatter"},
        ),
        "conv bias gradient": (
            ad.conv2d, (10, 12, 12), CONV2, 20 * 8 * 8,
            {"conv2d.<locals>.d_bias.<locals>.<lambda>"},
        ),
        "conv backward": (
            ad.conv2d, (10, 12, 12), CONV2, 250 * 8 * 8,
            {"conv2d.<locals>.d_kernels.<locals>.channel_gradient", "conv2d.<locals>.d_x.<locals>.scatter"},
        ),
    }

    @pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", list(GATED))
    def test_a_kernel_splits_only_from_2_mib_of_work(self, monkeypatch, kernel, dtype, above):
        # the largest batch below 2 MiB of gated work, or the smallest at it:
        # relu runs on (182|183, 10, 12, 12) in float64, (364|365, 10, 12, 12) in float32
        op, image, others, elements, gated = self.GATED[kernel]
        per_image = elements * np.dtype(dtype).itemsize
        batch = ((2 << 20) - 1) // per_image + above
        monkeypatch.setattr(ad, "_WORKERS", 2)
        gen = np.random.default_rng(batch)
        operands = [
            Tensor(gen.standard_normal(shape).astype(dtype), tracked=True) for shape in [(batch, *image), *others]
        ]
        parts = {}  # parts of each split, by the function it splits
        real_split = ad._split

        def counted(fn, p):
            parts.setdefault(fn.__qualname__, []).append(len(p))
            return real_split(fn, p)

        monkeypatch.setattr(ad, "_split", counted)
        with Tape():
            loss = ad.tensor_sum(op(*operands))
        backward(loss)
        assert {site: max(parts[site]) for site in gated} == {site: 2 if above else 1 for site in gated}

    @staticmethod
    def on_both_threads(worker_part):
        """A part function for two parts: the caller's waits until an executor thread has started the other."""
        caller, started = threading.get_ident(), threading.Event()

        def part(p):
            if threading.get_ident() == caller:
                assert started.wait(10)
                return "caller"
            started.set()
            return worker_part()

        return part

    def test_an_exception_in_a_worker_part_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)

        def fail():
            raise ValueError("worker part failed")

        with pytest.raises(ValueError, match="^worker part failed$"):
            ad._split(self.on_both_threads(fail), [0, 1])
        # the executor thread runs the next split
        assert sorted(ad._split(self.on_both_threads(lambda: "worker"), [0, 1])) == ["caller", "worker"]

    def test_an_exception_in_the_callers_part_waits_for_the_worker_parts(self, monkeypatch):
        # else a worker could still write into the caller's arrays after _split returns
        monkeypatch.setattr(ad, "_WORKERS", 2)
        caller, both_started, finished = threading.get_ident(), threading.Barrier(2, timeout=10), threading.Event()

        def part(p):
            both_started.wait()  # one part on each thread
            if threading.get_ident() == caller:
                raise ValueError("caller part failed")
            time.sleep(0.05)
            finished.set()

        with pytest.raises(ValueError, match="^caller part failed$"):
            ad._split(part, [0, 1])
        assert finished.is_set()

    def test_splits_reuse_the_executors_threads(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)

        def split():  # the threads that ran its two parts, "caller" for the calling thread
            return ad._split(self.on_both_threads(threading.current_thread), [0, 1])

        ran = set(split())
        threads = threading.active_count()
        for _ in range(100):
            ran.update(split())
        assert threading.active_count() == threads
        (worker,) = ran - {"caller"}
        assert worker.name.startswith("avil-kernel")

    def test_a_worker_part_runs_under_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(ad, "_WORKERS", 2)

        def invalid():
            return np.zeros(2) / np.zeros(2)

        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid"):
                ad._split(self.on_both_threads(invalid), [0, 1])
        with np.errstate(invalid="ignore"):
            results = ad._split(self.on_both_threads(invalid), [0, 1])
        (worker,) = [r for r in results if not isinstance(r, str)]
        assert np.isnan(worker).all()

    def test_every_part_runs_once_with_more_workers_than_cores(self, monkeypatch):
        # the threads share one iterator over the parts and one results list
        monkeypatch.setattr(ad, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                runs = []
                results = ad._split(lambda part: runs.append(part) or part * part, list(range(16)))
                assert sorted(runs) == list(range(16))
                assert results == [part * part for part in range(16)]
        finally:
            sys.setswitchinterval(interval)

    def test_the_worker_count_is_the_cores_this_process_may_use(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert ad._cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert ad._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert ad._cpu_count() == 1
