import inspect
import re
import struct
import threading

import numpy as np
import pytest

from avil import autodiff as ad
from avil.data import MultiMnistSet
from avil.model import (
    ENCODER_PARAMS,
    HEAD_PARAMS,
    ConfigError,
    MultiHeadModel,
    UnknownTaskError,
    build_model,
    combine,
    load_checkpoint,
    save_checkpoint,
)
from avil.weighting import evaluate
from conftest import toy_set
from reference import assert_close_to, pooled_conv_reference


def logits_of(model, images, task):
    return model.head_logits(model.features(images), task)


class TestBuildModel:
    def test_same_seed_gives_bit_identical_snapshots(self):
        a = build_model(["tl", "br"], seed=7)
        b = build_model(["tl", "br"], seed=7)
        np.testing.assert_array_equal(a.snapshot(), b.snapshot())

    def test_task_list_order_does_not_matter(self):
        a = build_model(["tl", "br"], seed=7)
        b = build_model(["br", "tl"], seed=7)
        np.testing.assert_array_equal(a.snapshot(), b.snapshot())

    def test_single_head_is_exactly_one_head_smaller(self):
        two = build_model(["tl", "br"], seed=0)
        one = build_model(["tl"], seed=0)
        assert two.param_count - one.param_count == HEAD_PARAMS == 510
        assert one.param_count == ENCODER_PARAMS + HEAD_PARAMS

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            build_model(["tl", "tl"], seed=0)

    def test_empty_task_list_rejected(self):
        with pytest.raises(ConfigError):
            build_model([], seed=0)

    def test_zero_image_forward_is_finite(self):
        model = build_model(["tl", "br"], seed=0)
        logits = logits_of(model, np.zeros((1, 1, 28, 28)), "tl")
        assert logits.shape == (1, 10)
        assert np.all(np.isfinite(logits.data))

    def test_parameter_count_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr("avil.model.ENCODER_PARAMS", ENCODER_PARAMS + 1)
        with pytest.raises(RuntimeError, match="parameters"):
            build_model(["tl"], seed=0)

    def test_different_seeds_differ(self):
        a = build_model(["tl"], seed=1)
        b = build_model(["tl"], seed=2)
        assert not np.array_equal(a.snapshot(), b.snapshot())


class TestForward:
    def test_logit_shape(self, rng):
        model = build_model(["tl", "br"], seed=3)
        out = logits_of(model, rng.uniform(size=(1, 1, 28, 28)), "br")
        assert out.shape == (1, 10)

    def test_unknown_task_rejected(self):
        model = build_model(["tl"], seed=3)
        with pytest.raises(UnknownTaskError):
            logits_of(model, np.zeros((1, 1, 28, 28)), "nope")

    def test_identical_head_weights_give_identical_logits(self, rng):
        model = build_model(["tl", "br"], seed=3)
        head_tl, head_br = model.head("tl"), model.head("br")
        for name in ("w", "b"):
            head_br[name].data[...] = head_tl[name].data
        x = rng.uniform(size=(2, 1, 28, 28))
        np.testing.assert_array_equal(logits_of(model, x, "tl").data, logits_of(model, x, "br").data)

    def test_other_heads_gradient_is_exactly_zero(self, rng):
        model = build_model(["tl", "br"], seed=3)
        x = rng.uniform(size=(4, 1, 28, 28))
        labels = np.array([1, 2, 3, 4])
        with ad.Tape():
            grads = ad.backward(ad.cross_entropy_mean(logits_of(model, x, "tl"), labels))
        for name in ("w", "b"):
            assert model.head("br")[name] not in grads
        assert model.head("tl")["w"] in grads
        # canonical layout has heads sorted by id: "br" before "tl"
        _, _, grad = model.loss_grad(x, {"tl": labels}, {"tl": 1.0})
        br_block = grad[ENCODER_PARAMS : ENCODER_PARAMS + HEAD_PARAMS]
        tl_block = grad[ENCODER_PARAMS + HEAD_PARAMS :]
        assert np.all(br_block == 0.0)
        assert np.any(tl_block != 0.0)
        assert np.any(grad[:ENCODER_PARAMS] != 0.0)

    def test_features_and_gradient_match_the_numpy_references(self, rng):
        # each conv is naive_conv pooled by maxpool_reference; relu, the
        # flatten, the linear layers and the cross-entropy are written out
        model = build_model(["tl", "br"], seed=3)
        images = rng.uniform(size=(3, 1, 28, 28))
        labels = rng.integers(0, 10, size=3)
        w1, b1, w2, b2, fw, fb, _, _, hw, hb = (p.data for p in model.parameters())  # heads "br", then "tl"
        c1, conv1_vjp = pooled_conv_reference(images, w1, b1)
        c2, conv2_vjp = pooled_conv_reference(np.maximum(c1, 0), w2, b2)
        flat = np.maximum(c2, 0).reshape(3, 320)
        fc = flat @ fw + fb
        feats = np.maximum(fc, 0)
        logits = feats @ hw + hb
        softmax = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        d_logits = (softmax - np.eye(10)[labels]) / 3
        d_fc = d_logits @ hw.T * (fc > 0)
        d_h1, dw2, db2 = conv2_vjp((d_fc @ fw.T).reshape(c2.shape) * (c2 > 0))
        _, dw1, db1 = conv1_vjp(d_h1 * (c1 > 0))
        reference = [dw1, db1, dw2, db2, flat.T @ d_fc, d_fc.sum(axis=0), feats.T @ d_logits, d_logits.sum(axis=0)]

        assert_close_to(model.features(images).data, feats)
        loss, _, grad = model.loss_grad(images, {"tl": labels}, {"tl": 1.0})
        assert loss == pytest.approx(-np.log(softmax[np.arange(3), labels]).mean(), rel=1e-12)
        sizes = [p.data.size for p in model.parameters()]
        per_param = np.split(grad, np.cumsum(sizes)[:-1])
        assert not per_param[6].any() and not per_param[7].any()  # the "br" head
        for actual, expected in zip(per_param[:6] + per_param[8:], reference):
            assert_close_to(actual, expected.reshape(-1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_of_a_tape_free_float64_batch_512_pass(self, monkeypatch, traced_peak, workers):
        # 42.7 MiB while conv1's whole output (22.5 MiB) was made only to be
        # pooled; 21.8 MiB with pooling inside the conv: the float64 images,
        # conv1's pooled output and the parts in flight, at most
        # _BLOCK_BYTES of patches and conv buffers
        monkeypatch.setattr(ad, "_WORKERS", workers)
        model = build_model(["tl", "br"], seed=1, dtype=np.float64)
        images = np.random.default_rng(5).uniform(size=(512, 1, 28, 28)).astype(np.float32)
        _, peak = traced_peak(lambda: model.features(images))
        conv1_output = 512 * 10 * 24 * 24 * 8
        assert peak < conv1_output


class TestLossGrad:
    @pytest.fixture
    def batch(self, rng):
        images = rng.uniform(size=(6, 1, 28, 28))
        return images, {"tl": rng.integers(0, 10, size=6), "br": rng.integers(0, 10, size=6)}

    def test_raw_losses_are_each_heads_plain_cross_entropy(self, batch):
        model = build_model(["tl", "br"], seed=4)
        images, labels = batch
        loss, raw, _ = model.loss_grad(images, labels, {"tl": 0.25, "br": 2.0})
        for task in ("tl", "br"):
            assert raw[task] == float(ad.cross_entropy_mean(logits_of(model, images, task), labels[task]).data)
        assert list(raw) == ["tl", "br"]  # the order of the weights
        assert loss == pytest.approx(0.25 * raw["tl"] + 2.0 * raw["br"], rel=1e-14)

    def test_gradient_is_the_weighted_sum_of_the_heads_gradients(self, batch):
        model = build_model(["tl", "br"], seed=4)
        images, labels = batch
        _, _, joint = model.loss_grad(images, labels, {"tl": 0.25, "br": 2.0})
        _, _, tl = model.loss_grad(images, labels, {"tl": 1.0})
        _, _, br = model.loss_grad(images, labels, {"br": 1.0})
        assert joint.shape == (model.param_count,) and joint.dtype == model.dtype
        np.testing.assert_allclose(joint, 0.25 * tl + 2.0 * br, rtol=1e-10, atol=1e-15)

    def test_peak_memory_of_a_batch_400_float32_pass(self, traced_peak):
        # 41.8 MiB while pool1's record kept conv1's output and its row
        # maxima; 18.8 MiB with two masks in their place and each record
        # freed once run: the largest gradient and one conv patch block
        gen = np.random.default_rng(5)
        model = build_model(["tl", "br"], seed=1, dtype=np.float32)
        images = gen.uniform(size=(400, 1, 28, 28)).astype(np.float32)
        labels = {"tl": gen.integers(0, 10, size=400)}
        _, peak = traced_peak(lambda: model.loss_grad(images, labels, {"tl": 1.0}))
        assert peak < 25 * 2**20

    def test_peak_memory_of_a_batch_256_float64_pass(self, traced_peak):
        # 28.3 MiB with a block budget of 2**21 elements (16 MiB in float64);
        # 20.1 MiB with one of 8 MiB in either dtype: conv1's output gradient,
        # made while conv1's kernel gradient rebuilds one block of patches
        gen = np.random.default_rng(5)
        model = build_model(["tl", "br"], seed=1, dtype=np.float64)
        images = gen.uniform(size=(256, 1, 28, 28)).astype(np.float32)
        labels = {"tl": gen.integers(0, 10, size=256)}
        _, peak = traced_peak(lambda: model.loss_grad(images, labels, {"tl": 1.0}))
        conv1_output_gradient = 256 * 10 * 24 * 24 * 8
        assert peak < conv1_output_gradient + 1.5 * ad._BLOCK_BYTES

    def test_nothing_is_stored_on_the_parameters(self, batch):
        model = build_model(["tl", "br"], seed=4)
        before = model.snapshot()
        model.loss_grad(*batch, {"tl": 1.0, "br": 1.0})
        assert all(p.grad is None for p in model.parameters())
        np.testing.assert_array_equal(model.snapshot(), before)


class TestSnapshotRestore:
    def test_snapshot_is_a_copy_of_the_parameters_in_canonical_order(self):
        model = build_model(["tl", "br"], seed=9)
        snap = model.snapshot()
        np.testing.assert_array_equal(snap, np.concatenate([p.data.ravel() for p in model.parameters()]))
        snap[:] = 0.0
        assert np.any(model.snapshot() != 0.0)

    def test_round_trip_is_bit_identical(self, rng):
        model = build_model(["tl", "br"], seed=9)
        snap = model.snapshot()
        model.restore(snap)
        np.testing.assert_array_equal(model.snapshot(), snap)

    def test_restore_zeros_makes_zero_logits(self, rng):
        model = build_model(["tl"], seed=9)
        model.restore(np.zeros(model.param_count))
        out = logits_of(model, rng.uniform(size=(2, 1, 28, 28)), "tl")
        np.testing.assert_array_equal(out.data, np.zeros((2, 10)))

    def test_restore_resets_a_trained_model_exactly(self, rng):
        from avil.optim import SgdState, sgd_step

        model = build_model(["tl"], seed=9)
        p1 = model.snapshot()
        x = rng.uniform(size=(8, 1, 28, 28))
        y = rng.integers(0, 10, size=8)
        _, _, grad = model.loss_grad(x, {"tl": y}, {"tl": 1.0})
        state = SgdState(0.05, 0.9, model.param_count)
        model.restore(sgd_step(state, p1, grad))
        assert not np.array_equal(model.snapshot(), p1)
        model.restore(p1)
        np.testing.assert_array_equal(model.snapshot(), p1)

    def test_length_mismatch_rejected(self):
        model = build_model(["tl"], seed=0)
        with pytest.raises(ConfigError, match="does not match"):
            model.restore(np.zeros(model.param_count - 1))


class TestEvalFeatures:
    """Tape-free encoding of a whole set, chunk by chunk, at every call.

    A caller that scores several heads at one set of parameters encodes once
    and hands the chunks to ``evaluate``.
    """

    @pytest.fixture
    def net(self):
        return build_model(["tl", "br"], seed=5)

    @pytest.fixture
    def ds(self):
        return toy_set(20, seed=6)

    def test_unchanged_parameters_reuse_every_chunk(self, net, ds, encoder_passes):
        first = net.eval_features(ds, 8)
        assert encoder_passes == [8, 8, 4]
        shared = [evaluate(net, ds, task, batch_size=8, features=first) for task in ("tl", "br")]
        assert encoder_passes == [8, 8, 4]
        assert shared == [evaluate(net, ds, task, batch_size=8) for task in ("tl", "br")]

    def test_a_one_ulp_encoder_change_re_encodes(self, net, ds, encoder_passes):
        net.eval_features(ds, 20)
        theta = net.snapshot()
        theta[ENCODER_PARAMS - 1] = np.nextafter(theta[ENCODER_PARAMS - 1], np.inf)  # last fc bias
        net.restore(theta)
        (feats,) = net.eval_features(ds, 20)
        assert encoder_passes == [20, 20]
        fresh = build_model(["tl", "br"], seed=0)
        fresh.restore(theta)
        assert feats.data.tobytes() == fresh.features(ds.pixels).data.tobytes()

    def test_a_head_change_reuses_the_features_and_gives_the_new_result(self, net, ds, encoder_passes):
        feats = net.eval_features(ds, 8)
        before = evaluate(net, ds, "tl", batch_size=8, features=feats)
        theta = net.snapshot()
        theta[ENCODER_PARAMS:ENCODER_PARAMS + HEAD_PARAMS] *= -3.0  # the "br" head comes first
        net.restore(theta)
        shared = evaluate(net, ds, "br", batch_size=8, features=feats)
        assert encoder_passes == [8, 8, 4]
        fresh = build_model(["tl", "br"], seed=0)
        fresh.restore(theta)
        assert shared == evaluate(fresh, ds, "br", batch_size=8)
        assert evaluate(net, ds, "tl", batch_size=8, features=feats) == before

    @pytest.mark.parametrize("change", ["images", "batch size"])
    def test_other_images_or_batch_size_re_encode(self, net, ds, encoder_passes, change):
        net.eval_features(ds, 20)
        if change == "images":
            net.eval_features(MultiMnistSet.whole(ds.pixels.copy(), ds.labels, ds.split), 20)  # equal values, another set
            assert encoder_passes == [20, 20]
        else:
            feats = net.eval_features(ds, 16)
            assert encoder_passes == [20, 16, 4]
            assert [f.shape for f in feats] == [(16, 50), (4, 50)]

    def test_two_sets_over_one_array_read_their_own_rows(self, net, encoder_passes):
        pool = toy_set(40, seed=6)
        first, second = pool.take(np.arange(20)), pool.take(np.arange(20, 40))
        net.eval_features(first, 20)
        (feats,) = net.eval_features(second, 20)
        assert encoder_passes == [20, 20]
        assert feats.data.tobytes() == net.features(pool.pixels[20:]).data.tobytes()

    def test_a_tape_gets_fresh_tracked_features(self, net, ds, encoder_passes):
        (untracked,) = net.eval_features(ds, 20)
        with ad.Tape():
            (taped,) = net.eval_features(ds, 20)
        assert untracked.tape is None and taped.tape is not None
        assert taped.data.tobytes() == untracked.data.tobytes()
        assert encoder_passes == [20]  # the fixture counts tape-free passes only


class TestWorkerThreads:
    def test_ops_and_model_methods_run_on_the_calling_thread_only(self, monkeypatch):
        # a tracer that keeps one span stack for the process, as the
        # benchmark's does, nests correctly only if they do
        monkeypatch.setattr(ad, "_WORKERS", 2)
        monkeypatch.setattr(ad, "_SPLIT_BYTES", 0)  # every gated kernel splits
        calls = []  # (name, thread) of every call

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapper

        modules = (ad.__name__, MultiHeadModel.__module__)  # not what they import
        for owner, prefix in ((ad, "ad"), (MultiHeadModel, "model")):
            for name, fn in list(vars(owner).items()):
                if inspect.isfunction(fn) and fn.__module__ in modules and not name.startswith("_"):
                    monkeypatch.setattr(owner, name, recorded(f"{prefix}.{name}", fn))
        splits = []  # parts per kernel split
        split = ad._split
        monkeypatch.setattr(ad, "_split", lambda fn, parts: splits.append(len(parts)) or split(fn, parts))

        net = build_model(["tl", "br"], seed=1)
        ds = toy_set(64, seed=2)
        net.loss_grad(ds.gather(slice(None)), ds.labels, {"tl": 1.0, "br": 0.5})
        net.eval_features(ds, 32)
        called = {name for name, _ in calls}
        # the encoder pools inside its convs, never with maxpool2
        assert {"ad.conv2d", "ad.relu", "ad.linear", "ad.cross_entropy_mean", "ad.backward"} <= called
        assert "ad.maxpool2" not in called
        assert {"model.loss_grad", "model.eval_features", "model.features", "model.head_logits"} <= called
        assert {thread for _, thread in calls} == {threading.get_ident()}
        assert max(splits) >= 2  # and the kernels did split


class TestCombine:
    def test_unit_alphas_add_all_deltas(self, rng):
        base = rng.standard_normal(20)
        deltas = [rng.standard_normal(20) for _ in range(3)]
        expected = base.copy()
        for delta in deltas:  # same accumulation order: equality is exact
            expected += delta
        np.testing.assert_array_equal(combine(base, deltas, [1.0, 1.0, 1.0]), expected)

    def test_zero_alphas_return_base(self, rng):
        base = rng.standard_normal(20)
        out = combine(base, [rng.standard_normal(20)], [0.0])
        np.testing.assert_array_equal(out, base)

    def test_small_example(self):
        out = combine(np.zeros(2), [np.array([1.0, 0.0]), np.array([0.0, 2.0])], [2.0, 0.5])
        np.testing.assert_array_equal(out, [2.0, 1.0])

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ConfigError):
            combine(np.zeros(3), [np.zeros(4)], [1.0])
        with pytest.raises(ConfigError):
            combine(np.zeros(3), [np.zeros(3)], [1.0, 2.0])

    def test_linear_in_alphas(self, rng):
        base = rng.standard_normal(50)
        deltas = [rng.standard_normal(50) for _ in range(2)]
        alpha = np.array([0.3, -1.2])
        beta = np.array([0.7, 0.4])
        lhs = combine(base, deltas, alpha + beta)
        rhs = combine(base, deltas, alpha) + combine(np.zeros(50), deltas, beta)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = build_model(["tl", "br"], seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.snapshot(), model.task_ids)
        values, task_ids = load_checkpoint(path)
        assert task_ids == ["br", "tl"]
        np.testing.assert_array_equal(values, model.snapshot())
        assert path.read_bytes()[:4] == b"AVIL"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(path)

    # magic 0-4, version 4-8, count 8-16, task count 16-20, then per task
    # its length 20-24 and its bytes 24-26, then the values
    @pytest.mark.parametrize("cut, field_start", [(2, 0), (6, 4), (12, 8), (18, 16), (22, 20), (25, 24)])
    def test_file_cut_in_its_header_reports_offset(self, tmp_path, cut, field_start):
        model = build_model(["tl"], seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.snapshot(), model.task_ids)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ConfigError, match=rf"truncated at offset {cut} \(\d+ bytes wanted from offset {field_start},"):
            load_checkpoint(path)

    def test_a_value_count_beyond_the_file_is_checked_before_reading(self, tmp_path):
        model = build_model(["tl"], seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.snapshot(), model.task_ids)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<Q", 2**62) + raw[16:])  # values start at offset 26
        expected = f"{path}: truncated at offset {len(raw)} ({2**62 * 8} bytes wanted from offset 26, {len(raw) - 26} left)"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        model = build_model(["tl"], seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.snapshot(), model.task_ids)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)
