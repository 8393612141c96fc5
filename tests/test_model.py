import numpy as np
import pytest

from avil import autodiff as ad
from avil.model import (
    ENCODER_PARAMS,
    HEAD_PARAMS,
    ConfigError,
    UnknownTaskError,
    build_model,
    combine,
    load_checkpoint,
    save_checkpoint,
)


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
        logits = model.forward(np.zeros((1, 1, 28, 28)), "tl")
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
        out = model.forward(rng.uniform(size=(1, 1, 28, 28)), "br")
        assert out.shape == (1, 10)

    def test_unknown_task_rejected(self):
        model = build_model(["tl"], seed=3)
        with pytest.raises(UnknownTaskError):
            model.forward(np.zeros((1, 1, 28, 28)), "nope")

    def test_identical_head_weights_give_identical_logits(self, rng):
        model = build_model(["tl", "br"], seed=3)
        head_tl, head_br = model.head("tl"), model.head("br")
        for name in ("w", "b"):
            head_br[name].data[...] = head_tl[name].data
        x = rng.uniform(size=(2, 1, 28, 28))
        np.testing.assert_array_equal(model.forward(x, "tl").data, model.forward(x, "br").data)

    def test_other_heads_gradient_is_exactly_zero(self, rng):
        model = build_model(["tl", "br"], seed=3)
        x = rng.uniform(size=(4, 1, 28, 28))
        with ad.Tape():
            loss = ad.cross_entropy_mean(model.forward(x, "tl"), np.array([1, 2, 3, 4]))
            ad.backward(loss)
        for name in ("w", "b"):
            assert model.head("br")[name].grad is None
        assert model.head("tl")["w"].grad is not None
        # canonical layout has heads sorted by id: "br" before "tl"
        grad = model.gradient_vector()
        br_block = grad[ENCODER_PARAMS : ENCODER_PARAMS + HEAD_PARAMS]
        tl_block = grad[ENCODER_PARAMS + HEAD_PARAMS :]
        assert np.all(br_block == 0.0)
        assert np.any(tl_block != 0.0)
        assert np.any(grad[:ENCODER_PARAMS] != 0.0)


class TestSnapshotRestore:
    def test_round_trip_is_bit_identical(self, rng):
        model = build_model(["tl", "br"], seed=9)
        snap = model.snapshot()
        model.restore(snap)
        np.testing.assert_array_equal(model.snapshot(), snap)

    def test_restore_zeros_makes_zero_logits(self, rng):
        model = build_model(["tl"], seed=9)
        model.restore(np.zeros(model.param_count))
        out = model.forward(rng.uniform(size=(2, 1, 28, 28)), "tl")
        np.testing.assert_array_equal(out.data, np.zeros((2, 10)))

    def test_restore_resets_a_trained_model_exactly(self, rng):
        from avil.optim import SgdState, sgd_step

        model = build_model(["tl"], seed=9)
        p1 = model.snapshot()
        x = rng.uniform(size=(8, 1, 28, 28))
        y = rng.integers(0, 10, size=8)
        with ad.Tape():
            loss = ad.cross_entropy_mean(model.forward(x, "tl"), y)
            ad.backward(loss)
        state = SgdState(0.05, 0.9, model.param_count)
        model.restore(sgd_step(state, p1, model.gradient_vector()))
        assert not np.array_equal(model.snapshot(), p1)
        model.restore(p1)
        np.testing.assert_array_equal(model.snapshot(), p1)

    def test_length_mismatch_rejected(self):
        model = build_model(["tl"], seed=0)
        with pytest.raises(ConfigError, match="does not match"):
            model.restore(np.zeros(model.param_count - 1))


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
        with pytest.raises(ConfigError, match=f"truncated checkpoint at offset {field_start} "):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        model = build_model(["tl"], seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.snapshot(), model.task_ids)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)
