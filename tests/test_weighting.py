from dataclasses import replace

import numpy as np
import pytest

from gradcheck import assert_gradients_close
from avil import autodiff as ad
from avil.data import chunk_indices
from avil.harness import ExperimentConfig
from avil.model import build_model, combine
from avil.optim import SgdState, sgd_step
from avil.weighting import (
    ConfigError,
    NanLossError,
    alpha_gradient,
    avil_train,
    collect_delta,
    dev_loss_grad,
    diw_train,
    evaluate,
    multitask_train,
    tune_alphas,
)
from conftest import toy_set

CFG64 = ExperimentConfig(epochs=1, batch_size=16, eval_batch_size=64, dtype="float64")


def plain_loss_grad(model, images, labels, task):
    """One head's cross-entropy and flat gradient, written out by hand: an
    explicit tape, the model's features and head, ``backward``, and no ``scale`` node."""
    with ad.Tape():
        ce = ad.cross_entropy_mean(model.head_logits(model.features(images), task), labels)
    grads = ad.backward(ce)
    parts = [grads.get(p, np.zeros(p.shape, model.dtype)).reshape(-1) for p in model.parameters()]
    return float(ce.data), np.concatenate(parts)


def quadratic_loss_grad(center):
    """L(theta) = 0.5 * ||theta - center||^2, with its exact gradient."""

    def loss_grad(theta):
        diff = theta - center
        return 0.5 * float(diff @ diff), diff

    return loss_grad


class TestCollectDelta:
    def test_floor_clamped_weight_gives_vanishing_delta(self, rng):
        ds = toy_set(32, seed=1)
        model = build_model(["tl", "br"], seed=2, dtype=np.float64)
        base = model.snapshot()
        order = np.arange(32)
        full, _ = collect_delta(model, base, "tl", 1.0, order, ds, CFG64)
        tiny_w = 1e-6 / (1.0 + 1e-6)
        tiny, _ = collect_delta(model, base, "tl", tiny_w, order, ds, CFG64)
        assert np.linalg.norm(tiny) < 1e-4 * np.linalg.norm(full)

    def test_model_is_restored_to_base(self, rng):
        ds = toy_set(16, seed=1)
        model = build_model(["tl"], seed=3, dtype=np.float64)
        base = model.snapshot()
        collect_delta(model, base, "tl", 1.0, np.arange(16), ds, CFG64)
        np.testing.assert_array_equal(model.snapshot(), base)

    def test_empty_epoch_data_rejected(self):
        ds = toy_set(16, seed=1)
        model = build_model(["tl"], seed=3, dtype=np.float64)
        with pytest.raises(ConfigError, match="empty"):
            collect_delta(model, model.snapshot(), "tl", 1.0, np.array([], dtype=int), ds, CFG64)

    def test_half_weight_halves_single_batch_delta_bitwise(self):
        # momentum 0, one batch: the power-of-two loss scale commutes
        # exactly through the backward pass and the update
        ds = toy_set(16, seed=4)
        cfg = ExperimentConfig(epochs=1, batch_size=16, momentum=0.0, eval_batch_size=64, dtype="float64")
        model = build_model(["tl", "br"], seed=5, dtype=np.float64)
        base = model.snapshot()
        order = np.arange(16)
        full, _ = collect_delta(model, base, "tl", 1.0, order, ds, cfg)
        half, _ = collect_delta(model, base, "tl", 0.5, order, ds, cfg)
        np.testing.assert_array_equal(half, 0.5 * full)

    def test_unit_weight_matches_plain_epoch(self):
        # scaling by exactly 1.0 is the identity: the delta equals plain SGD
        # on the hand-written gradient, in either precision
        for dtype in (np.float32, np.float64):
            cfg = replace(CFG64, dtype=np.dtype(dtype).name)
            ds = toy_set(24, seed=6)  # batches of 16 and 8
            model = build_model(["tl", "br"], seed=7, dtype=dtype)
            base = model.snapshot()
            order = np.arange(24)
            delta, _ = collect_delta(model, base, "tl", 1.0, order, ds, cfg)
            state = SgdState(cfg.learning_rate, cfg.momentum, base.size, dtype=base.dtype)
            plain = np.zeros_like(base)
            for idx in chunk_indices(order, cfg.batch_size):
                model.restore(base + plain)
                _, grad = plain_loss_grad(model, ds.gather(idx), ds.labels["tl"][idx], "tl")
                plain = sgd_step(state, plain, grad)
            assert delta.dtype == plain.dtype == dtype
            np.testing.assert_array_equal(delta, plain)


class TestAlphaGradient:
    def test_zero_deltas_give_zero_gradient(self, rng):
        base = rng.standard_normal(30)
        lg = quadratic_loss_grad(rng.standard_normal(30))
        grads = alpha_gradient(lg, base, [np.zeros(30), np.zeros(30)], [1.0, 1.0])
        np.testing.assert_array_equal(grads, np.zeros(2))

    def test_quadratic_closed_form(self, rng):
        base = rng.standard_normal(40)
        center = rng.standard_normal(40)
        deltas = [rng.standard_normal(40) for _ in range(3)]
        alphas = rng.standard_normal(3)
        grads = alpha_gradient(quadratic_loss_grad(center), base, deltas, alphas)
        mixed = combine(base, deltas, alphas)
        expected = np.array([d @ (mixed - center) for d in deltas])
        np.testing.assert_allclose(grads, expected, atol=1e-10)

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ConfigError):
            alpha_gradient(quadratic_loss_grad(np.zeros(3)), np.zeros(3), [np.zeros(3)], [1.0, 2.0])

    @pytest.mark.parametrize("bad", ["loss", "grad"])
    def test_non_finite_dev_loss_or_gradient_raises(self, rng, bad):
        center = rng.standard_normal(5)

        def loss_grad(theta):
            loss, grad = quadratic_loss_grad(center)(theta)
            if bad == "loss":
                return float("nan"), grad
            grad = grad.copy()
            grad[2] = np.inf
            return loss, grad

        with pytest.raises(NanLossError, match="non-finite"):
            alpha_gradient(loss_grad, np.zeros(5), [np.ones(5)], [1.0])

    def test_matches_finite_differences_on_real_model(self, rng):
        # real collected deltas: random directions are near-orthogonal to the
        # gradient and make a relative comparison meaningless
        train = toy_set(64, seed=7)
        dev = toy_set(48, seed=8, split="dev")
        model = build_model(["tl", "br"], seed=9, dtype=np.float64)
        base = model.snapshot()
        deltas = [
            collect_delta(model, base, task, 0.5, np.arange(64), train, CFG64)[0]
            for task in ("br", "tl")
        ]
        alphas = np.array([1.1, 0.7])
        lg = dev_loss_grad(model, dev, "tl", batch_size=32)
        analytic = alpha_gradient(lg, base, deltas, alphas)
        step = 1e-3
        numeric = np.zeros(2)
        for i in range(2):
            up = alphas.copy()
            up[i] += step
            down = alphas.copy()
            down[i] -= step
            loss_up, _ = lg(combine(base, deltas, up))
            loss_down, _ = lg(combine(base, deltas, down))
            numeric[i] = (loss_up - loss_down) / (2 * step)
        assert_gradients_close(analytic, numeric, rtol=1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dev_loss_grad_is_bit_equal_to_a_hand_written_loop(self, dtype):
        dev = toy_set(40, seed=8, split="dev")  # chunks of 16, 16 and 8
        model = build_model(["tl", "br"], seed=9, dtype=dtype)
        theta = model.snapshot()
        loss, grad = dev_loss_grad(model, dev, "tl", batch_size=16)(theta)
        model.restore(theta)
        ref_loss, ref_grad = 0.0, np.zeros_like(theta)
        for idx in chunk_indices(np.arange(40), 16):
            chunk_loss, chunk_grad = plain_loss_grad(model, dev.gather(idx), dev.labels["tl"][idx], "tl")
            frac = len(idx) / 40
            ref_loss += chunk_loss * frac
            ref_grad += chunk_grad * frac
        assert loss == ref_loss
        assert grad.dtype == ref_grad.dtype == dtype
        np.testing.assert_array_equal(grad, ref_grad)

    def test_empty_dev_set_rejected(self):
        model = build_model(["tl"], seed=0, dtype=np.float64)
        empty = toy_set(1, seed=0).take(np.array([], dtype=int))
        with pytest.raises(ConfigError, match="empty"):
            dev_loss_grad(model, empty, "tl", batch_size=512)


class TestTuneAlphas:
    def test_zero_deltas_keep_alphas_at_one(self, rng):
        lg = quadratic_loss_grad(rng.standard_normal(10))
        alphas = tune_alphas(lg, rng.standard_normal(10), [np.zeros(10)], steps=10, learning_rate=0.005, momentum=0.5)
        np.testing.assert_array_equal(alphas, np.ones(1))

    def test_alphas_start_at_one(self, rng):
        thetas = []
        quadratic = quadratic_loss_grad(rng.standard_normal(10))

        def lg(theta):
            thetas.append(theta.copy())
            return quadratic(theta)

        base = rng.standard_normal(10)
        deltas = [rng.standard_normal(10)]
        tune_alphas(lg, base, deltas, steps=3, learning_rate=0.005, momentum=0.5)
        assert len(thetas) == 3
        np.testing.assert_array_equal(thetas[0], combine(base, deltas, np.ones(1)))

    def test_one_dimensional_quadratic_reaches_analytic_minimizer(self, rng):
        base = rng.standard_normal(25)
        center = rng.standard_normal(25)
        delta = rng.standard_normal(25)
        delta /= np.linalg.norm(delta)
        optimum = delta @ (center - base)  # / ||delta||^2 == 1
        alphas = tune_alphas(
            quadratic_loss_grad(center), base, [delta],
            steps=400, learning_rate=0.3, momentum=0.5,
        )
        assert abs(alphas[0] - optimum) < 1e-3

    def test_two_orthogonal_deltas_reach_independent_optima(self, rng):
        base = rng.standard_normal(30)
        center = rng.standard_normal(30)
        d1 = rng.standard_normal(30)
        d1 /= np.linalg.norm(d1)
        d2 = rng.standard_normal(30)
        d2 -= (d2 @ d1) * d1
        d2 /= np.linalg.norm(d2)
        alphas = tune_alphas(
            quadratic_loss_grad(center), base, [d1, d2],
            steps=400, learning_rate=0.3, momentum=0.5,
        )
        expected = np.array([d1 @ (center - base), d2 @ (center - base)])
        np.testing.assert_allclose(alphas, expected, atol=1e-3)

    def test_general_case_solves_the_gram_system(self, rng):
        # independent oracle: minimizing the quadratic over alphas solves
        # G a = b with G_ij = <d_i, d_j>, b_i = <d_i, center - base>
        base = rng.standard_normal(40)
        center = rng.standard_normal(40)
        deltas = []
        for _ in range(3):
            d = rng.standard_normal(40)
            deltas.append(d / np.linalg.norm(d))
        gram = np.array([[di @ dj for dj in deltas] for di in deltas])
        assert np.linalg.cond(gram) < 10  # random unit vectors: well-conditioned
        rhs = np.array([d @ (center - base) for d in deltas])
        expected = np.linalg.solve(gram, rhs)
        alphas = tune_alphas(
            quadratic_loss_grad(center), base, deltas,
            steps=600, learning_rate=0.25, momentum=0.5,
        )
        np.testing.assert_allclose(alphas, expected, atol=1e-3)


def image_chunks(model, dataset, batch_size):
    """A fake model's ``eval_features``: the image chunks themselves."""
    return [dataset.gather(slice(lo, lo + batch_size)) for lo in range(0, len(dataset), batch_size)]


class TestEvaluate:
    def test_perfect_and_constant_predictors(self):
        ds = toy_set(40, seed=10, tasks=("tl",))
        model = build_model(["tl"], seed=11, dtype=np.float64)

        class Oracle:
            eval_features = image_chunks

            def head_logits(self, images, task):
                from avil.autodiff import Tensor

                logits = np.zeros((len(images), 10))
                logits[np.arange(len(images)), ds.labels["tl"][: len(images)]] = 5.0
                return Tensor(logits)

        # the oracle predicts ds's labels for the first len(batch) rows,
        # which is exact when evaluated in one chunk
        acc, loss = evaluate(Oracle(), ds, "tl", batch_size=40)
        assert acc == 1.0
        assert loss < 0.1

    def test_accuracy_counts_exact_fraction(self, rng):
        ds = toy_set(10, seed=12, tasks=("tl",))
        # constant logits favoring class 0: accuracy is the fraction of 0 labels
        from avil.autodiff import Tensor

        class Constant:
            eval_features = image_chunks

            def head_logits(self, images, task):
                logits = np.zeros((len(images), 10))
                logits[:, 0] = 1.0
                return Tensor(logits)

        acc, _ = evaluate(Constant(), ds, "tl", batch_size=4)
        assert acc == float((ds.labels["tl"] == 0).mean())


class TestTrainerInputChecks:
    @pytest.mark.parametrize("train", [avil_train, diw_train])
    def test_a_target_outside_the_tasks_is_rejected(self, train):
        ds = toy_set(16, seed=1, tasks=("br",))
        with pytest.raises(ConfigError) as err:
            train(ds, ds, replace(CFG64, target="tl"), 1)
        assert str(err.value) == "target 'tl' not in tasks ['br']"

    def test_multitask_needs_two_tasks(self):
        ds = toy_set(16, seed=1, tasks=("tl",))
        with pytest.raises(ConfigError, match="multitask training requires at least two tasks"):
            multitask_train(ds, ds, CFG64, 1)
