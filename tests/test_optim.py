import numpy as np
import pytest

from avil.optim import SgdState, clamp_weights, sgd_step


class TestSgdStep:
    def test_plain_gradient_descent_without_momentum(self):
        state = SgdState(0.1, 0.0, 2)
        out = sgd_step(state, np.zeros(2), np.array([1.0, -2.0]))
        np.testing.assert_allclose(out, [-0.1, 0.2], rtol=1e-15)

    def test_zero_gradients_change_nothing(self):
        state = SgdState(0.1, 0.9, 3)
        params = np.array([1.0, 2.0, 3.0])
        for _ in range(2):
            params = sgd_step(state, params, np.zeros(3))
        np.testing.assert_array_equal(params, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(state.velocity, np.zeros(3))

    def test_two_steps_match_hand_unrolled_recurrence(self):
        # v1 = g, p1 = -lr*g ; v2 = 0.9g + g, p2 = -lr*(g + (0.9g + g))
        lr, g = 0.05, np.array([2.0, -1.0])
        state = SgdState(lr, 0.9, 2)
        p = sgd_step(state, np.zeros(2), g)
        p = sgd_step(state, p, g)
        np.testing.assert_allclose(p, -lr * (g + (0.9 * g + g)), rtol=1e-15)

    def test_momentum_zero_equals_vanilla_descent_exactly(self, rng):
        params = rng.standard_normal(10)
        grads = rng.standard_normal(10)
        state = SgdState(0.03, 0.0, 10)
        np.testing.assert_array_equal(sgd_step(state, params, grads), params - 0.03 * grads)

    def test_deterministic_bitwise(self, rng):
        params = rng.standard_normal(8)
        grads = rng.standard_normal(8)
        s1, s2 = SgdState(0.05, 0.9, 8), SgdState(0.05, 0.9, 8)
        a = sgd_step(s1, params, grads)
        b = sgd_step(s2, params, grads)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(s1.velocity, s2.velocity)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sgd_step(SgdState(0.1, 0.0, 3), np.zeros(3), np.zeros(4))


class TestClampWeights:
    def test_negative_entries_hit_floor(self):
        np.testing.assert_array_equal(clamp_weights(np.array([-0.3, 0.5]), 1e-6), [1e-6, 0.5])

    def test_above_floor_unchanged(self):
        w = np.array([0.2, 1.0, 3.5])
        np.testing.assert_array_equal(clamp_weights(w, 1e-6), w)

    def test_zeros_hit_floor(self):
        np.testing.assert_array_equal(clamp_weights(np.zeros(2), 1e-6), [1e-6, 1e-6])

    def test_idempotent_and_floor_respected(self, rng):
        w = rng.standard_normal(20)
        once = clamp_weights(w, 1e-6)
        np.testing.assert_array_equal(clamp_weights(once, 1e-6), once)
        assert (once >= 1e-6).all()
