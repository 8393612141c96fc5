"""SGD with classic momentum, plus the task-weight clamp.

One optimizer state per optimized variable; velocity is zero-initialized
and never shared. Training code creates a fresh state at every epoch
boundary so that updates collected from a restored snapshot carry no
velocity from before the restore.
"""

from __future__ import annotations

import numpy as np


class SgdState:
    """Velocity buffer plus hyperparameters for one optimized vector."""

    def __init__(self, learning_rate, momentum, size, dtype=np.float64):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = np.zeros(size, dtype=dtype)


def sgd_step(state, params, grads):
    """v <- momentum*v + grads; params - lr*v. No dampening, no weight decay."""
    state.velocity = state.momentum * state.velocity + grads
    return params - state.learning_rate * state.velocity


def clamp_weights(weights, floor):
    """Elementwise max(w, floor); idempotent."""
    return np.maximum(np.asarray(weights, dtype=np.float64), floor)
