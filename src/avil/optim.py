"""SGD with classic momentum, plus the task-weight clamp.

One optimizer state per optimized variable; velocity is zero-initialized
and never shared. Training code creates a fresh state at every epoch
boundary so that updates collected from a restored snapshot carry no
velocity from before the restore.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class SgdState:
    """Velocity buffer plus hyperparameters for one optimized vector."""

    def __init__(self, learning_rate, momentum, size, dtype=np.float64):
        if not 0 < learning_rate < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.velocity = np.zeros(size, dtype=dtype)


def sgd_step(state, params, grads):
    """v <- momentum*v + grads; params - lr*v. No dampening, no weight decay."""
    params = np.asarray(params)
    grads = np.asarray(grads)
    if params.shape != grads.shape or params.shape != state.velocity.shape:
        raise ConfigError(
            f"mismatched shapes: params {params.shape}, grads {grads.shape}, "
            f"velocity {state.velocity.shape}"
        )
    state.velocity = state.momentum * state.velocity + grads
    return params - state.learning_rate * state.velocity


def clamp_weights(weights, floor):
    """Elementwise max(w, floor); idempotent."""
    return np.maximum(np.asarray(weights, dtype=np.float64), floor)
