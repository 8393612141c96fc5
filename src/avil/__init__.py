"""Target-task multitask training via per-epoch model-delta mixing."""
