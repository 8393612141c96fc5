import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import avil
from avil import autodiff as ad
from avil.data import MultiMnistSet
from avil.model import MultiHeadModel


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` returns ``(fn(), peak bytes tracemalloc traced while fn ran)``."""

    def measure(fn):
        tracemalloc.start()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]

    yield measure
    tracemalloc.stop()  # also when fn raised


@pytest.fixture
def encoder_passes(monkeypatch):
    """Images per tape-free encoder pass (``MultiHeadModel.features``), in call order."""
    passes = []
    features = MultiHeadModel.features

    def counted(self, images):
        if ad.active_tape() is None:
            passes.append(len(images))
        return features(self, images)

    monkeypatch.setattr(MultiHeadModel, "features", counted)
    return passes


def toy_set(n, seed, tasks=("tl", "br"), split="train", label_map=None):
    """Small random-image dataset; labels can be overridden per task."""
    gen = np.random.default_rng(seed)
    images = gen.uniform(0.0, 1.0, size=(n, 1, 28, 28)).astype(np.float32)
    labels = {}
    for task in tasks:
        if label_map and task in label_map:
            labels[task] = np.asarray(label_map[task], dtype=np.int64)
        else:
            labels[task] = gen.integers(0, 10, size=n)
    return MultiMnistSet.whole(images, labels=labels, split=split)


def run_python(code, cwd):
    """Standard output of ``code`` run by a fresh interpreter that imports avil from these sources."""
    sources = str(Path(avil.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [sources, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
