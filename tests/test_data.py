import gzip
import struct
from pathlib import Path

import numpy as np
import pytest

from avil import data as datamod
from avil.data import (
    ConfigError,
    IdxFormatError,
    MultiMnistSet,
    batches,
    bilinear_resize,
    load_cache,
    load_idx,
    make_multimnist,
    overlay_pair,
    sample_fraction,
    save_cache,
    split_dev,
    synthetic_mnist,
)

MNIST_DIR = Path("data")
HAVE_OFFICIAL = (MNIST_DIR / "train-images-idx3-ubyte").exists() or (
    MNIST_DIR / "train-images-idx3-ubyte.gz"
).exists()


def write_idx_pair(tmp_path, images, labels, gzipped=False):
    """Hand-built IDX fixture files (big-endian, uint8 pixels)."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
    lbl_bytes = struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()
    suffix = ".gz" if gzipped else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lbl_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    writer = gzip.open if gzipped else open
    with writer(img_path, "wb") as fh:
        fh.write(img_bytes)
    with writer(lbl_path, "wb") as fh:
        fh.write(lbl_bytes)
    return img_path, lbl_path


class TestLoadIdx:
    def test_ten_image_fixture_parses(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(10, 28, 28))
        labels = rng.integers(0, 10, size=10)
        img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
        loaded_images, loaded_labels = load_idx(img_path, lbl_path)
        assert loaded_images.shape == (10, 28, 28)
        assert loaded_images.dtype == np.float32
        np.testing.assert_allclose(loaded_images, images / 255.0, atol=1e-7)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_gzipped_fixture_parses(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 28, 28))
        labels = rng.integers(0, 10, size=4)
        img_path, lbl_path = write_idx_pair(tmp_path, images, labels, gzipped=True)
        loaded_images, loaded_labels = load_idx(img_path, lbl_path)
        assert loaded_images.shape == (4, 28, 28)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_wrong_magic_in_image_file(self, tmp_path):
        img_path = tmp_path / "bad-images"
        img_path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 28, 28) + bytes(784))
        lbl_path = tmp_path / "labels"
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes(1))
        with pytest.raises(IdxFormatError, match="magic 0x00000801"):
            load_idx(img_path, lbl_path)

    def test_truncated_image_payload_reports_offset(self, tmp_path):
        img_path = tmp_path / "short-images"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(784))
        lbl_path = tmp_path / "labels"
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="truncated at offset 800"):
            load_idx(img_path, lbl_path)

    def test_count_mismatch_between_files(self, tmp_path, rng):
        img_path, _ = write_idx_pair(tmp_path, rng.integers(0, 255, (3, 28, 28)), [0, 1, 2])
        lbl_path = tmp_path / "other-labels"
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
        with pytest.raises(IdxFormatError, match="3 images but .* 2 labels"):
            load_idx(img_path, lbl_path)

    @pytest.mark.skipif(not HAVE_OFFICIAL, reason="official IDX files not present")
    def test_official_train_files(self):
        images, labels = load_idx(*datamod.find_idx_pair(MNIST_DIR, "train"))
        assert len(images) == 60_000
        assert labels[0] == 5


class TestMakeMultimnist:
    def test_blank_partner_keeps_shifted_original(self):
        # force the pairing by using n=2 with one blank image
        digit = np.zeros((28, 28), dtype=np.float32)
        digit[5:20, 5:20] = 1.0
        images = np.stack([digit, np.zeros((28, 28), dtype=np.float32)])
        ds = make_multimnist(images, np.array([7, 0]), pair_seed=1, split="train")
        # sample 0 pairs with the only other image (blank): max() leaves the
        # top-left placement untouched
        canvas = overlay_pair(digit, np.zeros((28, 28)))
        expected = bilinear_resize(canvas[None], 28, 28)[0]
        np.testing.assert_allclose(ds.images[0, 0], expected, atol=1e-6)
        assert ds.labels["tl"][0] == 7
        assert ds.labels["br"][0] == 0

    def test_self_pair_overlay_is_symmetric_in_labels(self):
        digit = np.zeros((28, 28), dtype=np.float32)
        digit[10:18, 10:18] = 0.9
        canvas = overlay_pair(digit, digit)
        # both shifted copies are present; merged canvas dominates each alone
        assert canvas.max() == pytest.approx(0.9)
        ds = MultiMnistSet(
            images=bilinear_resize(canvas[None], 28, 28)[None].transpose(1, 0, 2, 3),
            labels={"tl": np.array([3]), "br": np.array([3])},
            split="train",
        )
        assert ds.labels["tl"][0] == ds.labels["br"][0]

    def test_pixel_max_property_against_bruteforce(self, rng):
        for _ in range(5):
            a = rng.uniform(size=(28, 28)).astype(np.float32)
            b = rng.uniform(size=(28, 28)).astype(np.float32)
            canvas = overlay_pair(a, b)
            shifted_a = np.zeros((36, 36), dtype=np.float32)
            shifted_a[:28, :28] = a
            shifted_b = np.zeros((36, 36), dtype=np.float32)
            shifted_b[8:, 8:] = b
            brute = np.array([
                [max(shifted_a[y, x], shifted_b[y, x]) for x in range(36)] for y in range(36)
            ])
            np.testing.assert_array_equal(canvas, brute)

    def test_max_merge_commutes(self, rng):
        a = rng.uniform(size=(28, 28)).astype(np.float32)
        b = rng.uniform(size=(28, 28)).astype(np.float32)
        shifted_a = np.zeros((36, 36), dtype=np.float32)
        shifted_a[:28, :28] = a
        shifted_b = np.zeros((36, 36), dtype=np.float32)
        shifted_b[8:, 8:] = b
        np.testing.assert_array_equal(
            np.maximum(shifted_a, shifted_b), np.maximum(shifted_b, shifted_a)
        )

    def test_never_pairs_with_itself_and_is_deterministic(self, rng):
        images = rng.uniform(size=(50, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, size=50)
        ds1 = make_multimnist(images, labels, pair_seed=9, split="train")
        ds2 = make_multimnist(images, labels, pair_seed=9, split="train")
        np.testing.assert_array_equal(ds1.images, ds2.images)
        np.testing.assert_array_equal(ds1.labels["br"], ds2.labels["br"])
        ds3 = make_multimnist(images, labels, pair_seed=10, split="train")
        assert not np.array_equal(ds1.labels["br"], ds3.labels["br"]) or not np.array_equal(
            ds1.images, ds3.images
        )

    def test_outputs_stay_in_unit_range(self, rng):
        images = rng.uniform(size=(20, 28, 28)).astype(np.float32)
        ds = make_multimnist(images, rng.integers(0, 10, 20), pair_seed=3, split="test")
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0


class TestMultiMnistSetShapes:
    def test_images_without_a_channel_axis_are_a_config_error(self):
        with pytest.raises(ConfigError, match=r"\(3, 28, 28\)"):
            MultiMnistSet(images=np.zeros((3, 28, 28)), labels={"tl": np.zeros(3)}, split="train")

    def test_labels_of_the_wrong_length_are_a_config_error(self):
        with pytest.raises(ConfigError, match=r"'br'.*\(2,\).*\(3,\)"):
            MultiMnistSet(
                images=np.zeros((3, 1, 28, 28)),
                labels={"tl": np.zeros(3), "br": np.zeros(2)},
                split="dev",
            )


class TestSplits:
    def test_sizes_and_disjointness(self, rng):
        ds = _toy(600, rng)
        train, dev = split_dev(ds, 100, seed=5)
        assert len(train) == 500
        assert len(dev) == 100

    def test_deterministic(self, rng):
        ds = _toy(100, rng)
        t1, d1 = split_dev(ds, 30, seed=7)
        t2, d2 = split_dev(ds, 30, seed=7)
        np.testing.assert_array_equal(d1.images, d2.images)
        np.testing.assert_array_equal(t1.images, t2.images)

    def test_union_is_everything(self, rng):
        ds = _toy(80, rng)
        ds.labels["tl"][:] = np.arange(80)  # identity tags to recover indices
        train, dev = split_dev(ds, 20, seed=1)
        merged = np.sort(np.concatenate([train.labels["tl"], dev.labels["tl"]]))
        np.testing.assert_array_equal(merged, np.arange(80))

    def test_oversized_dev_rejected(self, rng):
        with pytest.raises(ConfigError):
            split_dev(_toy(10, rng), 10, seed=0)


class TestSampling:
    def test_rho_one_is_full_shuffle(self, rng):
        ds = _toy(50, rng)
        idx = sample_fraction(ds, 1.0, seed=3, epoch=1)
        np.testing.assert_array_equal(np.sort(idx), np.arange(50))
        assert not np.array_equal(idx, np.arange(50))  # shuffled order

    def test_quarter_sample_size_and_uniqueness(self, rng):
        idx = sample_fraction(_toy(1000, rng), 0.25, seed=3, epoch=1)
        assert len(idx) == 250
        assert len(np.unique(idx)) == 250

    def test_epochs_draw_fresh_but_reproducible_subsets(self, rng):
        ds = _toy(100, rng)
        e1 = sample_fraction(ds, 0.5, seed=3, epoch=1)
        e2 = sample_fraction(ds, 0.5, seed=3, epoch=2)
        assert not np.array_equal(e1, e2)
        np.testing.assert_array_equal(e1, sample_fraction(ds, 0.5, seed=3, epoch=1))
        k1 = sample_fraction(ds, 0.5, seed=3, epoch=1, key="tl")
        k2 = sample_fraction(ds, 0.5, seed=3, epoch=1, key="br")
        assert not np.array_equal(k1, k2)
        np.testing.assert_array_equal(k1, sample_fraction(ds, 0.5, seed=3, epoch=1, key="tl"))

    def test_bad_rho_rejected(self, rng):
        ds = _toy(10, rng)
        for rho in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                sample_fraction(ds, rho, seed=0, epoch=0)

    def test_rho_that_samples_nothing_rejected(self, rng):
        assert len(sample_fraction(_toy(10, rng), 0.1, seed=0, epoch=0)) == 1
        with pytest.raises(ConfigError, match="rho 0.09 samples no example out of 10"):
            sample_fraction(_toy(10, rng), 0.09, seed=0, epoch=0)


class TestBatches:
    def test_sizes(self, rng):
        sizes = [len(b) for b in batches(_toy(600, rng), 256, seed=0, epoch=0)]
        assert sizes == [256, 256, 88]

    def test_concatenation_is_permutation(self, rng):
        ds = _toy(100, rng)
        idx = np.concatenate(batches(ds, 32, seed=1, epoch=2))
        np.testing.assert_array_equal(np.sort(idx), np.arange(100))

    def test_same_key_same_order(self, rng):
        ds = _toy(64, rng)
        b1 = batches(ds, 16, seed=4, epoch=5)
        b2 = batches(ds, 16, seed=4, epoch=5)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x, y)


class TestCache:
    def test_round_trip(self, tmp_path, rng):
        images = rng.uniform(size=(12, 28, 28)).astype(np.float32)
        ds = make_multimnist(images, rng.integers(0, 10, 12), pair_seed=2, split="train")
        path = tmp_path / "cache.mm01"
        save_cache(ds, path)
        loaded = load_cache(path, split="train")
        np.testing.assert_array_equal(loaded.images, ds.images)
        np.testing.assert_array_equal(loaded.labels["tl"], ds.labels["tl"])
        np.testing.assert_array_equal(loaded.labels["br"], ds.labels["br"])
        assert path.read_bytes()[:4] == b"MM01"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mm01"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(IdxFormatError, match="magic"):
            load_cache(path, split="train")

    # inside the magic, after it, inside the example count, after it
    @pytest.mark.parametrize("cut", [2, 4, 8, 12])
    def test_file_cut_in_its_header_reports_offset(self, tmp_path, rng, cut):
        ds = make_multimnist(rng.uniform(size=(4, 28, 28)), rng.integers(0, 10, 4), pair_seed=2, split="train")
        path = tmp_path / "cache.mm01"
        save_cache(ds, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(IdxFormatError, match=f"truncated at offset {cut} "):
            load_cache(path, split="train")


class TestSyntheticDigits:
    def test_deterministic_and_in_range(self):
        a_images, a_labels = synthetic_mnist(64, seed=5)
        b_images, b_labels = synthetic_mnist(64, seed=5)
        np.testing.assert_array_equal(a_images, b_images)
        np.testing.assert_array_equal(a_labels, b_labels)
        assert a_images.shape == (64, 28, 28)
        assert a_images.min() >= 0.0 and a_images.max() <= 1.0
        assert set(np.unique(a_labels)) <= set(range(10))

    def test_different_seeds_differ(self):
        a_images, _ = synthetic_mnist(16, seed=1)
        b_images, _ = synthetic_mnist(16, seed=2)
        assert not np.array_equal(a_images, b_images)

    def test_digits_are_nonempty(self):
        images, _ = synthetic_mnist(32, seed=3)
        assert (images.reshape(32, -1).sum(axis=1) > 1.0).all()


def _toy(n, rng):
    return MultiMnistSet(
        images=rng.uniform(size=(n, 1, 28, 28)).astype(np.float32),
        labels={"tl": rng.integers(0, 10, n), "br": rng.integers(0, 10, n)},
        split="train",
    )
