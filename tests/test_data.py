import gzip
import hashlib
import json
import re
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage  # the oracle the synthetic digits mirror; avil itself never imports scipy

from avil import autodiff
from avil import data as datamod
from avil.data import (
    ConfigError,
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
from conftest import run_python

MNIST_DIR = Path("data")
HAVE_OFFICIAL = (MNIST_DIR / "train-images-idx3-ubyte").exists() or (
    MNIST_DIR / "train-images-idx3-ubyte.gz"
).exists()


@pytest.fixture(
    params=[(1, False), (2, False), (2, True), (3, False), (8, False)], ids=["1", "2", "2-first-last", "3", "8"]
)
def workers(request, monkeypatch):
    """Run at 1, 2, 3 and 8 workers, and at 2 with the first part of each multi-part split finishing last.

    The delay makes a split that takes random draws in the order its parts
    run, or writes a part into another part's rows, give other bytes. The
    threads switch every 10 us, so they interleave within a part.
    """
    count, first_last = request.param
    monkeypatch.setattr(autodiff, "_WORKERS", count)
    if first_last:
        split = autodiff._split

        def first_finishes_last(fn, parts):
            def part(p):
                if p is parts[0] and len(parts) > 1:
                    time.sleep(0.005)
                return fn(p)

            return split(part, parts)

        monkeypatch.setattr(autodiff, "_split", first_finishes_last)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


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

    def test_pixels_are_those_of_a_float32_division_by_255(self, tmp_path):
        images = np.resize(np.arange(256), (3, 28, 28))  # every byte value
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.zeros(3))
        loaded, _ = load_idx(img_path, lbl_path)
        assert loaded.tobytes() == (images.astype(np.uint8).astype(np.float32) / 255.0).tobytes()

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
        with pytest.raises(ConfigError, match="magic 0x00000801"):
            load_idx(img_path, lbl_path)

    def test_truncated_image_payload_reports_offset(self, tmp_path):
        img_path = tmp_path / "short-images"
        img_path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) + bytes(784))
        lbl_path = tmp_path / "labels"
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
        with pytest.raises(ConfigError, match="truncated at offset 800"):
            load_idx(img_path, lbl_path)

    # the size overflows an index, so a reader that trusts it fails with OverflowError
    @pytest.mark.parametrize("gzipped", [False, True])
    def test_a_header_size_beyond_the_file_is_checked_before_reading(self, tmp_path, gzipped):
        img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], gzipped=gzipped)
        with (gzip.open if gzipped else open)(img_path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2**32 - 1, 65535, 65535) + bytes(784))
        wanted = (2**32 - 1) * 65535 * 65535
        expected = f"{img_path}: truncated at offset 800 ({wanted} bytes wanted from offset 16, 784 left)"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            load_idx(img_path, lbl_path)

    def test_a_cut_gzip_file_is_a_config_error(self, tmp_path, rng):
        img_path, lbl_path = write_idx_pair(tmp_path, rng.integers(0, 256, (4, 28, 28)), [0] * 4, gzipped=True)
        img_path.write_bytes(img_path.read_bytes()[:-10])  # the trailer and the end of the stream
        with pytest.raises(ConfigError, match=re.escape(f"{img_path}: bad gzip data")):
            load_idx(img_path, lbl_path)

    def test_count_mismatch_between_files(self, tmp_path, rng):
        img_path, _ = write_idx_pair(tmp_path, rng.integers(0, 255, (3, 28, 28)), [0, 1, 2])
        lbl_path = tmp_path / "other-labels"
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes(2))
        with pytest.raises(ConfigError, match="3 images but .* 2 labels"):
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
        np.testing.assert_allclose(ds.pixels[0, 0], expected, atol=1e-6)
        assert ds.labels["tl"][0] == 7
        assert ds.labels["br"][0] == 0

    def test_self_pair_overlay_is_symmetric_in_labels(self):
        digit = np.zeros((28, 28), dtype=np.float32)
        digit[10:18, 10:18] = 0.9
        canvas = overlay_pair(digit, digit)
        # both shifted copies are present; merged canvas dominates each alone
        assert canvas.max() == pytest.approx(0.9)
        ds = MultiMnistSet.whole(
            bilinear_resize(canvas[None], 28, 28)[None].transpose(1, 0, 2, 3),
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
        np.testing.assert_array_equal(ds1.pixels, ds2.pixels)
        np.testing.assert_array_equal(ds1.labels["br"], ds2.labels["br"])
        ds3 = make_multimnist(images, labels, pair_seed=10, split="train")
        assert not np.array_equal(ds1.labels["br"], ds3.labels["br"]) or not np.array_equal(
            ds1.pixels, ds3.pixels
        )

    def test_outputs_stay_in_unit_range(self, rng):
        images = rng.uniform(size=(20, 28, 28)).astype(np.float32)
        ds = make_multimnist(images, rng.integers(0, 10, 20), pair_seed=3, split="test")
        assert ds.pixels.min() >= 0.0
        assert ds.pixels.max() <= 1.0

    def test_each_image_is_the_resized_overlay_of_its_pair(self, rng):
        images = rng.uniform(size=(10, 28, 28)).astype(np.float32)
        ds = make_multimnist(images, np.arange(10), pair_seed=5, split="train")  # labels name the images
        for i, (tl, br) in enumerate(zip(ds.labels["tl"], ds.labels["br"])):
            canvas = overlay_pair(images[tl], images[br])
            assert canvas.shape == (36, 36)
            assert ds.pixels[i, 0].tobytes() == bilinear_resize(canvas[None], 28, 28)[0].tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 300])
    def test_bytes_do_not_depend_on_the_chunk(self, monkeypatch, rng, chunk, workers):
        images = rng.uniform(size=(300, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, size=300)
        with monkeypatch.context() as one_part:
            one_part.setattr(autodiff, "_WORKERS", 1)
            one_part.setattr(datamod, "_CHUNK", 300)
            reference = make_multimnist(images, labels, pair_seed=4, split="train")
        monkeypatch.setattr(datamod, "_CHUNK", chunk)
        monkeypatch.setattr(datamod, "_MIN_PART", 1)  # every chunk of more than one image splits
        ds = make_multimnist(images, labels, pair_seed=4, split="train")
        assert ds.pixels.tobytes() == reference.pixels.tobytes()
        assert ds.labels["br"].tobytes() == reference.labels["br"].tobytes()

    def test_transient_memory_stays_that_of_one_chunk(self, rng, traced_peak, workers):
        images = rng.uniform(size=(2640, 28, 28)).astype(np.float32)
        labels = rng.integers(0, 10, size=2640)
        ds, peak = traced_peak(lambda: make_multimnist(images, labels, pair_seed=1, split="train"))
        # about 2.3 MiB over the result in chunks of 128, 47 MiB in chunks of 4096
        assert peak - ds.pixels.nbytes < 6 * 2**20


class TestMultiMnistSetShapes:
    def test_images_without_a_channel_axis_are_a_config_error(self):
        with pytest.raises(ConfigError, match=r"\(3, 28, 28\)"):
            MultiMnistSet.whole(np.zeros((3, 28, 28)), labels={"tl": np.zeros(3)}, split="train")

    def test_labels_of_the_wrong_length_are_a_config_error(self):
        with pytest.raises(ConfigError, match=r"'br'.*\(2,\).*\(3,\)"):
            MultiMnistSet.whole(
                np.zeros((3, 1, 28, 28)),
                labels={"tl": np.zeros(3), "br": np.zeros(2)},
                split="dev",
            )

    @pytest.mark.parametrize("bad", [-1, 10, 255])
    def test_a_label_outside_0_to_9_is_a_config_error(self, bad):
        with pytest.raises(ConfigError, match=f"test labels of task 'br' must be digits 0-9, got {bad}$"):
            MultiMnistSet.whole(
                np.zeros((3, 1, 28, 28)),
                labels={"tl": np.array([0, 9, 5]), "br": np.array([9, bad, 0])},
                split="test",
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
        np.testing.assert_array_equal(d1.gather(slice(None)), d2.gather(slice(None)))
        np.testing.assert_array_equal(t1.gather(slice(None)), t2.gather(slice(None)))

    def test_union_is_everything(self, rng):
        ds = _toy(80, rng)
        ds.pixels[:, 0, 0, 0] = np.arange(80)  # identity tags to recover indices
        train, dev = split_dev(ds, 20, seed=1)
        merged = np.sort(np.concatenate([train.gather(slice(None))[:, 0, 0, 0], dev.gather(slice(None))[:, 0, 0, 0]]))
        np.testing.assert_array_equal(merged, np.arange(80))

    def test_the_split_copies_no_image(self, rng):
        ds = _toy(80, rng)
        train, dev = split_dev(ds, 20, seed=1)
        assert np.shares_memory(train.pixels, ds.pixels) and np.shares_memory(dev.pixels, ds.pixels)
        subset = train.take([5, 2, 40])
        assert subset.pixels is ds.pixels
        np.testing.assert_array_equal(subset.rows, train.rows[[5, 2, 40]])
        assert subset.gather(slice(None)).tobytes() == ds.pixels[train.rows[[5, 2, 40]]].tobytes()
        for task in ("tl", "br"):
            np.testing.assert_array_equal(subset.labels[task], ds.labels[task][subset.rows])

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
        for rho in (0.0, -0.5):
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
        np.testing.assert_array_equal(loaded.pixels, ds.pixels)
        np.testing.assert_array_equal(loaded.labels["tl"], ds.labels["tl"])
        np.testing.assert_array_equal(loaded.labels["br"], ds.labels["br"])
        assert path.read_bytes()[:4] == b"MM01"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mm01"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(ConfigError, match="magic"):
            load_cache(path, split="train")

    # inside the magic, after it, inside the example count, after it, inside the pixels
    @pytest.mark.parametrize("cut", [2, 4, 8, 12, 12 + 4 * 28 * 28 * 4 - 1])
    def test_file_cut_in_its_header_reports_offset(self, tmp_path, rng, cut):
        ds = make_multimnist(rng.uniform(size=(4, 28, 28)), rng.integers(0, 10, 4), pair_seed=2, split="train")
        path = tmp_path / "cache.mm01"
        save_cache(ds, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ConfigError, match=f"truncated at offset {cut} "):
            load_cache(path, split="train")

    def test_an_example_count_beyond_the_file_is_checked_before_reading(self, tmp_path):
        path = tmp_path / "cache.mm01"
        path.write_bytes(b"MM01" + struct.pack("<Q", 2**62) + bytes(64))
        expected = f"{path}: truncated at offset 76 ({2**62 * 28 * 28 * 4} bytes wanted from offset 12, 64 left)"
        with pytest.raises(ConfigError, match=re.escape(expected)):
            load_cache(path, split="train")

    def test_the_pixels_are_read_once_into_the_sets_array(self, tmp_path, rng, traced_peak):
        pool = _toy(1000, rng)
        path = tmp_path / "cache.mm01"
        save_cache(pool, path)
        loaded, peak = traced_peak(lambda: load_cache(path, split="train"))
        assert loaded.pixels.tobytes() == pool.pixels.tobytes()
        # 3.0 MiB of pixels: 3.02 MiB traced; the file's bytes plus a copy of them took 6.0
        assert peak - loaded.pixels.nbytes < 2**20 / 4

    def test_a_taken_set_round_trips_in_its_row_order_in_bounded_chunks(self, tmp_path, rng, traced_peak):
        pool = _toy(3000, rng)
        order = rng.permutation(3000)[:2000]
        path = tmp_path / "subset.mm01"
        _, peak = traced_peak(lambda: save_cache(pool.take(order), path))
        loaded = load_cache(path, split="train")
        assert loaded.pixels.tobytes() == pool.pixels[order].tobytes()
        for task in ("tl", "br"):
            np.testing.assert_array_equal(loaded.labels[task], pool.labels[task][order])
        # chunks of 128 images: 0.39 MiB traced; the subset's images take 6.0 MiB
        assert peak < 2**20


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

    # SHA-256 of the images' and labels' bytes as an image-at-a-time loop
    # (one scipy gaussian_filter per image and displacement axis) made them:
    # sizes around the 128-image chunk, for two seeds
    @pytest.mark.parametrize(
        "n, seed, images_sha, labels_sha",
        [
            (0, 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (1, 3, "eb2c4ffbb031a34833f8b52b8eb2c5adc33ffb27da8a64a8b8e160f2998088b9",
             "cbbd5f990c53684d7ae650b40fcb5656e02261b53da5f6a7d8c819c92f2828f8"),
            (127, 3, "1918206597024b0905ac04c0723243661717bb7a7048f71df1f846e23decf14f",
             "954be73cede31095711d500ca3511782446fa84f3d8156f79a7c1aa8ac53ff63"),
            (128, 3, "1cd7513b98e74ae7630493abf542391d6804fa5b604ab6924f22aafed6dabb3f",
             "f7a00dab1f978bc289e085723778bca2ac6519221b8057d610f6ecff40b2f891"),
            (129, 3, "141c0f4b206c3323ae5099c8a305835d0d36343602b892e52cfd9d99872b4819",
             "ef79924f9e694aa7d7a2b41753efadd952f626b134521ca2b73c82c9f972d718"),
            (300, 3, "be630dcf73ca46ab9d01af4a8e4afdd3d6666e2d97eb4a18899c6ef69b434bb4",
             "f1c9715fda5a44ee7f19a736ae72e58176ea794d7fa36fb3e2d2131e197a466c"),
            (0, 1234, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (1, 1234, "6298793b1a5b5f56f5618de5c45b9c9fbdfc8d9d34a3e1ddd981cb0a54ccdac6",
             "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
            (127, 1234, "877018a67e97988fec426d31e6afc42bc16c5f104b981e8467d7bdecf8f120c7",
             "660b1dc09554a8e8817f0b5cf84623907033788f080d019c879fa33eeb94d883"),
            (128, 1234, "95faf48ba45ef745f08d4d71f4353fbebf2316beeba4afbb3fc913e2da943055",
             "8f9519c99ee06a5f3312e0f444032a46e9c410a4d066fb58d734ab3727a07b71"),
            (129, 1234, "91233b50545b49caa2265aab1c13f659e608b58111d4d78fcc5150ce28b15433",
             "8e7ba3002417807f8b80e9946938f123907bc49f6c09d33be8bca0a1e5fe13fd"),
            (300, 1234, "f97b6783d877f1d618acb92ef1df5ade546f55ce348b91108872ec2eca5c840f",
             "bc8b65425290e2aff4756cd75f39699da88334edcbb4ed6814d9b1e0b71442d7"),
        ],
    )
    def test_bytes_equal_the_image_at_a_time_rendering(self, n, seed, images_sha, labels_sha):
        images, labels = synthetic_mnist(n, seed)
        assert (images.dtype, images.shape, labels.dtype) == (np.float32, (n, 28, 28), np.int64)
        assert hashlib.sha256(images.tobytes()).hexdigest() == images_sha
        assert hashlib.sha256(labels.tobytes()).hexdigest() == labels_sha

    # each side of the kernel radius steps int(4 * sigma + 0.5) = 1 | 2 | 3
    @pytest.mark.parametrize("sigma", [0.3, 0.3749, 0.375, 0.6249, 0.625, 0.8])
    def test_blur_equals_scipy_bit_for_bit(self, rng, sigma):
        batch = rng.uniform(size=(5, 28, 28))
        batch[0, :, :3] = 0.0  # a dark border, as the templates have
        sigmas = np.array([sigma, 0.3, sigma, 0.8, sigma])  # groups by radius
        blurred = datamod._gaussian_blur(batch, sigmas)
        for image, s, out in zip(batch, sigmas, blurred):
            assert out.tobytes() == ndimage.gaussian_filter(image, sigma=s).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 300])
    def test_bytes_do_not_depend_on_the_render_chunk(self, monkeypatch, chunk, workers):
        monkeypatch.setattr(datamod, "_RENDER_CHUNK", chunk)
        monkeypatch.setattr(datamod, "_MIN_PART", 1)  # every chunk of more than one digit splits
        images, _ = synthetic_mnist(300, 3)
        expected = "be630dcf73ca46ab9d01af4a8e4afdd3d6666e2d97eb4a18899c6ef69b434bb4"
        assert hashlib.sha256(images.tobytes()).hexdigest() == expected

    @pytest.mark.parametrize("m", [1, 5, 32])
    def test_displacement_blur_equals_scipy_bit_for_bit(self, rng, m):
        draws = rng.uniform(-1.0, 1.0, size=(m, datamod._DRAW_LOW.size))
        field = draws[:, 6:-3].reshape(m, 2, 28, 28)  # the strided view the renderer blurs
        blurred = datamod._separable_blur(field, datamod._DISPLACEMENT_WEIGHTS)
        assert blurred.tobytes() == ndimage.gaussian_filter(field, sigma=(0, 0, 3.0, 3.0)).tobytes()

    def test_warp_equals_scipy_bit_for_bit(self, rng):
        labels = np.tile(np.arange(10), 3)
        coords = rng.uniform(-3.0, 31.0, size=(len(labels), 2, 28, 28))
        coords[:, :, 3] = np.round(coords[:, :, 3])  # whole pixels: weights 1 and 0
        edges = np.array([0.0, 27.0, -0.0, -1e-12, 1e-12, 27.0 - 1e-12, 27.0 + 1e-12])
        coords[:, 0, 0, : len(edges)] = edges  # on the row axis only
        coords[:, 1, 1, : len(edges)] = edges  # on the column axis only
        coords[:, :, 2, : len(edges)] = edges  # on both
        templates = datamod._digit_templates()
        expected = np.stack([
            ndimage.map_coordinates(templates[d], c, order=1, mode="constant") for d, c in zip(labels, coords)
        ])
        assert datamod._warp(labels, coords.copy()).tobytes() == expected.tobytes()

    def test_templates_are_zero_outside_the_glyph_box(self):
        # _warp's clamped gather reads only zeros for a point outside the template
        # as long as the two outermost rows and columns are zero
        glyph = np.zeros((28, 28), dtype=bool)
        glyph[3:24, 6:21] = True
        templates = datamod._digit_templates()
        assert not templates[:, ~glyph].any()
        assert templates[:, glyph].any(axis=1).all()

    def test_transient_memory_stays_that_of_one_chunk(self, traced_peak, workers):
        synthetic_mnist(1, seed=0)  # the templates' cache
        (images, labels), peak = traced_peak(lambda: synthetic_mnist(1000, seed=0))
        # about 5.3 MiB in chunks of 64 at any worker count; 82 MiB rendered
        # all at once, 10.5 MiB in chunks of 128 on one thread, 21 MiB at 8
        # workers with a 32-digit chunk on each
        assert peak - images.nbytes - labels.nbytes < 12 * 2**20


def test_building_synthetic_pools_imports_no_scipy(tmp_path):
    # importing scipy.ndimage took avil.cli from 30 to 57 MiB resident and 230 to 560 modules
    code = "\n".join([
        "import sys",
        "import avil.cli",
        "from avil import harness",
        "config = harness.ExperimentConfig(data_source='synthetic', synthetic_n=200, synthetic_test_n=50)",  # chunks that split
        "train, test = harness.load_pools(config)",
        "assert (len(train), len(test)) == (200, 50)",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
        "import json, threading",
        "from avil import autodiff",
        "print(json.dumps([autodiff._WORKERS, [t.name for t in threading.enumerate() if t is not threading.main_thread()]]))",
    ])
    modules, threads = run_python(code, tmp_path).splitlines()
    assert modules == "[]"
    # the kernels' executor is the only pool: at most _WORKERS - 1 threads, started by the first split
    workers, names = json.loads(threads)
    assert all(name.startswith("avil-kernel_") for name in names)
    assert 0 < len(names) <= workers - 1 if workers > 1 else names == []


def _toy(n, rng):
    return MultiMnistSet.whole(
        rng.uniform(size=(n, 1, 28, 28)).astype(np.float32),
        labels={"tl": rng.integers(0, 10, n), "br": rng.integers(0, 10, n)},
        split="train",
    )
