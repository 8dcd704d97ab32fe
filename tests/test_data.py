import struct

import numpy as np
import pytest

from pinset.data import (
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    SetBatch,
    SyntheticTaskSpec,
    augment,
    downsample_image,
    image_to_pixel_set,
    load_mnist_idx,
    make_synthetic_task,
    pixel_set_batch,
    pixel_set_to_image,
    quadrant_majority_label,
    quadrant_of,
    write_idx,
)
from pinset.rng import RngState


@pytest.fixture
def idx_fixture(tmp_path):
    gen = RngState(0).generator()
    images = gen.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
    labels = np.array([3, 1, 4, 1], dtype=np.uint8)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    write_idx(images_path, labels_path, images, labels)
    return images_path, labels_path, images, labels


class TestIdxLoader:
    def test_round_trip(self, idx_fixture):
        images_path, labels_path, images, labels = idx_fixture
        loaded_images, loaded_labels = load_mnist_idx(images_path, labels_path)
        assert loaded_images.shape == (4, 28, 28)
        np.testing.assert_array_equal(loaded_images, images)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_wrong_magic_names_observed_value(self, idx_fixture, tmp_path):
        images_path, labels_path, *_ = idx_fixture
        bad = tmp_path / "bad.idx"
        payload = images_path.read_bytes()
        bad.write_bytes(struct.pack(">I", 0x00000107) + payload[4:])
        with pytest.raises(IdxFormatError, match="0x00000107"):
            load_mnist_idx(bad, labels_path)

    def test_truncated_file(self, idx_fixture, tmp_path):
        images_path, labels_path, *_ = idx_fixture
        cut = tmp_path / "cut.idx"
        cut.write_bytes(images_path.read_bytes()[:-10])
        with pytest.raises(IdxTruncatedError):
            load_mnist_idx(cut, labels_path)

    def test_count_mismatch(self, idx_fixture, tmp_path):
        images_path, _, _, labels = idx_fixture
        short_labels = tmp_path / "short.idx"
        with open(short_labels, "wb") as f:
            f.write(struct.pack(">II", 0x00000801, 3))
            f.write(labels[:3].tobytes())
        with pytest.raises(IdxCountMismatchError):
            load_mnist_idx(images_path, short_labels)


class TestPixelSets:
    def test_corner_coordinates(self):
        img = np.zeros((28, 28), dtype=np.uint8)
        ps = image_to_pixel_set(img)
        # row-major: first row walks columns at y = -1
        np.testing.assert_allclose(ps.elements[0, :2], [-1.0, -1.0])
        np.testing.assert_allclose(ps.elements[27, :2], [1.0, -1.0])
        np.testing.assert_allclose(ps.elements[-1, :2], [1.0, 1.0])

    def test_all_zero_image(self):
        ps = image_to_pixel_set(np.zeros((28, 28), dtype=np.uint8))
        assert ps.elements.shape == (784, 3)
        np.testing.assert_array_equal(ps.elements[:, 2], 0.0)
        xs = np.unique(ps.elements[:, 0])
        assert xs[0] == -1.0 and xs[-1] == 1.0

    def test_channel_ranges(self):
        gen = RngState(1).generator()
        img = gen.integers(0, 256, size=(14, 14), dtype=np.uint8)
        ps = image_to_pixel_set(img, rng=RngState(2))
        assert np.all(ps.elements[:, :2] >= -1.0) and np.all(ps.elements[:, :2] <= 1.0)
        assert np.all(ps.elements[:, 2] >= 0.0) and np.all(ps.elements[:, 2] <= 1.0)

    def test_lossless_up_to_ordering(self):
        gen = RngState(3).generator()
        img = gen.integers(0, 256, size=(28, 28), dtype=np.uint8)
        ps = image_to_pixel_set(img, rng=RngState(4))  # shuffled
        np.testing.assert_array_equal(pixel_set_to_image(ps), img)

    def test_shuffle_is_seeded(self):
        img = RngState(5).generator().integers(0, 256, size=(8, 8), dtype=np.uint8)
        a = image_to_pixel_set(img, rng=RngState(6)).elements
        b = image_to_pixel_set(img, rng=RngState(6)).elements
        np.testing.assert_array_equal(a, b)

    def test_downsample_mean_pool(self):
        img = np.arange(16.0).reshape(4, 4)
        out = downsample_image(img, 2)
        np.testing.assert_allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_batch_digest_stable(self, tmp_path):
        gen = RngState(7).generator()
        images = gen.integers(0, 256, size=(3, 8, 8), dtype=np.uint8)
        labels = np.array([0, 1, 2], dtype=np.uint8)
        a = pixel_set_batch(images, labels, RngState(8))
        b = pixel_set_batch(images.copy(), labels.copy(), RngState(8))
        assert a.digest == b.digest
        np.testing.assert_array_equal(a.sets, b.sets)


class TestSyntheticTask:
    def test_quadrant_of_all_four(self):
        assert quadrant_of([0.5, 0.5]) == 0
        assert quadrant_of([-0.5, 0.5]) == 1
        assert quadrant_of([-0.5, -0.5]) == 2
        assert quadrant_of([0.5, -0.5]) == 3

    def test_all_points_one_quadrant(self):
        points = np.array([[-0.3, 0.7], [-0.9, 0.1], [-0.5, 0.5]])
        assert quadrant_majority_label(points) == 1

    def test_labels_permutation_invariant(self):
        train, _ = make_synthetic_task(SyntheticTaskSpec(train_size=50, test_size=10, seed=1))
        gen = RngState(9).generator()
        for i in range(train.size):
            perm = gen.permutation(train.set_size)
            assert quadrant_majority_label(train.sets[i][perm]) == train.labels[i]

    def test_same_seed_identical(self):
        a_train, a_test = make_synthetic_task(SyntheticTaskSpec(train_size=20, test_size=5, seed=2))
        b_train, b_test = make_synthetic_task(SyntheticTaskSpec(train_size=20, test_size=5, seed=2))
        np.testing.assert_array_equal(a_train.sets, b_train.sets)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)
        assert a_train.digest == b_train.digest

    def test_margin_respected(self):
        train, _ = make_synthetic_task(SyntheticTaskSpec(train_size=30, test_size=5, seed=3))
        assert np.min(np.abs(train.sets)) >= 0.15


class TestAugment:
    def _batch(self, p=2, n=10, b=4, seed=10):
        gen = RngState(seed).generator()
        return SetBatch(
            sets=gen.uniform(-1, 1, size=(b, n, p)),
            labels=gen.integers(0, 4, size=b),
        )

    def test_zero_drop_is_identity(self):
        batch = self._batch()
        out = augment(batch, [("random_drop", {"q": 0.0})], RngState(11))
        np.testing.assert_array_equal(out.sets, batch.sets)

    def test_unit_scale_is_identity(self):
        batch = self._batch()
        out = augment(batch, [("random_scale", {"low": 1.0, "high": 1.0})], RngState(12))
        np.testing.assert_allclose(out.sets, batch.sets, rtol=0, atol=1e-15)

    def test_forced_rotation_oracle(self):
        batch = SetBatch(sets=np.array([[[1.0, 0.0, 0.0]]]), labels=np.array([0]))
        out = augment(
            batch, [("random_rotation", {"angle": np.pi / 2})], RngState(13)
        )
        np.testing.assert_allclose(out.sets[0, 0], [0.0, 0.0, -1.0], rtol=0, atol=1e-12)

    def test_rotation_needs_three_coords(self):
        with pytest.raises(ValueError, match="3 coordinate"):
            augment(self._batch(p=2), ["random_rotation"], RngState(14))

    def test_drop_keeps_set_size_and_notes_duplication(self):
        batch = self._batch(n=50)
        out = augment(batch, [("random_drop", {"q": 0.5})], RngState(15))
        assert out.sets.shape == batch.sets.shape
        assert out.meta.get("duplicated_elements", 0) > 0
        # surviving rows all come from the original set
        for i in range(batch.size):
            orig = {tuple(r) for r in batch.sets[i]}
            assert all(tuple(r) in orig for r in out.sets[i])

    def test_label_preserving_ops_on_quadrant_task(self):
        train, _ = make_synthetic_task(SyntheticTaskSpec(train_size=40, test_size=5, seed=4))
        out = augment(
            train,
            ["random_scale", "random_shift", "gaussian_noise"],
            RngState(16),
        )
        for i in range(out.size):
            assert quadrant_majority_label(out.sets[i]) == out.labels[i]

    def test_unknown_op(self):
        with pytest.raises(ValueError, match="unknown augmentation"):
            augment(self._batch(), ["mixup"], RngState(17))


class TestSetBatch:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="B, N, p"):
            SetBatch(sets=np.zeros((3, 4)), labels=np.zeros(3))

    def test_label_count_validation(self):
        with pytest.raises(ValueError, match="labels"):
            SetBatch(sets=np.zeros((3, 4, 2)), labels=np.zeros(2))

    def test_export_to_text_tensor_round_trip(self, tmp_path):
        from pinset.textio import read_tensor, write_tensor

        train, _ = make_synthetic_task(SyntheticTaskSpec(train_size=6, test_size=2, seed=8))
        write_tensor(tmp_path / "sets.txt", train.sets)
        write_tensor(tmp_path / "labels.txt", train.labels)
        np.testing.assert_array_equal(read_tensor(tmp_path / "sets.txt"), train.sets)
        np.testing.assert_array_equal(
            read_tensor(tmp_path / "labels.txt").astype(np.int64), train.labels
        )
