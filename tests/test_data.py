import struct

import numpy as np
import pytest

from pinset.data import (
    IdxCountMismatchError,
    IdxFormatError,
    IdxTruncatedError,
    SetBatch,
    SyntheticTaskSpec,
    load_mnist_idx,
    make_synthetic_task,
    pixel_set_batch,
    pixel_set_to_image,
    quadrant_majority_label,
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


def _one_set(img, rng=None, downsample=1) -> np.ndarray:
    """The pixel set of one image, through the batch path."""
    return pixel_set_batch(np.asarray(img)[None], np.zeros(1), rng, downsample).sets[0]


def _reference_pixel_sets(images, rng, downsample) -> np.ndarray:
    """Image by image: mean pool, a meshgrid of its own, then the image's
    own shuffle stream."""
    sets = []
    for i, img in enumerate(images):
        arr = np.asarray(img, dtype=np.float64)
        if downsample > 1:
            h, w = arr.shape
            arr = arr.reshape(h // downsample, downsample, w // downsample, downsample).mean(axis=(1, 3))
        side = arr.shape[0]
        coords = (2.0 * np.arange(side) / (side - 1) - 1.0) if side > 1 else np.zeros(1)
        xs, ys = np.meshgrid(coords, coords, indexing="xy")
        elements = np.column_stack([xs.reshape(-1), ys.reshape(-1), arr.reshape(-1) / 255.0])
        if rng is not None:
            elements = elements[rng.child("shuffle", i).generator().permutation(elements.shape[0])]
        sets.append(elements)
    return np.stack(sets)


class TestPixelSets:
    def test_corner_coordinates(self):
        elements = _one_set(np.zeros((28, 28), dtype=np.uint8))
        # row-major: first row walks columns at y = -1
        np.testing.assert_allclose(elements[0, :2], [-1.0, -1.0])
        np.testing.assert_allclose(elements[27, :2], [1.0, -1.0])
        np.testing.assert_allclose(elements[-1, :2], [1.0, 1.0])

    def test_all_zero_image(self):
        elements = _one_set(np.zeros((28, 28), dtype=np.uint8))
        assert elements.shape == (784, 3)
        np.testing.assert_array_equal(elements[:, 2], 0.0)
        xs = np.unique(elements[:, 0])
        assert xs[0] == -1.0 and xs[-1] == 1.0

    def test_channel_ranges(self):
        gen = RngState(1).generator()
        img = gen.integers(0, 256, size=(14, 14), dtype=np.uint8)
        elements = _one_set(img, rng=RngState(2))
        assert np.all(elements[:, :2] >= -1.0) and np.all(elements[:, :2] <= 1.0)
        assert np.all(elements[:, 2] >= 0.0) and np.all(elements[:, 2] <= 1.0)

    def test_lossless_up_to_ordering(self):
        gen = RngState(3).generator()
        img = gen.integers(0, 256, size=(28, 28), dtype=np.uint8)
        elements = _one_set(img, rng=RngState(4))  # shuffled
        np.testing.assert_array_equal(pixel_set_to_image(elements), img)

    def test_shuffle_is_seeded(self):
        img = RngState(5).generator().integers(0, 256, size=(8, 8), dtype=np.uint8)
        a = _one_set(img, rng=RngState(6))
        b = _one_set(img, rng=RngState(6))
        np.testing.assert_array_equal(a, b)

    def test_downsample_mean_pool(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        elements = _one_set(img, downsample=2)
        np.testing.assert_array_equal(elements[:, 2], np.array([2.5, 4.5, 10.5, 12.5]) / 255.0)
        np.testing.assert_array_equal(elements[:, :2], [[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])

    def test_batch_stable(self):
        gen = RngState(7).generator()
        images = gen.integers(0, 256, size=(3, 8, 8), dtype=np.uint8)
        labels = np.array([0, 1, 2], dtype=np.uint8)
        a = pixel_set_batch(images, labels, RngState(8))
        b = pixel_set_batch(images.copy(), labels.copy(), RngState(8))
        np.testing.assert_array_equal(a.sets, b.sets)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("downsample", [1, 2, 4])
    def test_batch_matches_per_image_reference(self, downsample, shuffled):
        gen = RngState(9).generator()
        images = gen.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        labels = gen.integers(0, 10, size=5).astype(np.uint8)
        rng = RngState(10).child("pixels") if shuffled else None
        batch = pixel_set_batch(images, labels, rng, downsample=downsample)
        expected = _reference_pixel_sets(images, rng, downsample)
        assert batch.sets.shape == expected.shape and batch.sets.dtype == expected.dtype
        assert batch.sets.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(batch.labels, labels)


def _reference_quadrant_counts(points) -> list[list[int]]:
    """Point by point, per set of the last two axes: a zero coordinate
    (-0.0 too) counts as +."""
    out = []
    for pts in points.reshape(-1, *points.shape[-2:]):
        counts = [0, 0, 0, 0]
        for x, y in pts:
            if x >= 0:
                counts[0 if y >= 0 else 3] += 1
            else:
                counts[1 if y >= 0 else 2] += 1
        out.append(counts)
    return out


def _reference_quadrant_labels(points) -> np.ndarray:
    """Ties go to the first quadrant with the top count."""
    labels = [c.index(max(c)) for c in _reference_quadrant_counts(points)]
    return np.array(labels).reshape(points.shape[:-2])


class TestSyntheticTask:
    def test_quadrant_of_all_four(self):
        points = np.array([[[0.5, 0.5]], [[-0.5, 0.5]], [[-0.5, -0.5]], [[0.5, -0.5]]])
        np.testing.assert_array_equal(quadrant_majority_label(points), [0, 1, 2, 3])

    def test_all_points_one_quadrant(self):
        points = np.array([[-0.3, 0.7], [-0.9, 0.1], [-0.5, 0.5]])
        assert quadrant_majority_label(points) == 1

    def test_labels_match_per_point_reference(self):
        # coordinates from {-1, -0.0, +0.0, 1} and 4 points per set: signed
        # zeros and tied counts are common
        gen = RngState(11).generator()
        points = gen.choice([-1.0, -0.0, 0.0, 1.0], size=(3, 400, 4, 2))
        assert np.count_nonzero(np.signbit(points) & (points == 0)) > 100
        tied = sum(sorted(c)[-1] == sorted(c)[-2] for c in _reference_quadrant_counts(points))
        assert tied > 100
        labels = quadrant_majority_label(points)
        assert labels.shape == (3, 400)
        np.testing.assert_array_equal(labels, _reference_quadrant_labels(points))

    def test_task_labels_match_per_point_reference(self):
        spec = SyntheticTaskSpec(train_size=2560, test_size=64, seed=12, margin=0.0)
        train, test = make_synthetic_task(spec)
        for batch in (train, test):
            assert batch.labels.dtype == np.int64
            np.testing.assert_array_equal(batch.labels, _reference_quadrant_labels(batch.sets))

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

    def test_margin_respected(self):
        train, _ = make_synthetic_task(SyntheticTaskSpec(train_size=30, test_size=5, seed=3))
        assert np.min(np.abs(train.sets)) >= 0.15


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
