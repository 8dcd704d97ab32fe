"""Dataset ingestion and set construction.

Grayscale digit images in the IDX binary format become pixel sets (one
row per pixel: relative x, relative y, gray value); a synthetic
quadrant-majority generator provides a fast permutation-invariant task
for property tests and desk-scale training. Both build a whole batch at
once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .rng import RngState

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """File does not start with the expected IDX magic, or its images are
    not square with a nonzero side."""


class IdxTruncatedError(ValueError):
    """File ends before the declared payload."""


class IdxCountMismatchError(ValueError):
    """Image and label files disagree on the item count."""


def _read_exact(f, n: int, what: str, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxTruncatedError(
            f"{path}: expected {n} more bytes for {what}, got {len(data)}"
        )
    return data


def _read_u32(f, what: str, path) -> int:
    return struct.unpack(">I", _read_exact(f, 4, what, path))[0]


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse big-endian IDX image/label files into uint8 arrays.

    Validates magic numbers, declared sizes against actual payload, and
    that both files carry the same number of items.
    """
    with open(images_path, "rb") as f:
        magic = _read_u32(f, "image magic", images_path)
        if magic != IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
            )
        count = _read_u32(f, "image count", images_path)
        rows = _read_u32(f, "row count", images_path)
        cols = _read_u32(f, "column count", images_path)
        payload = _read_exact(f, count * rows * cols, "pixel data", images_path)
        images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as f:
        magic = _read_u32(f, "label magic", labels_path)
        if magic != LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
            )
        label_count = _read_u32(f, "label count", labels_path)
        labels = np.frombuffer(
            _read_exact(f, label_count, "label data", labels_path), dtype=np.uint8
        )

    if count != label_count:
        raise IdxCountMismatchError(
            f"{count} images in {images_path} but {label_count} labels in {labels_path}"
        )
    return images, labels


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write uint8 images/labels back out in IDX format (fixtures, exports)."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, count, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def pixel_set_to_image(elements: np.ndarray) -> np.ndarray:
    """Invert the pixel-set mapping of one ``(N, 3)`` set; exact for
    byte-valued inputs."""
    n = elements.shape[0]
    w = int(round(np.sqrt(n)))
    if w * w != n:
        raise ValueError(f"{n} elements do not form a square image")
    img = np.zeros((w, w))
    cols = np.rint((elements[:, 0] + 1.0) * (w - 1) / 2.0).astype(int)
    rows = np.rint((elements[:, 1] + 1.0) * (w - 1) / 2.0).astype(int)
    img[rows, cols] = np.rint(elements[:, 2] * 255.0)
    return img


@dataclass
class SetBatch:
    """A stack of equally-sized sets with their labels."""

    sets: np.ndarray  # (B, N, p)
    labels: np.ndarray  # (B,)

    def __post_init__(self):
        self.sets = np.asarray(self.sets, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.sets.ndim != 3:
            raise ValueError(f"sets must be (B, N, p), got shape {self.sets.shape}")
        if self.labels.shape != (self.sets.shape[0],):
            raise ValueError(
                f"{self.sets.shape[0]} sets but {self.labels.shape} labels"
            )

    @property
    def size(self) -> int:
        return self.sets.shape[0]

    @property
    def set_size(self) -> int:
        return self.sets.shape[1]


def pixel_set_batch(
    images: np.ndarray,
    labels: np.ndarray,
    rng: RngState | None = None,
    downsample: int = 1,
) -> SetBatch:
    """Convert a ``(B, h, w)`` stack of square images to a batch of pixel
    sets, each image first mean-pooled by ``downsample``, which must divide
    its sides.

    Coordinates map linearly with corner pixels at exactly -1 and +1
    (column index is the first channel, row index the second, top-left at
    (-1, -1)); gray values are divided by 255. With an rng, the rows of set
    i are permuted by a draw from ``rng.child("shuffle", i)``.
    """
    count, h, w = images.shape
    if h != w or h == 0:
        raise IdxFormatError(f"pixel sets need square images with a nonzero side, got {h}x{w}")
    if downsample < 1 or h % downsample:
        raise ConfigError(
            f"data.downsample must be a positive divisor of the image sides {(h, w)}, got {downsample}",
            key="data.downsample",
        )
    side = h // downsample
    gray = images.astype(np.float64)
    if downsample > 1:
        gray = gray.reshape(count, side, downsample, side, downsample).mean(axis=(2, 4))
    coords = (2.0 * np.arange(side) / (side - 1) - 1.0) if side > 1 else np.zeros(1)
    xs, ys = np.meshgrid(coords, coords, indexing="xy")
    n = side * side
    sets = np.empty((count, n, 3))
    sets[:, :, 0] = xs.reshape(-1)
    sets[:, :, 1] = ys.reshape(-1)
    sets[:, :, 2] = gray.reshape(count, n) / 255.0
    if rng is not None:
        orders = [rng.child("shuffle", i).generator().permutation(n) for i in range(count)]
        sets = np.take_along_axis(sets, np.array(orders, dtype=np.intp).reshape(count, n, 1), axis=1)
    return SetBatch(sets=sets, labels=labels)


# ---------------------------------------------------------------------------
# synthetic task


@dataclass
class SyntheticTaskSpec:
    """Sizes, seed and margin of the quadrant-majority task: 2-D points,
    4 classes."""

    set_size: int = 32
    train_size: int = 2000
    test_size: int = 500
    seed: int = 0
    margin: float = 0.15

    def __post_init__(self):
        # fewer than 2 elements never give a majority with a lead of 2, so
        # _quadrant_set would redraw forever
        if self.set_size < 2:
            raise ConfigError(f"data.set_size must be >= 2, got {self.set_size}", key="data.set_size")
        if not 0.0 <= self.margin <= 1.0:
            raise ConfigError(f"data.margin must be in [0, 1], got {self.margin}", key="data.margin")


def quadrant_majority_label(points: np.ndarray) -> np.ndarray:
    """Majority quadrant of each set of 2-D points, ``(..., N, 2)`` to
    ``(...)``: 0 (+,+), 1 (-,+), 2 (-,-), 3 (+,-), a zero coordinate
    (-0.0 too) counting as +; ties go to the lowest quadrant index."""
    right = points[..., 0] >= 0
    up = points[..., 1] >= 0
    quadrants = np.where(right, np.where(up, 0, 3), np.where(up, 1, 2))
    counts = (quadrants[..., None] == np.arange(4)).sum(axis=-2)
    return counts.argmax(axis=-1)


def _quadrant_set(gen: np.random.Generator, n: int, margin: float) -> np.ndarray:
    signs = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=np.float64)
    while True:
        target = int(gen.integers(4))
        probs = np.full(4, 0.15)
        probs[target] = 0.55
        quadrants = gen.choice(4, size=n, p=probs)
        counts = np.bincount(quadrants, minlength=4)
        ranked = np.sort(counts)
        # require a clear winner, ahead by at least 2, so that no single
        # point decides the label
        if counts[target] != ranked[-1] or ranked[-1] - ranked[-2] < 2:
            continue
        magnitudes = gen.uniform(margin, 1.0, size=(n, 2))
        return magnitudes * signs[quadrants]


def _quadrant_batch(rng: RngState, spec: SyntheticTaskSpec, count: int) -> SetBatch:
    gen = rng.generator()
    sets = np.empty((count, spec.set_size, 2))
    for i in range(count):
        sets[i] = _quadrant_set(gen, spec.set_size, spec.margin)
    return SetBatch(sets=sets, labels=quadrant_majority_label(sets))


def make_synthetic_task(spec: SyntheticTaskSpec) -> tuple[SetBatch, SetBatch]:
    """Deterministic train/test batches with permutation-invariant labels."""
    root = RngState(spec.seed)
    train = _quadrant_batch(root.child("train"), spec, spec.train_size)
    test = _quadrant_batch(root.child("test"), spec, spec.test_size)
    return train, test
