"""Dataset ingestion and set construction.

Grayscale digit images in the IDX binary format become pixel sets (one
row per pixel: relative x, relative y, gray value); a synthetic
quadrant-majority generator provides a fast permutation-invariant task
for property tests and desk-scale training. Both build a whole batch at
once.
"""

from __future__ import annotations

import math
import os
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
    # a declared size is checked against the file before it is read: a
    # header can declare more than any read or allocation can take
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise IdxTruncatedError(f"{path}: expected {n} more bytes for {what}, got {left}")
    data = f.read(n)
    if len(data) != n:
        raise IdxTruncatedError(
            f"{path}: expected {n} more bytes for {what}, got {len(data)}"
        )
    return data


def _read_u32(f, what: str, path) -> int:
    return struct.unpack(">I", _read_exact(f, 4, what, path))[0]


# each IDX file kind: its magic, and the names of its magic, of its
# header's u32 extents and of its uint8 payload
_IMAGE_FILE = (IMAGE_MAGIC, "image magic", ("image count", "row count", "column count"), "pixel data")
_LABEL_FILE = (LABEL_MAGIC, "label magic", ("label count",), "label data")


def _read_idx(path, magic: int, magic_name: str, extents: tuple[str, ...], payload: str) -> np.ndarray:
    """One IDX file's uint8 payload, shaped by its header's extents, after
    a check of its magic."""
    with open(path, "rb") as f:
        found = _read_u32(f, magic_name, path)
        if found != magic:
            raise IdxFormatError(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
        shape = [_read_u32(f, name, path) for name in extents]
        return np.frombuffer(_read_exact(f, math.prod(shape), payload, path), dtype=np.uint8).reshape(shape)


def load_mnist_idx(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Parse big-endian IDX image/label files into uint8 arrays.

    Validates magic numbers, declared sizes against actual payload, and
    that both files carry the same number of items.
    """
    images = _read_idx(images_path, *_IMAGE_FILE)
    labels = _read_idx(labels_path, *_LABEL_FILE)
    if len(images) != len(labels):
        raise IdxCountMismatchError(
            f"{len(images)} images in {images_path} but {len(labels)} labels in {labels_path}"
        )
    return images, labels


def _write_idx(path, array, magic: int, magic_name: str, extents: tuple[str, ...], payload: str) -> None:
    array = np.asarray(array, dtype=np.uint8)
    if array.ndim != len(extents):
        raise ValueError(f"{payload} needs {len(extents)} axes ({', '.join(extents)}), got shape {array.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        f.write(array.tobytes())


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write uint8 images/labels back out in IDX format (fixtures, exports)."""
    _write_idx(images_path, images, *_IMAGE_FILE)
    _write_idx(labels_path, labels, *_LABEL_FILE)


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
        raise ConfigError(f"data.downsample must be a positive divisor of the image sides {(h, w)}, got {downsample}")
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
            raise ConfigError(f"data.set_size must be >= 2, got {self.set_size}")
        if not 0.0 <= self.margin <= 1.0:
            raise ConfigError(f"data.margin must be in [0, 1], got {self.margin}")


def quadrant_majority_label(points: np.ndarray) -> np.ndarray:
    """Majority quadrant of each set of 2-D points, ``(..., N, 2)`` to
    ``(...)``: 0 (+,+), 1 (-,+), 2 (-,-), 3 (+,-), a zero coordinate
    (-0.0 too) counting as +; ties go to the lowest quadrant index."""
    right = points[..., 0] >= 0
    up = points[..., 1] >= 0
    quadrants = np.where(right, np.where(up, 0, 3), np.where(up, 1, 2))
    counts = (quadrants[..., None] == np.arange(4)).sum(axis=-2)
    return counts.argmax(axis=-1)


# the sign pattern of each quadrant's points, in label order
_SIGNS = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=np.float64)


def _target_cdf(target: int) -> np.ndarray:
    # the target quadrant draws with probability 0.55, each other one 0.15;
    # normalised exactly as Generator.choice normalises its p
    probs = np.full(4, 0.15)
    probs[target] = 0.55
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


_CDFS = tuple(_target_cdf(target) for target in range(4))


def _quadrant_set(gen: np.random.Generator, n: int, margin: float) -> np.ndarray:
    """One set of ``n`` points whose target quadrant leads the runner-up by
    at least 2, so that no single point decides the label.

    Each attempt draws ``integers(4)`` for the target, then ``random(n)``
    mapped to quadrants through the target's CDF (inverse transform); an
    accepted attempt then draws ``uniform(margin, 1, (n, 2))`` for the
    magnitudes. That is the draw ``gen.choice(4, size=n, p=probs)`` made,
    bit for bit and with the same generator state after it, so no set or
    digest moved; written out, it skips choice's checks of a ``p`` that never
    changes (choice took about 16 µs per 32-point set, the lookup itself
    2.5 µs) and no longer depends on how numpy implements ``choice``.
    """
    while True:
        target = int(gen.integers(4))
        quadrants = _CDFS[target].searchsorted(gen.random(n), side="right")
        counts = np.bincount(quadrants, minlength=4).tolist()
        *_, second, first = sorted(counts)
        if counts[target] != first or first - second < 2:
            continue
        magnitudes = gen.uniform(margin, 1.0, size=(n, 2))
        return magnitudes * _SIGNS[quadrants]


def _quadrant_batch(rng: RngState, spec: SyntheticTaskSpec, count: int) -> SetBatch:
    gen = rng.generator()
    sets = np.empty((count, spec.set_size, 2))
    # set by set, not one batched draw: PCG64 keeps the spare 32-bit half of
    # each integers(4) draw for the next one, so a batch would move the data
    for i in range(count):
        sets[i] = _quadrant_set(gen, spec.set_size, spec.margin)
    return SetBatch(sets=sets, labels=quadrant_majority_label(sets))


def make_synthetic_task(spec: SyntheticTaskSpec) -> tuple[SetBatch, SetBatch]:
    """Deterministic train/test batches with permutation-invariant labels.

    Each split draws its sets one by one from its own child stream
    (``train``, ``test``); :func:`_quadrant_set` says which draws a set
    consumes. They are the draws the former ``Generator.choice`` loop made,
    so every set, label and digest kept its bits. Written out, the draw
    cuts set-up: the 2,048 + 512 sets of the ``quadrant`` benchmark took
    27–38 ms against 67–100 ms through ``choice`` (one Xeon core, 1 BLAS
    thread), and its ``setup_s`` fell from 0.243 to 0.210 s (medians of 12
    alternating pairs)."""
    root = RngState(spec.seed)
    train = _quadrant_batch(root.child("train"), spec, spec.train_size)
    test = _quadrant_batch(root.child("test"), spec, spec.test_size)
    return train, test
