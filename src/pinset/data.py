"""Dataset ingestion and set construction.

Grayscale digit images in the IDX binary format become pixel sets (one
row per pixel: relative x, relative y, gray value); a synthetic
quadrant-majority generator provides a fast permutation-invariant task
for property tests and desk-scale training; the usual point-set
augmentations operate on coordinate channels.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .rng import RngState

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """File does not start with the expected IDX magic."""


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


@dataclass
class PixelSet:
    """One image as an unordered set of (rel-x, rel-y, gray) rows."""

    elements: np.ndarray  # (N, 3)
    label: int = -1


def image_to_pixel_set(img, rng: RngState | None = None, label: int = -1) -> PixelSet:
    """Convert a square grayscale image to a pixel set.

    Coordinates map linearly with corner pixels at exactly -1 and +1
    (column index is the first channel, row index the second, top-left at
    (-1, -1)); gray values are divided by 255. Rows are shuffled when an
    rng is supplied.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square image, got shape {arr.shape}")
    w = arr.shape[0]
    coords = (2.0 * np.arange(w) / (w - 1) - 1.0) if w > 1 else np.zeros(1)
    xs, ys = np.meshgrid(coords, coords, indexing="xy")
    elements = np.column_stack(
        [xs.reshape(-1), ys.reshape(-1), arr.reshape(-1) / 255.0]
    )
    if rng is not None:
        order = rng.generator().permutation(elements.shape[0])
        elements = elements[order]
    return PixelSet(elements=elements, label=int(label))


def pixel_set_to_image(ps: PixelSet) -> np.ndarray:
    """Invert the pixel-set mapping; exact for byte-valued inputs."""
    n = ps.elements.shape[0]
    w = int(round(np.sqrt(n)))
    if w * w != n:
        raise ValueError(f"{n} elements do not form a square image")
    img = np.zeros((w, w))
    cols = np.rint((ps.elements[:, 0] + 1.0) * (w - 1) / 2.0).astype(int)
    rows = np.rint((ps.elements[:, 1] + 1.0) * (w - 1) / 2.0).astype(int)
    img[rows, cols] = np.rint(ps.elements[:, 2] * 255.0)
    return img


def downsample_image(img, factor: int) -> np.ndarray:
    """Mean-pool an image by an integer factor; output stays on the 0..255
    scale (no longer integral)."""
    arr = np.asarray(img, dtype=np.float64)
    h, w = arr.shape
    if h % factor or w % factor:
        raise ValueError(f"shape {arr.shape} not divisible by factor {factor}")
    return arr.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


@dataclass
class SetBatch:
    """A stack of equally-sized sets with labels and provenance."""

    sets: np.ndarray  # (B, N, p)
    labels: np.ndarray  # (B,)
    digest: str = ""
    meta: dict = field(default_factory=dict)

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


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def pixel_set_batch(
    images: np.ndarray,
    labels: np.ndarray,
    rng: RngState | None = None,
    downsample: int = 1,
) -> SetBatch:
    """Convert a stack of images to a batch of pixel sets, each image
    first mean-pooled by ``downsample``, which must divide its sides."""
    sides = images.shape[1:]
    if downsample < 1 or sides[0] % downsample or sides[1] % downsample:
        raise ConfigError(
            f"data.downsample must be a positive divisor of the image sides {sides}, got {downsample}",
            key="data.downsample",
        )
    sets = []
    for i in range(images.shape[0]):
        img = images[i]
        if downsample > 1:
            img = downsample_image(img, downsample)
        ps = image_to_pixel_set(img, rng.child("shuffle", i) if rng else None)
        sets.append(ps.elements)
    digest = _digest(
        np.ascontiguousarray(images).tobytes(),
        np.ascontiguousarray(labels).tobytes(),
        f"downsample={downsample}",
    )
    return SetBatch(
        sets=np.stack(sets),
        labels=labels,
        digest=digest,
        meta={"downsample": downsample, "shuffled": rng is not None},
    )


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


def quadrant_of(point) -> int:
    """Quadrant index of a 2-D point: 0 (+,+), 1 (-,+), 2 (-,-), 3 (+,-)."""
    x, y = point[0], point[1]
    if x >= 0:
        return 0 if y >= 0 else 3
    return 1 if y >= 0 else 2


def quadrant_majority_label(points: np.ndarray) -> int:
    counts = np.zeros(4, dtype=int)
    for p in points:
        counts[quadrant_of(p)] += 1
    return int(np.argmax(counts))


def _quadrant_set(gen: np.random.Generator, n: int, margin: float) -> tuple[np.ndarray, int]:
    signs = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=np.float64)
    while True:
        target = int(gen.integers(4))
        probs = np.full(4, 0.15)
        probs[target] = 0.55
        quadrants = gen.choice(4, size=n, p=probs)
        counts = np.bincount(quadrants, minlength=4)
        ranked = np.sort(counts)
        # require a clear winner with margin 2 so coordinate-preserving
        # augmentations cannot flip the label
        if counts[target] != ranked[-1] or ranked[-1] - ranked[-2] < 2:
            continue
        magnitudes = gen.uniform(margin, 1.0, size=(n, 2))
        points = magnitudes * signs[quadrants]
        return points, quadrant_majority_label(points)


def _quadrant_batch(rng: RngState, spec: SyntheticTaskSpec, count: int) -> SetBatch:
    gen = rng.generator()
    sets = np.empty((count, spec.set_size, 2))
    labels = np.empty(count, dtype=np.int64)
    for i in range(count):
        sets[i], labels[i] = _quadrant_set(gen, spec.set_size, spec.margin)
    digest = _digest(sets.tobytes(), labels.tobytes())
    return SetBatch(sets=sets, labels=labels, digest=digest, meta={"generator": "quadrant-majority"})


def make_synthetic_task(spec: SyntheticTaskSpec) -> tuple[SetBatch, SetBatch]:
    """Deterministic train/test batches with permutation-invariant labels."""
    root = RngState(spec.seed)
    train = _quadrant_batch(root.child("train"), spec, spec.train_size)
    test = _quadrant_batch(root.child("test"), spec, spec.test_size)
    return train, test


# ---------------------------------------------------------------------------
# augmentation

AUGMENT_DEFAULTS = {
    "random_drop": {"q": 0.1},
    "random_scale": {"low": 0.8, "high": 1.25},
    "random_shift": {"limit": 0.1},
    "gaussian_noise": {"sigma": 0.01},
    "random_rotation": {"angle": None},  # None draws uniformly in [0, 2pi)
}


def _rotation_about_vertical(angle: float) -> np.ndarray:
    # vertical axis is the second coordinate; (1, 0, 0) at pi/2 -> (0, 0, -1)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def augment(batch: SetBatch, ops, rng: RngState, coord_dims=None) -> SetBatch:
    """Apply named augmentations per set; labels pass through unchanged.

    ``ops`` is a list of op names or (name, params) pairs. ``coord_dims``
    selects which channels count as coordinates (default: all).
    Dropped elements are replaced by duplicating survivors so the batch
    keeps a uniform set size; the duplication is recorded in the metadata.
    """
    sets = batch.sets.copy()
    b, n, p = sets.shape
    coords = list(range(p)) if coord_dims is None else list(coord_dims)
    gen = rng.generator()
    duplicated = 0

    for op in ops:
        name, params = (op, {}) if isinstance(op, str) else op
        if name not in AUGMENT_DEFAULTS:
            raise ValueError(f"unknown augmentation {name!r}")
        cfg = {**AUGMENT_DEFAULTS[name], **params}
        if name == "random_drop":
            q = float(cfg["q"])
            if not 0.0 <= q < 1.0:
                raise ValueError(f"drop probability must be in [0, 1), got {q}")
            if q == 0.0:
                continue
            for i in range(b):
                keep = np.nonzero(gen.random(n) >= q)[0]
                if keep.size == 0:
                    keep = np.array([int(gen.integers(n))])
                fill = gen.choice(keep, size=n - keep.size)
                duplicated += n - keep.size
                sets[i] = sets[i][np.concatenate([keep, fill])]
        elif name == "random_scale":
            low, high = float(cfg["low"]), float(cfg["high"])
            factors = gen.uniform(low, high, size=b)
            sets[:, :, coords] *= factors[:, None, None]
        elif name == "random_shift":
            limit = float(cfg["limit"])
            offsets = gen.uniform(-limit, limit, size=(b, len(coords)))
            sets[:, :, coords] += offsets[:, None, :]
        elif name == "gaussian_noise":
            sigma = float(cfg["sigma"])
            sets[:, :, coords] += gen.normal(0.0, sigma, size=(b, n, len(coords)))
        elif name == "random_rotation":
            if len(coords) != 3:
                raise ValueError(
                    f"rotation needs 3 coordinate channels, got {len(coords)}"
                )
            for i in range(b):
                angle = cfg["angle"]
                if angle is None:
                    angle = gen.uniform(0.0, 2.0 * np.pi)
                rot = _rotation_about_vertical(float(angle))
                sets[i][:, coords] = sets[i][:, coords] @ rot.T
    meta = dict(batch.meta)
    meta["augmented"] = [op if isinstance(op, str) else op[0] for op in ops]
    if duplicated:
        meta["duplicated_elements"] = duplicated
    return SetBatch(sets=sets, labels=batch.labels.copy(), digest=batch.digest, meta=meta)
