"""Text tensor files.

Format: a header line ``tensor v1 <rank> <extents...>`` followed by the
values in row-major order, whitespace separated. Floats are written with
shortest round-trip precision so write -> read preserves values exactly.
"""

from __future__ import annotations

import math

import numpy as np


class TextTensorError(ValueError):
    pass


def format_tensor(arr) -> str:
    arr = np.asarray(arr, dtype=np.float64)
    header = f"tensor v1 {arr.ndim} " + " ".join(str(e) for e in arr.shape)
    values = " ".join(map(repr, arr.reshape(-1).tolist()))
    return header.strip() + "\n" + values + "\n"


def parse_tensor(text: str) -> np.ndarray:
    lines = text.strip().splitlines()
    if not lines:
        raise TextTensorError("empty tensor file")
    header = lines[0].split()
    if len(header) < 3 or header[0] != "tensor" or header[1] != "v1":
        raise TextTensorError(f"bad header {lines[0]!r}")
    try:
        rank = int(header[2])
        extents = [int(e) for e in header[3:]]
    except ValueError as exc:
        raise TextTensorError(f"bad header {lines[0]!r}") from exc
    if len(extents) != rank:
        raise TextTensorError(
            f"header declares rank {rank} but lists {len(extents)} extents"
        )
    if any(e < 0 for e in extents):
        raise TextTensorError(f"negative extent in header {lines[0]!r}")
    tokens = " ".join(lines[1:]).split()
    expected = math.prod(extents)
    if len(tokens) != expected:
        raise TextTensorError(
            f"expected {expected} values for extents {extents}, got {len(tokens)}"
        )
    try:
        values = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise TextTensorError(f"non-numeric value in tensor body: {exc}") from exc
    return values.reshape(extents)


def write_tensor(path, arr) -> None:
    with open(path, "w") as f:
        f.write(format_tensor(arr))


def read_tensor(path) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as exc:
            raise TextTensorError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_tensor(text)
