"""Reproducible random streams.

Every randomized routine in the package draws from a generator derived
from an :class:`RngState`, so a single 64-bit seed pins the whole run.
Streams are derived by path, not by sharing generator objects, which keeps
concurrent consumers independent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        if tag < 0:
            raise ValueError(f"rng path tags must be non-negative, got {tag}")
        return int(tag)
    if isinstance(tag, str):
        # stable across platforms and interpreter runs, unlike hash()
        return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")
    raise TypeError(f"rng path tag must be int or str, got {type(tag).__name__}")


@dataclass(frozen=True)
class RngState:
    """Seed plus derivation path identifying one deterministic stream."""

    seed: int
    path: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must fit in u64, got {self.seed}")

    def child(self, *tags) -> "RngState":
        """Derive an independent stream; tags may be ints or strings."""
        return RngState(self.seed, self.path + tuple(_tag_to_int(t) for t in tags))

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this state's stream."""
        seq = np.random.SeedSequence(entropy=int(self.seed), spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))
