"""Seeded random-number streams for reproducible simulations.

Each subsystem (channel fading, GPS noise, traffic jitter, failures)
draws from its own named substream so that adding randomness to one
component does not perturb another.  Substreams are derived from the
root seed and the stream name via :class:`numpy.random.SeedSequence`,
which guarantees independence.

A batched engine over R replicas draws ``(R,)`` blocks.  When its
replicas are several independently seeded blocks stacked together (the
shards of a measurement campaign), :class:`SegmentedStreams` hands it
:class:`SegmentedGenerator` draws: each block's slice comes from that
block's own registry, so stacking changes no value.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RandomStreams", "SegmentedGenerator", "SegmentedStreams"]


class RandomStreams:
    """A registry of independent, named :class:`numpy.random.Generator` streams.

    Example
    -------
    >>> streams = RandomStreams(seed=42)
    >>> fading = streams.get("fading")
    >>> gps = streams.get("gps")
    >>> fading is streams.get("fading")
    True
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._seed = 0 if seed is None else int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed used to derive every substream."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            # Derive a stable 32-bit key from the stream name so the same
            # (seed, name) pair always yields the same substream.
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(key,))
            self._streams[name] = np.random.Generator(np.random.PCG64(seq))
        return self._streams[name]

    def fork(self, salt: int) -> "RandomStreams":
        """Derive an independent registry, e.g. for a replica of a campaign."""
        return RandomStreams(seed=(self._seed * 1_000_003 + int(salt)) & 0x7FFFFFFF)

    def reset(self) -> None:
        """Drop all streams; the next :meth:`get` re-creates them fresh."""
        self._streams.clear()


class SegmentedGenerator:
    """Per-replica draws where each contiguous segment has its own generator.

    The replicas ``[0, R)`` are cut into segments of ``sizes``; segment
    ``k`` draws its slice of every draw from ``generators[k]``, in the
    order it would draw as a batch of its own.  Every generator sees
    the same calls with the same arguments as in that solo batch, so
    the stacked batch reproduces each segment's solo run bit for bit.

    ``mask=`` draws only for the selected replicas and returns one
    value per selected replica, in replica order.  A segment with none
    selected makes no call at all, as a solo batch skips an empty
    masked draw.  A single segment passes every draw straight to its
    generator.
    """

    __slots__ = ("generators", "sizes", "n_replicas", "_bounds")

    def __init__(
        self,
        generators: Sequence[np.random.Generator],
        sizes: Sequence[int],
    ) -> None:
        if not generators or len(generators) != len(sizes):
            raise ValueError("need one size per generator, and at least one")
        if any(int(size) < 1 for size in sizes):
            raise ValueError("segment sizes must be >= 1")
        self.generators = tuple(generators)
        self.sizes = tuple(int(size) for size in sizes)
        self.n_replicas = sum(self.sizes)
        ends = np.cumsum(self.sizes).tolist()
        self._bounds = tuple(zip([0] + ends[:-1], ends))

    @classmethod
    def of(cls, rng, n_replicas: int) -> "SegmentedGenerator":
        """``rng`` as draws over ``n_replicas`` replicas.

        A plain generator becomes one segment; a segmented one must
        already cover ``n_replicas``.
        """
        if isinstance(rng, SegmentedGenerator):
            if rng.n_replicas != n_replicas:
                raise ValueError(
                    f"generator covers {rng.n_replicas} replicas, "
                    f"expected {n_replicas}"
                )
            return rng
        return cls((rng,), (n_replicas,))

    def _sizes(self, mask) -> Tuple[int, ...]:
        """Per-segment draw sizes: whole segments, or their selections."""
        if mask is None:
            return self.sizes
        return tuple(
            int(np.count_nonzero(mask[start:end]))
            for start, end in self._bounds
        )

    @staticmethod
    def _join(parts: List[np.ndarray], dtype) -> np.ndarray:
        return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

    def normal(self, loc: float, scale: float) -> np.ndarray:
        """One ``normal(loc, scale)`` draw per replica."""
        if len(self.generators) == 1:
            return self.generators[0].normal(loc, scale, size=self.n_replicas)
        return np.concatenate(
            [
                rng.normal(loc, scale, size=size)
                for rng, size in zip(self.generators, self.sizes)
            ]
        )

    def random(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """One uniform ``[0, 1)`` draw per (selected) replica."""
        sizes = self._sizes(mask)
        if len(self.generators) == 1:
            return self.generators[0].random(size=sizes[0])
        return self._join(
            [
                rng.random(size=size)
                for rng, size in zip(self.generators, sizes)
                if size
            ],
            float,
        )

    def binomial(
        self, n: np.ndarray, p: np.ndarray, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """One ``binomial(n, p)`` draw per (selected) replica.

        ``n`` and ``p`` are per-replica ``(R,)`` arrays.
        """
        sizes = self._sizes(mask)
        if mask is not None:
            n, p = n[mask], p[mask]
        if len(self.generators) == 1:
            return self.generators[0].binomial(n, p)
        parts, start = [], 0
        for rng, size in zip(self.generators, sizes):
            if size:
                parts.append(
                    rng.binomial(n[start:start + size], p[start:start + size])
                )
                start += size
        return self._join(parts, np.int64)


class SegmentedStreams:
    """Named streams for stacked replica blocks, one registry per block.

    ``get(name)`` is the :class:`SegmentedGenerator` over each block's
    ``name`` stream, so a batched engine built on these streams draws
    for every block from that block's own :class:`RandomStreams`.
    """

    def __init__(
        self, streams: Sequence[RandomStreams], sizes: Sequence[int]
    ) -> None:
        if len(streams) != len(sizes):
            raise ValueError("need one size per stream registry")
        self._streams = tuple(streams)
        self._sizes = tuple(sizes)

    def get(self, name: str) -> SegmentedGenerator:
        """The segmented draws of every block's stream ``name``."""
        return SegmentedGenerator(
            [streams.get(name) for streams in self._streams], self._sizes
        )
