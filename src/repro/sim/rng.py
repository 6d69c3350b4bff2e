"""Named, seeded random-number streams.

Every stochastic component of the simulation draws from its own named
stream derived deterministically from a single master seed.  This keeps
experiments reproducible and — crucially for ablations — lets one
component's draw count change without perturbing every other
component's sequence.

Two kinds of stream share one seeding rule.  :meth:`RNGRegistry.stream`
returns a full :class:`random.Random`; the per-world streams (fleet,
background, faults, coordinator, cohort, control loss) use it: a world
has one of each, and most of them call ``choice``, ``sample``,
``expovariate`` and the like.
:meth:`RNGRegistry.replay_stream` returns a :class:`ReplayStream`; the
per-member streams (``client.<id>``, ``lat.target.<id>``,
``lat.coord.<id>``) use it.  A 600-client world holds 1,800 of those
and most draw a few dozen times, so 2.5 KiB of Mersenne state apiece
would be most of the world's memory.

A :class:`ReplayStream` is exact, not an approximation: it keeps only
its seed, a count of the doubles generated so far and a small buffer of
pending ones.  A refill seeds a throwaway Mersenne Twister (the C base
``_random.Random`` of ``random.Random``, which seeds identically) with
the same seed, discards the doubles already generated with one
``getrandbits(64 * n)`` call and fills the next chunk with
``random()``.  CPython's ``random()`` reads exactly two 32-bit Mersenne
words, and ``getrandbits(64 * n)`` reads exactly ``2 * n``, so the
buffer continues the ``random.Random(seed)`` sequence double for
double.  ``gauss`` is ``random.Random.gauss`` itself, which is pure
Python and touches only ``self.random`` and ``self.gauss_next``.  Any
other method raises :class:`AttributeError`.
"""

from __future__ import annotations

import hashlib
from array import array
from random import Random
from typing import Dict, Union

from _random import Random as _Mersenne

#: the largest refill, in doubles: a buffer never outgrows the
#: 2.5 KiB Mersenne state it stands in for
MAX_FILL = 256

#: the buffer of a stream that has not drawn yet; never written to
_EMPTY = array("d")


class ReplayStream:
    """The ``random()``/``gauss()`` sequence of ``random.Random(seed)``,
    replayed from a small buffer instead of kept Mersenne state.

    The first fill holds *chunk* doubles, sized by the caller to the
    stream's usual draw count; each later fill doubles the total, up to
    :data:`MAX_FILL`.  Nothing is seeded until the first draw, so a
    stream that never draws costs only this object.  A refill replays
    every double generated so far, so once a stream has generated
    :data:`MAX_FILL` doubles it keeps its generator instead: the few
    long streams (a background node's paths) then cost what a
    ``random.Random`` does, and no stream replays more than
    ``4 * MAX_FILL`` doubles in all.
    """

    __slots__ = ("_seed", "_chunk", "_generated", "_buf", "_pos", "_kept", "gauss_next")

    def __init__(self, seed: int, chunk: int) -> None:
        self._seed = seed
        self._chunk = chunk
        #: doubles taken from the Mersenne sequence, buffered ones included
        self._generated = 0
        self._buf = _EMPTY
        self._pos = 0
        #: the generator of a long stream, kept from its first refill
        #: past MAX_FILL
        self._kept = None
        self.gauss_next = None

    gauss = Random.gauss

    def random(self) -> float:
        pos = self._pos
        buf = self._buf
        if pos == len(buf):
            buf = self._refill()
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def _refill(self) -> array:
        generated = self._generated
        n = max(self._chunk, min(generated, MAX_FILL))
        rng = self._kept
        if rng is None:
            rng = _Mersenne(self._seed)
            if generated:
                rng.getrandbits(64 * generated)
            if generated >= MAX_FILL:
                self._kept = rng
        draw = rng.random
        self._buf = buf = array("d", [draw() for _ in range(n)])
        self._generated = generated + n
        return buf


class RNGRegistry:
    """Factory of independent named streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, Union[Random, ReplayStream]] = {}

    def _seed(self, name: str) -> int:
        """A stable hash of ``(master_seed, name)``: the same name always
        yields the same sequence for a given master seed, independent
        of creation order."""
        digest = hashlib.sha256(f"{self.master_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> Random:
        """Return the full :class:`random.Random` stream for *name*,
        creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = Random(self._seed(name))
        return rng

    def replay_stream(self, name: str, chunk: int) -> ReplayStream:
        """Return the :class:`ReplayStream` for *name*, creating it on
        first use with a first fill of *chunk* doubles.  It draws
        exactly what ``stream(name)`` would, but offers only
        ``random()`` and ``gauss()``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = ReplayStream(self._seed(name), chunk)
        return rng

    def fork(self, suffix: str) -> "RNGRegistry":
        """A child registry whose streams are disjoint from this one's."""
        digest = hashlib.sha256(
            f"{self.master_seed}/fork/{suffix}".encode("utf-8")
        ).digest()
        return RNGRegistry(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:
        return f"RNGRegistry(master_seed={self.master_seed}, streams={sorted(self._streams)})"
