"""Seeded random-number streams.

Every stochastic component (loss process, workload generator, corruption
trace) draws from its own named stream derived from one root seed, so
adding a new consumer never perturbs the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RngFactory"]

# numpy's seeding of ``default_rng(seed)``, spelled out so a batch of
# seeds is hashed in one vectorized pass (``SeedSequence`` with its
# default pool of four uint32 words, then ``PCG64``'s ``srandom``).  The
# hash constants advance by a fixed multiply per use whatever the data,
# so every one of them is precomputed.  numpy has seeded this way since
# 1.17; ``tests/test_rng.py`` fails if a release changes it.
_XSHIFT = 16
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULTIPLIER = (2549297995355413924 << 64) | 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**i mod 2**32`` for ``i`` in ``[0, n]``, as a column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFF_FFFF)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, one use per row of the result: xor
    with that use's constant ``consts[i]``, multiply by ``consts[i + 1]``,
    fold the high half down."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


#: SeedSequence.mix_entropy: the pool's 4 words are hashed in, then each
#: source word is hashed into the 3 others (uses 4 + 3 * src + 0..2)
_MIX = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_CROSS = [([dst for dst in range(4) if dst != src],
           _MIX[4 + 3 * src:8 + 3 * src]) for src in range(4)]
#: SeedSequence.generate_state(4, uint64): 8 uint32 words out
_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _pcg64_states(seeds: Sequence[int]) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``numpy.random.default_rng(seed).bit_generator``
    for each 64-bit ``seed``.

    A seed's entropy is its little-endian uint32 words; a seed below
    2**32 has one word, but SeedSequence hashes a zero word into every
    pool slot past the entropy, so two words (high one zero) hash alike.
    """
    seeds64 = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds64)), dtype=np.uint32)
    pool[0] = seeds64 & 0xFFFF_FFFF
    pool[1] = seeds64 >> 32
    pool = _hashmix(pool, _MIX[:5])
    for src, (dst, consts) in enumerate(_CROSS):
        mixed = (_MIX_MULT_L * pool[dst]
                 - _MIX_MULT_R * _hashmix(pool[src], consts))
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = _hashmix(np.vstack((pool, pool)), _OUT).astype(np.uint64)
    state_hi, state_lo, inc_hi, inc_lo = (
        words[0::2] | (words[1::2] << 32)).tolist()
    states = []
    for hi, lo, ihi, ilo in zip(state_hi, state_lo, inc_hi, inc_lo):
        inc = (((ihi << 64) | ilo) << 1 | 1) & _MASK128
        state = (inc + ((hi << 64) | lo)) * _PCG_MULTIPLIER + inc
        states.append((state & _MASK128, inc))
    return states


class RngFactory:
    """Derives independent ``numpy.random.Generator`` streams from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def child_seed(self, name: str, index: Optional[int] = None) -> int:
        """An integer seed unique to ``(seed, name[, index])``, stable across runs.

        The same derivation backs :meth:`stream`; exposing the integer lets
        callers that need a plain seed (experiment cells dispatched to worker
        processes, nested factories) share the one naming scheme.

        ``index`` addresses one element of a sequence under the name — a
        link's k-th failure event, a trace's k-th repair draw — so the
        draws at index k never depend on how many values earlier indices
        consumed.  A trace truncated or extended in time therefore
        regenerates every surviving event byte-identically.
        """
        key = (f"{self.seed}:{name}" if index is None
               else f"{self.seed}:{name}#{int(index)}")
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str,
               index: Optional[int] = None) -> np.random.Generator:
        """Return a generator unique to ``(seed, name[, index])``, stable
        across runs.  See :meth:`child_seed` for ``index`` semantics."""
        return np.random.default_rng(self.child_seed(name, index))

    def streams(self, keys: Iterable[Tuple[str, Optional[int]]],
                ) -> Iterator[np.random.Generator]:
        """:meth:`stream` for each ``(name, index)`` key, seeded in bulk.

        Yields, per key, a generator in exactly the state
        ``stream(name, index)`` would start in, so it draws the same
        values and ends in the same ``bit_generator.state``.  It is one
        reused generator re-stated per key: a draw is only valid until
        the next key is taken.  Building a ``Generator`` costs ~15
        draws; this costs a sha256 and a state assignment per key, plus
        one vectorized hash of the whole batch.
        """
        states = _pcg64_states([self.child_seed(name, index)
                                for name, index in keys])
        rng = np.random.Generator(np.random.PCG64(0))
        bit_generator = rng.bit_generator
        for state, inc in states:
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0,
            }
            yield rng
