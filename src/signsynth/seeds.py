"""Stable seed derivation for schedule-independent determinism.

Every randomized stage derives its own RNG seed from the global seed plus a
stable identifier (template id, sentence id, training step).  Parallel
scheduling therefore never changes any output, and any unit of work can be
replayed in isolation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable

import numpy as np


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit seed from the given parts.

    Uses SHA-256 rather than ``hash()`` because the builtin is salted per
    process and would break cross-run determinism.
    """
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seeds(prefix: int | str, ids: Iterable[int | str]) -> np.ndarray:
    """``[derive_seed(prefix, i) for i in ids]`` as a uint64 array.

    The shared ``prefix`` is hashed once and each id continues a copy of it.
    """
    head = hashlib.sha256(f"{prefix}\x1f".encode("utf-8"))
    out = bytearray()
    for i in ids:
        h = head.copy()
        h.update(str(i).encode("utf-8"))
        out += h.digest()[:8]
    return np.frombuffer(out, dtype="<u8").astype(np.uint64)


# CPython seeds random.Random(n) with MT19937's init_by_array, keyed by the
# 32-bit words of n, least significant first (Modules/_randommodule.c;
# Matsumoto & Nishimura, ACM TOMACS 1998).
_N = 624
_M = 397


def _init_genrand(s: int) -> np.ndarray:
    mt = [s]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


# The state init_by_array starts from, whatever the key.
_MT_19650218 = _init_genrand(19650218)


def _temper(y: np.ndarray) -> np.ndarray:
    y = y ^ (y >> 11)
    y ^= (y << 7) & 0x9D2C5680
    y ^= (y << 15) & 0xEFC60000
    return y ^ (y >> 18)


def _twisted(upper: np.ndarray, lower: np.ndarray, far: np.ndarray) -> np.ndarray:
    y = (upper & 0x80000000) | (lower & 0x7FFFFFFF)
    return far ^ (y >> 1) ^ ((y & 1) * 0x9908B0DF)


def first_randoms(seeds: np.ndarray) -> np.ndarray:
    """``[random.Random(int(s)).random() for s in seeds]`` as a float64 array,
    bit for bit, computed across all of ``seeds`` at once.

    For a two-word key (``2**32 <= s < 2**64``) this runs init_by_array in
    uint32 array arithmetic, then the first two outputs of the first twist.
    The second seeding loop needs, at word ``i``, the first loop's word ``i``;
    that chain is recomputed alongside instead of storing 624 words per seed.
    Seeds with a one-word key are rare and go to ``random.Random``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    lo = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    # The first loop adds key[j] + j at word i, with j = (i - 1) % 2.
    keyed = (hi + np.uint32(1), lo)
    mt0 = _MT_19650218
    tmp = np.empty_like(lo)

    def mix(x: np.ndarray, mult: int) -> np.ndarray:
        """x = (x ^ (x >> 30)) * mult, in place."""
        np.right_shift(x, 30, out=tmp)
        x ^= tmp
        x *= mult
        return x

    def first_loop(x: np.ndarray, i: int) -> None:
        """First loop's word i - 1 to its word i, in place."""
        mix(x, 1664525)
        x ^= mt0[i]
        x += keyed[i & 1]

    # First loop, 624 steps: 623 write words 1..623, then word 623 is copied
    # to word 0 and the last step writes word 1 again, with j = 1.
    x = np.full_like(lo, mt0[0])
    first_loop(x, 1)
    word1 = x.copy()
    for i in range(2, _N):
        first_loop(x, i)
    wrapped1 = mix(x, 1664525) ^ word1
    wrapped1 += keyed[0]
    # Second loop, 623 steps: 622 write words 2..623, then word 623 is copied
    # to word 0 and the last step writes word 1; word 0 ends as 0x80000000.
    x = word1.copy()
    y = wrapped1.copy()
    kept = {}
    for i in range(2, _N):
        first_loop(x, i)
        mix(y, 1566083941)
        y ^= x
        y -= i
        if i in (2, _M, _M + 1):
            kept[i] = y.copy()
    mix(y, 1566083941)
    y ^= wrapped1
    y -= 1
    # random() joins the top 27 and 26 bits of the first two outputs.
    a = _temper(_twisted(np.full_like(y, 0x80000000), y, kept[_M])) >> 5
    b = _temper(_twisted(y, kept[2], kept[_M + 1])) >> 6
    out = (a.astype(np.float64) * 67108864.0 + b) * (1.0 / 9007199254740992.0)
    for k in np.flatnonzero(hi == 0):
        out[k] = random.Random(int(seeds[k])).random()
    return out
