"""Stable seed derivation for schedule-independent determinism.

Every randomized stage derives its own RNG seed from the global seed plus a
stable identifier (template id, sentence id, training step).  Parallel
scheduling therefore never changes any output, and any unit of work can be
replayed in isolation.  A stage may also read its numbers from the derived
seed itself, with no generator at all, as the curriculum does for each
step's source; a block of units is then one ``derive_seeds`` call (the
counter-based design of Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011).
"""

from __future__ import annotations

import struct
from typing import Iterable

# hashlib maps OpenSSL's libcrypto into the process, about 3.5 MB resident;
# the interpreter's own SHA-256 gives the same digests for a few KB, and
# random.py takes its sha512 the same way.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit seed from the given parts.

    Uses SHA-256 rather than ``hash()`` because the builtin is salted per
    process and would break cross-run determinism.
    """
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = sha256(key).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seeds(prefix: int | str, ids: Iterable[int | str]) -> list[int]:
    """``[derive_seed(prefix, i) for i in ids]``.

    The shared ``prefix`` is hashed once and each id continues a copy of it.
    The digests' first 8 bytes go into one buffer, read back as little-endian
    ints by one ``struct.unpack``, which is faster than an ``int.from_bytes``
    per id.
    """
    head = sha256(f"{prefix}\x1f".encode("utf-8"))
    out = bytearray()
    for i in ids:
        h = head.copy()
        h.update(str(i).encode("utf-8"))
        out += h.digest()[:8]
    return list(struct.unpack(f"<{len(out) // 8}Q", out))
