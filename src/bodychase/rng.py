"""Label-keyed deterministic random streams.

Every randomized subsystem (set cover clocks, matching thresholds, MST
thresholds) reads its own stream: SHAKE-256 of the 8-byte tokens of (master
seed, subsystem label, entity key), as 64-bit words w -> (w >> 11) * 2**-53.
Streams are therefore stable under arrival order and replayable byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct

import numpy as np

SETCOVER_CLOCKS = 0x53_43
MATCHING_THRESHOLDS = 0x4D_41
MST_THRESHOLDS = 0x4D_53

_MASK = (1 << 63) - 1
_ULP = 2.0 ** -53


def _token(part) -> int:
    if type(part) is int:
        return part & _MASK
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MASK


class KeyedStream:
    """Uniforms on the 2**-53 grid of [0, 1), read in order, one XOF call per
    draw, from a SHAKE-256 object that has absorbed the stream's key."""

    def __init__(self, xof):
        self._xof, self._used = xof, 0

    def uniform(self, size=None):
        start, self._used = self._used, self._used + (1 if size is None else size)
        words = self._xof.digest(8 * self._used)[8 * start:]
        if size is None:
            return (int.from_bytes(words, "little") >> 11) * _ULP
        return (np.frombuffer(words, dtype="<u8") >> 11) * _ULP

    def exponential(self, scale: float = 1.0) -> float:
        return -math.log1p(-self.uniform()) * scale


@functools.lru_cache(maxsize=64)
def _prefix(seed: int, label: int):
    """SHAKE-256 after absorbing the tokens of (seed, label)."""
    return hashlib.shake_256(struct.pack("<2Q", seed, label))


def substream(seed: int, label: int, *key) -> KeyedStream:
    """Stream for one (subsystem, entity) pair under a master seed: a copy
    of the (seed, label) prefix's hash that absorbs the key's tokens, so
    SHAKE-256 reads the same bytes as one hash of all the tokens."""
    xof = _prefix(int(seed) & _MASK, int(label) & _MASK).copy()
    xof.update(struct.pack("<%dQ" % len(key), *map(_token, key)))
    return KeyedStream(xof)
