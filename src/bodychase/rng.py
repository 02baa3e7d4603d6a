"""Label-keyed deterministic random streams.

Every randomized subsystem (set cover clocks, matching thresholds, MST
thresholds) reads its own stream: SHAKE-256 of the 8-byte tokens of (master
seed, subsystem label, entity key), as 64-bit words w -> (w >> 11) * 2**-53.
Streams are therefore stable under arrival order and replayable byte for byte.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

SETCOVER_CLOCKS = 0x53_43
MATCHING_THRESHOLDS = 0x4D_41
MST_THRESHOLDS = 0x4D_53

_MASK = (1 << 63) - 1
_ULP = 2.0 ** -53


def _token(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK
    digest = hashlib.blake2b(str(part).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & _MASK


class KeyedStream:
    """Uniforms on the 2**-53 grid of [0, 1), read in order, one XOF call per draw."""

    def __init__(self, key: bytes):
        self._xof, self._used = hashlib.shake_256(key), 0

    def uniform(self, size=None):
        start, self._used = self._used, self._used + (1 if size is None else size)
        words = self._xof.digest(8 * self._used)[8 * start:]
        if size is None:
            return (int.from_bytes(words, "little") >> 11) * _ULP
        return (np.frombuffer(words, dtype="<u8") >> 11) * _ULP

    def exponential(self, scale: float = 1.0) -> float:
        return -math.log1p(-self.uniform()) * scale


def substream(seed: int, label: int, *key) -> KeyedStream:
    """Stream for one (subsystem, entity) pair under a master seed."""
    tokens = [int(seed) & _MASK, int(label) & _MASK] + [_token(k) for k in key]
    return KeyedStream(b"".join(t.to_bytes(8, "little") for t in tokens))
