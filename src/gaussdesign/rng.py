"""Counter-based random number generation (Philox4x32-10).

Every random quantity in this package is addressed by (seed, stream, slot):
``stream`` is typically a replicate index and ``slot`` enumerates values
inside that replicate.  Each (stream, slot) pair maps to one Philox counter
block, so draws are a pure function of their address.  Replicate streams are
therefore disjoint by construction and results do not depend on how work is
chunked or threaded.

Counter layout (4 x 32-bit words): (slot_lo, slot_hi, stream_lo, stream_hi).
Key = the 64-bit seed split into two 32-bit words.  Each block yields four
32-bit words, combined into two float64 uniforms or, via Box-Muller, two
standard normals.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)

# Largest number of counter blocks evaluated at once; bounds peak memory.
_SLAB = 1 << 14


def _philox_block(c0, c1, c2, c3, k0, k1):
    """Run the 10 Philox4x32 rounds in place on uint64 arrays holding 32-bit
    words; two product buffers are the only other arrays."""
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c2)
    for _ in range(10):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        # (c0, c1, c2, c3) <- (hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0)):
        # each word is read before it is overwritten
        np.right_shift(p1, _S32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _S32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _MASK32, out=c3)
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _split_key(seed):
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    return np.uint64(seed & 0xFFFFFFFF), np.uint64(seed >> 32)


def _words(seed, stream, slot):
    """Philox output words for broadcastable uint64 arrays (stream, slot)."""
    stream = np.asarray(stream, dtype=np.uint64)
    slot = np.asarray(slot, dtype=np.uint64)
    k0, k1 = _split_key(seed)
    c0 = slot & _MASK32
    c1 = slot >> np.uint64(32)
    c2 = stream & _MASK32
    c3 = stream >> np.uint64(32)
    c0, c1, c2, c3 = np.broadcast_arrays(c0, c1, c2, c3)
    return _philox_block(c0.copy(), c1.copy(), c2.copy(), c3.copy(), k0, k1)


def _to_uniform(hi, lo, out):
    """Two 32-bit words -> float64 uniform in (0, 1), 53 significant bits,
    written to ``out``; ``hi`` is overwritten."""
    hi <<= _S32
    hi |= lo
    hi >>= _S11
    np.multiply(hi, 2.0 ** -53, out=out)
    out += 2.0 ** -54


def uniforms(seed, streams, n):
    """Uniform(0,1) matrix of shape (len(streams), n), one stream per row."""
    streams = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    blocks = (n + 1) // 2
    out = np.empty((streams.size, 2 * blocks))
    rows_per_slab = max(1, _SLAB // max(blocks, 1))
    for lo_row in range(0, streams.size, rows_per_slab):
        hi_row = min(lo_row + rows_per_slab, streams.size)
        s = streams[lo_row:hi_row, None]
        j = np.arange(blocks, dtype=np.uint64)[None, :]
        w0, w1, w2, w3 = _words(seed, s, j)
        _to_uniform(w0, w1, out[lo_row:hi_row, 0::2])
        _to_uniform(w2, w3, out[lo_row:hi_row, 1::2])
    return out[:, :n]


def normals(seed, streams, n):
    """Standard-normal matrix of shape (len(streams), n) via Box-Muller."""
    streams = np.atleast_1d(np.asarray(streams, dtype=np.uint64))
    u = uniforms(seed, streams, 2 * ((n + 1) // 2))
    u1 = u[:, 0::2]
    u2 = u[:, 1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.empty_like(u)
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r * np.sin(theta)
    return z[:, :n]


def derive_seed(seed, *tags):
    """Fold integer tags into a seed, giving independent named substreams."""
    s = int(seed) & 0xFFFFFFFFFFFFFFFF
    for tag in tags:
        w0, w1, _, _ = _words(s, np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF),
                              np.uint64(0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF))
        s = (int(w0) << 32) | int(w1)
    return s
