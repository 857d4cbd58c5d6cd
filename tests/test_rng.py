from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdesign import rng


def philox4x32_reference(key0, key1, c0, c1, c2, c3):
    """Scalar Philox4x32-10 reference (Salmon et al. constants)."""
    M0, M1 = 0xD2511F53, 0xCD9E8D57
    W0, W1 = 0x9E3779B9, 0xBB67AE85
    k0, k1 = key0, key1
    for _ in range(10):
        p0 = (c0 * M0) & 0xFFFFFFFFFFFFFFFF
        p1 = (c2 * M1) & 0xFFFFFFFFFFFFFFFF
        hi0, lo0 = p0 >> 32, p0 & 0xFFFFFFFF
        hi1, lo1 = p1 >> 32, p1 & 0xFFFFFFFF
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + W0) & 0xFFFFFFFF
        k1 = (k1 + W1) & 0xFFFFFFFF
    return c0, c1, c2, c3


@pytest.mark.parametrize("seed,stream,slot", [
    (0, 0, 0),
    (1234, 7, 3),
    (0xDEADBEEF12345678, 2**40 + 5, 11),
])
def test_words_match_scalar_reference(seed, stream, slot):
    w = rng._words(seed, np.uint64(stream), np.uint64(slot))
    k0, k1 = seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF
    ref = philox4x32_reference(k0, k1, slot & 0xFFFFFFFF, slot >> 32,
                               stream & 0xFFFFFFFF, stream >> 32)
    assert tuple(int(x) for x in w) == ref


def test_uniforms_open_interval_and_deterministic():
    u = rng.uniforms(99, np.arange(1000), 8)
    assert u.shape == (1000, 8)
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.array_equal(u, rng.uniforms(99, np.arange(1000), 8))


def test_streams_are_disjoint():
    a = rng.normals(5, np.arange(10), 4)
    b = rng.normals(5, np.arange(10, 20), 4)
    assert not np.any(np.isclose(a, b))
    # a stream's values do not depend on which batch it is drawn in
    c = rng.normals(5, np.arange(3, 7), 4)
    assert np.array_equal(c, a[3:7])


def test_normal_moments():
    z = rng.normals(7, np.arange(200_000), 4)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(np.mean(z**3)) < 0.02
    assert abs(np.mean(z**4) - 3.0) < 0.05


def test_odd_width_matches_even_prefix():
    a = rng.normals(3, np.arange(5), 7)
    b = rng.normals(3, np.arange(5), 8)
    assert np.array_equal(a, b[:, :7])


def test_derive_seed_changes_stream():
    s1 = rng.derive_seed(42, 0)
    s2 = rng.derive_seed(42, 1)
    assert s1 != s2
    assert rng.derive_seed(42, 0) == s1
    assert not np.array_equal(rng.normals(s1, [0], 4), rng.normals(s2, [0], 4))


@contextmanager
def _slab(size):
    saved = rng._SLAB
    rng._SLAB = size
    try:
        yield
    finally:
        rng._SLAB = saved


_seeds = st.integers(0, 2**64 - 1)
_stream_lists = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=24, unique=True)
_widths = st.integers(1, 37)


@pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
@settings(max_examples=40, deadline=None)
@given(seed=_seeds, streams=_stream_lists, n=_widths)
def test_rows_do_not_depend_on_slab_size(draw, seed, streams, n):
    streams = np.array(streams, dtype=np.uint64)
    with _slab(1 << 21):
        expected = draw(seed, streams, n)
    for size in (1, 7, 1 << 14):
        with _slab(size):
            assert np.array_equal(draw(seed, streams, n), expected)


@pytest.mark.parametrize("draw", [rng.uniforms, rng.normals])
@settings(max_examples=40, deadline=None)
@given(seed=_seeds, streams=_stream_lists, n=_widths, data=st.data())
def test_rows_do_not_depend_on_requested_streams(draw, seed, streams, n, data):
    streams = np.array(streams, dtype=np.uint64)
    full = draw(seed, streams, n)
    idx = data.draw(st.permutations(range(streams.size)))
    idx = np.array(idx[:data.draw(st.integers(1, streams.size))])
    with _slab(7):
        assert np.array_equal(draw(seed, streams[idx], n), full[idx])
