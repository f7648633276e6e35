import numpy as np

from supersetlabel import Dataset, encode

from conftest import random_candidates


def codec_for(candidates, c):
    ds = Dataset(features=np.zeros((len(candidates), 1)),
                 candidates=candidates, c=c)
    return encode(ds)


def zero_sets(codec):
    """1-based labels outside each candidate set, read off the mask H."""
    return tuple(tuple((np.flatnonzero(row) + 1).tolist()) for row in codec.H)


def test_singleton_set():
    codec = codec_for(((2,),), c=3)
    np.testing.assert_array_equal(codec.Y, [[0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(codec.H, [[1.0, 0.0, 1.0]])
    assert zero_sets(codec) == ((1, 3),)


def test_two_of_four():
    codec = codec_for(((1, 3),), c=4)
    np.testing.assert_array_equal(codec.Y, [[0.5, 0.0, 0.5, 0.0]])
    assert zero_sets(codec) == ((2, 4),)


def test_fully_ambiguous_row():
    c = 5
    codec = codec_for((tuple(range(1, c + 1)),), c=c)
    np.testing.assert_allclose(codec.Y, 1.0 / c)
    np.testing.assert_array_equal(codec.H, np.zeros((1, c)))
    assert zero_sets(codec) == ((),)


def test_row_sums_exact(rng):
    for _ in range(20):
        n, c = int(rng.integers(1, 30)), int(rng.integers(2, 9))
        codec = codec_for(random_candidates(rng, n, c), c=c)
        assert np.max(np.abs(codec.Y.sum(axis=1) - 1.0)) < 1e-15


def test_mask_disjoint_from_candidates(rng):
    n, c = 12, 6
    codec = codec_for(random_candidates(rng, n, c), c=c)
    assert np.all(codec.H * codec.Y == 0.0)
    assert np.all((codec.H == 0) | (codec.H == 1))


def test_omega_sizes(rng):
    n, c = 15, 5
    cands = random_candidates(rng, n, c)
    codec = codec_for(cands, c=c)
    for s, om in zip(cands, zero_sets(codec)):
        assert len(om) == c - len(s)
        assert set(om).isdisjoint(s)


def test_matches_per_row_loop(rng):
    n, c = 40, 7
    cands = random_candidates(rng, n, c)
    codec = codec_for(cands, c=c)
    Y, H = np.zeros((n, c)), np.ones((n, c))
    for i, s in enumerate(cands):
        cols = np.asarray(s) - 1
        Y[i, cols] = 1.0 / len(s)
        H[i, cols] = 0.0
    assert codec.Y.tobytes() == Y.tobytes()
    assert codec.H.tobytes() == H.tobytes()
