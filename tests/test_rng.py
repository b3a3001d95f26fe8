import numpy as np
import pytest

from stealthpath.rng import Streams, derive_seed, generator, streams


def test_derive_seed_deterministic():
    assert derive_seed(1, "a", 2, 3) == derive_seed(1, "a", 2, 3)


def test_derive_seed_distinguishes_inputs():
    seen = {derive_seed(1, "a"), derive_seed(2, "a"), derive_seed(1, "b"),
            derive_seed(1, "a", 0), derive_seed(1, "a", 1), derive_seed(1, "a", 0, 0)}
    assert len(seen) == 6


def test_generator_streams_are_reproducible():
    a = generator(7, "x", 3).random(5)
    b = generator(7, "x", 3).random(5)
    assert (a == b).all()
    c = generator(7, "x", 4).random(5)
    assert not (a == c).all()


# Batched streams against numpy's Generator, element for element; n = 1..17
# crosses the 4-word Philox block and the 32-bit half boundaries.
KEYS = np.array([derive_seed(3, "batch-test", i) for i in range(600)], dtype=np.uint64)


def _per_key(keys, calls):
    """What one Generator per key returns for each call, stacked over keys."""
    outs = []
    for key in keys:
        g = np.random.Generator(np.random.Philox(key=int(key)))
        outs.append([g.random(*args) if method == "random" else g.integers(0, *args)
                     for method, args in calls])
    return [np.array([out[c] for out in outs]) for c in range(len(calls))]


def _batched(keys, calls):
    s = Streams(keys)
    return [getattr(s, method)(*args) for method, args in calls]


def _assert_same(keys, calls):
    for got, want in zip(_batched(keys, calls), _per_key(keys, calls)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", range(1, 18))
def test_batched_random_matches_numpy(n):
    _assert_same(KEYS, [("random", (n,)), ("random", (n,))])


@pytest.mark.parametrize("high", [1, 2, 3, 5, 8, 131071, 2 ** 31 + 1, 2 ** 32, 2 ** 32 + 5])
def test_batched_integers_match_numpy(high):
    # 2^31 + 1 puts about half the draws in Lemire's rejection zone; 2^32 + 5
    # takes numpy's 64-bit path
    for n in range(1, 18):
        _assert_same(KEYS[:200], [("integers", (high, n))])


def test_consecutive_integers_continue_the_half_buffer():
    # as UniformRandom draws one link after another from one stream
    calls = [("integers", (3, 5)), ("integers", (2, 4)), ("integers", (5, 1)),
             ("random", (3,)), ("integers", (2 ** 31 + 1, 3)), ("integers", (3, 2)),
             ("random", (2,))]
    _assert_same(KEYS, calls)
    _assert_same(KEYS[:1], calls)


def test_streams_shape_and_derivation():
    seeds = np.arange(40).reshape(8, 5)
    draws = streams(seeds, "lbl").integers(7, 3)
    assert draws.shape == (8, 5, 3)
    for (a, b), row in np.ndenumerate(seeds):
        np.testing.assert_array_equal(draws[a, b], generator(row, "lbl").integers(0, 7, 3))
    one = streams(11, "lbl").random(4)
    assert one.shape == (4,)
    np.testing.assert_array_equal(one, generator(11, "lbl").random(4))
    with pytest.raises(ValueError):
        Streams(KEYS).integers(0, 3)
