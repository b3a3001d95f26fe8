import numpy as np
import pytest

from stealthpath import indexing


def test_pack_unpack_links_round_trip():
    sizes = [2, 3, 2]
    rng = np.random.default_rng(0)
    links = np.vstack([rng.integers(0, s, 50) for s in sizes])
    codes = indexing.pack_links(links, sizes)
    assert codes.min() >= 0 and codes.max() < 12
    np.testing.assert_array_equal(indexing.unpack_links(codes, sizes), links)


def test_link_zero_is_most_significant():
    sizes = [2, 2]
    codes = indexing.pack_links(np.array([[1], [0]]), sizes)
    assert codes[0] == 2


def test_link_digit():
    sizes = [2, 3, 2]
    codes = np.arange(12)
    for link in range(3):
        full = indexing.unpack_links(codes, sizes)
        np.testing.assert_array_equal(indexing.link_digit(codes, sizes, link), full[link])


def test_restrict_codes_consistency():
    sizes = [2, 3, 2]
    codes = np.arange(12)
    sub = indexing.restrict_codes(sizes, [0, 2])
    full = indexing.unpack_links(codes, sizes)
    expected = indexing.pack_links(full[[0, 2]], [2, 2])
    np.testing.assert_array_equal(sub, expected)


def test_restrict_codes_empty():
    assert indexing.restrict_codes([2, 2], []).tolist() == [0, 0, 0, 0]


def test_restriction_matrix_marginalizes():
    sizes = [2, 2, 2]
    s = indexing.restriction_matrix(sizes, [1])
    mass = np.arange(8) / 28.0
    sub = s @ mass
    grid = mass.reshape(2, 2, 2)
    np.testing.assert_allclose(sub, grid.sum(axis=(0, 2)))


def test_restriction_matrix_rows_are_indicators():
    s = indexing.restriction_matrix([2, 3], [0])
    assert s.shape == (2, 6)
    np.testing.assert_array_equal(s.sum(axis=0), np.ones(6))


def test_pack_sequences_round_trip():
    seqs = np.array([[0, 1, 2], [2, 2, 0]])
    packed = indexing.pack_sequences(seqs, 3)
    assert packed.tolist() == [5, 24]
    np.testing.assert_array_equal(indexing.unpack_sequence(5, 3, 3), [0, 1, 2])
    np.testing.assert_array_equal(indexing.unpack_sequence(24, 3, 3), [2, 2, 0])


def test_pack_sequences_overflow_guard():
    with pytest.raises(ValueError):
        indexing.pack_sequences(np.zeros((1, 64), dtype=np.int64), 4)


def test_fold_sequences_matches_pack_sequences():
    rng = np.random.default_rng(3)
    table = np.array([0, 2, 1, 2, 0, 1], dtype=np.int64)
    for n in (1, 7, 20):
        block = rng.integers(0, 6, size=(33, n)).astype(np.uint8)
        np.testing.assert_array_equal(indexing.fold_sequences(block, table, 3),
                                      indexing.pack_sequences(table[block], 3))
