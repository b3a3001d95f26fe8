import json

import numpy as np
import pytest

from stealthpath.probkit import (
    ConditionalKernel,
    Distribution,
    JointDistribution,
    SymbolSequence,
    TypicalityParams,
    entropy,
    entropy_of_mass,
    entropy_of_rows,
    inverse_cdf,
    is_strongly_typical,
    marginalize,
    mutual_information,
    typical_rows,
    variational_distance,
)

H2_03 = 0.8812908992306927  # binary entropy of 0.3, frozen reference


def test_distribution_rejects_bad_mass():
    with pytest.raises(ValueError):
        Distribution(2, np.array([0.7, 0.2]))
    with pytest.raises(ValueError):
        Distribution(2, np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        Distribution(3, np.array([0.5, 0.5]))
    # a NaN sums to NaN, which no tolerance comparison refuses
    for mass in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="finite"):
            Distribution(2, np.array(mass))
    with pytest.raises(ValueError, match="finite"):
        JointDistribution((2, 2), np.array([0.5, 0.5, np.nan, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        ConditionalKernel(2, 2, np.array([[0.5, 0.5], [np.nan, np.nan]]))


def test_distribution_renormalizes_dust():
    d = Distribution(2, np.array([0.5 + 1e-10, 0.5]))
    assert abs(d.mass.sum() - 1.0) < 1e-15
    # tiny negatives are clamped, not rejected
    d2 = Distribution(2, np.array([1.0 + 1e-13, -1e-13]))
    assert d2.mass[1] == 0.0


def test_mass_is_immutable():
    d = Distribution.uniform(4)
    with pytest.raises(ValueError):
        d.mass[0] = 0.9


def test_entropy_known_values():
    assert entropy(Distribution.uniform(8)) == pytest.approx(3.0, abs=1e-12)
    assert entropy(Distribution.point_mass(5, 2)) == 0.0
    assert entropy(Distribution.bernoulli(0.3)) == pytest.approx(H2_03, abs=1e-12)
    assert entropy(Distribution.bernoulli(0.5)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_rows_matches_entropy_of_mass_bit_for_bit():
    # Rows with zeros take the path that drops them before the sum; at length
    # 8 and above keeping them would regroup numpy's pairwise summation.
    rng = np.random.default_rng(7)
    for length in (4, 8, 12, 32):
        mass = rng.dirichlet(np.ones(length), size=60)
        mass[rng.random(mass.shape) < 0.3] = 0.0
        mass[0] = 0.0
        mass[0, length - 1] = 1.0
        positive = rng.dirichlet(np.ones(length), size=5)
        for rows in (mass, positive):
            expected = np.array([entropy_of_mass(row) for row in rows])
            assert entropy_of_rows(rows).tobytes() == expected.tobytes()


def test_joint_from_factors_and_grid():
    j = JointDistribution.from_factors(
        [Distribution.bernoulli(0.3), Distribution.uniform(3)])
    assert j.factor_sizes == (2, 3)
    g = j.grid()
    assert g.shape == (2, 3)
    assert g[1, 0] == pytest.approx(0.3 / 3)
    # row-major layout: component 0 is the slowest index
    assert j.mass[3] == pytest.approx(g[1, 0])


def test_marginalize_recovers_factors():
    a, b, c = Distribution.bernoulli(0.2), Distribution.bernoulli(0.7), Distribution.uniform(3)
    j = JointDistribution.from_factors([a, b, c])
    np.testing.assert_allclose(marginalize(j, [0]).mass, a.mass, atol=1e-15)
    np.testing.assert_allclose(marginalize(j, [2]).mass, c.mass, atol=1e-15)
    pair = marginalize(j, [0, 2])
    np.testing.assert_allclose(
        pair.mass, JointDistribution.from_factors([a, c]).mass, atol=1e-15)
    assert marginalize(j, []).mass.tolist() == [1.0]


def test_marginalize_keep_order_is_ascending():
    j = JointDistribution.from_factors(
        [Distribution.bernoulli(0.1), Distribution.bernoulli(0.4)])
    assert np.allclose(marginalize(j, [1, 0]).mass, j.mass)


def test_mutual_information_independent_is_zero():
    j = JointDistribution.from_factors(
        [Distribution.bernoulli(0.3), Distribution.bernoulli(0.6)])
    assert mutual_information(j, [0], [1]) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_perfectly_correlated():
    # X = Y uniform bit: I(X;Y) = 1 bit
    j = JointDistribution((2, 2), np.array([0.5, 0.0, 0.0, 0.5]))
    assert mutual_information(j, [0], [1]) == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_rejects_overlap():
    j = JointDistribution.from_factors([Distribution.uniform(2)] * 2)
    with pytest.raises(ValueError):
        mutual_information(j, [0], [0, 1])


def test_variational_distance():
    p = Distribution(2, np.array([0.5, 0.5]))
    q = Distribution(2, np.array([0.9, 0.1]))
    assert variational_distance(p, q) == pytest.approx(0.4, abs=1e-15)
    assert variational_distance(p, p) == 0.0
    # maximum distance for disjoint supports
    assert variational_distance(Distribution.point_mass(2, 0),
                                Distribution.point_mass(2, 1)) == 1.0


def test_strong_typicality_zero_mass_clause():
    d = Distribution(3, np.array([0.5, 0.5, 0.0]))
    tp = TypicalityParams(gamma=2.0)
    assert is_strongly_typical(SymbolSequence(np.array([0, 1, 0, 1])), d, tp)
    # a single forbidden symbol disqualifies regardless of gamma
    assert not is_strongly_typical(SymbolSequence(np.array([0, 1, 2, 1])), d, tp)


def test_strong_typicality_deviation():
    d = Distribution.uniform(2)
    tp = TypicalityParams(gamma=0.1)
    assert is_strongly_typical(SymbolSequence(np.array([0, 1] * 10)), d, tp)
    assert not is_strongly_typical(SymbolSequence(np.array([0] * 20)), d, tp)
    # deviation 0.1 sits inside a slightly larger slack
    s = SymbolSequence(np.array([0] * 11 + [1] * 9))
    assert is_strongly_typical(s, d, TypicalityParams(gamma=0.11))
    assert not is_strongly_typical(s, d, TypicalityParams(gamma=0.09))


def test_kernel_identity_and_constant():
    k = ConditionalKernel.identity(3)
    np.testing.assert_array_equal(k.matrix, np.eye(3))
    row = Distribution(2, np.array([0.4, 0.6]))
    kc = ConditionalKernel.constant(3, row)
    assert kc.matrix.shape == (3, 2)
    np.testing.assert_allclose(kc.matrix[2], row.mass)


def test_json_round_trip():
    d = Distribution(3, np.array([0.2, 0.5, 0.3]))
    d2 = Distribution.from_json(d.to_json())
    np.testing.assert_allclose(d.mass, d2.mass)
    j = JointDistribution.from_factors([Distribution.bernoulli(0.3)] * 2)
    j2 = JointDistribution.from_json(j.to_json())
    assert j2.factor_sizes == j.factor_sizes
    np.testing.assert_allclose(j.mass, j2.mass)


def test_typicality_params_validation():
    with pytest.raises(ValueError):
        TypicalityParams(gamma=0.0)
    with pytest.raises(ValueError):
        TypicalityParams(gamma=-0.2)


def _typical_one_row(seq, mass, gamma):
    """The per-row strong-typicality test the batched kernel replaced."""
    counts = np.bincount(seq, minlength=mass.size)
    if np.any(counts[mass == 0] > 0):
        return False
    return float(np.abs(counts / seq.size - mass).sum()) <= gamma


def test_typical_rows_matches_the_per_row_formula():
    rng = np.random.default_rng(5)
    mass = np.array([0.25, 0.0, 0.375, 0.125, 0.0, 0.25])
    support = np.nonzero(mass)[0]
    for n in (1, 4, 8, 13):
        # rows over the support only, and rows that may hit a zero-mass letter
        seqs = np.vstack([support[rng.integers(0, support.size, size=(200, n))],
                          rng.integers(0, mass.size, size=(200, n))])
        for gamma in (0.1, 0.5, 1.2):
            expected = [_typical_one_row(row, mass, gamma) for row in seqs]
            assert np.array_equal(typical_rows(seqs, mass, gamma), expected)
    # a row whose deviation is gamma exactly passes; just below gamma it fails
    seqs = np.array([[0, 0, 0, 2, 2, 3, 5, 5]])
    gamma = float(np.abs(np.bincount(seqs[0], minlength=6) / 8 - mass).sum())
    assert typical_rows(seqs, mass, gamma)[0] and _typical_one_row(seqs[0], mass, gamma)
    assert not typical_rows(seqs, mass, np.nextafter(gamma, 0.0))[0]
    half = np.array([0.5, 0.5, 0.0])
    assert np.array_equal(typical_rows(np.array([[0, 0, 0, 1], [0, 2, 1, 1]]), half, 0.5),
                          [True, False])


def test_typical_rows_in_blocks_matches_one_block(monkeypatch):
    from stealthpath import probkit
    rng = np.random.default_rng(6)
    mass = np.array([0.25, 0.0, 0.375, 0.125, 0.0, 0.25])
    seqs = rng.choice([0, 2, 3, 5, 5, 1], size=(300, 9)).astype(np.uint8)
    whole = typical_rows(seqs, mass, 0.6)
    monkeypatch.setattr(probkit, "TYPICAL_BLOCK_CELLS", 16)  # one row per block (16 // 9)
    assert np.array_equal(typical_rows(seqs, mass, 0.6), whole)
    assert whole.any() and not whole.all()


def test_typical_rows_memory_is_bounded_when_rows_are_longer_than_the_alphabet():
    # a block's int64 symbol copy is rows x n cells, not rows x a: with n > a
    # it, not the count table, must bound the block
    import tracemalloc
    seqs = np.random.default_rng(2).integers(0, 2, size=(1 << 17, 10)).astype(np.uint8)
    tracemalloc.start()
    try:
        typical = typical_rows(seqs, np.array([0.5, 0.5]), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert typical.any() and not typical.all()
    assert peak < 8 << 20


def test_inverse_cdf_matches_searchsorted():
    rng = np.random.default_rng(8)
    mass = np.array([0.2, 0.0, 0.5, 0.0, 0.3, 0.0])
    cdf = np.cumsum(mass)
    a = mass.size
    # random draws, every cdf value itself, and 0
    u = np.concatenate([rng.random(500), cdf, [0.0]])
    expected = np.searchsorted(cdf, u, side="right").clip(max=a - 1)
    assert np.array_equal(inverse_cdf(cdf, u), expected)
    grid = u[:504].reshape(42, 12)
    assert np.array_equal(inverse_cdf(cdf, grid),
                          np.searchsorted(cdf, grid, side="right").clip(max=a - 1))
    # per-position kernel rows, with u landing on a row's cdf values too
    kernel = np.array([[1.0, 0.0, 0.0, 0.0],
                       [0.0, 0.5, 0.0, 0.5],
                       [0.25, 0.25, 0.25, 0.25],
                       [0.0, 0.0, 0.0, 1.0]])
    cdf_rows = np.cumsum(kernel, axis=1)
    symbols = rng.integers(0, 4, size=400)
    u = rng.random(400)
    u[::7] = cdf_rows[symbols[::7], rng.integers(0, 4, size=u[::7].size)]
    expected = [min(np.searchsorted(cdf_rows[s], x, side="right"), 3)
                for s, x in zip(symbols, u)]
    assert np.array_equal(inverse_cdf(cdf_rows[symbols], u), expected)
    # a large draw, against one cdf and against per-position rows
    big = np.random.default_rng(9)
    u = np.concatenate([big.random(4 * 1024), cdf, [0.0]])
    assert np.array_equal(inverse_cdf(cdf, u),
                          np.searchsorted(cdf, u, side="right").clip(max=a - 1))
    symbols = big.integers(0, 4, size=u.size)
    expected = [min(np.searchsorted(cdf_rows[s], x, side="right"), 3)
                for s, x in zip(symbols, u)]
    assert np.array_equal(inverse_cdf(cdf_rows[symbols], u), expected)
