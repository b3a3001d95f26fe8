"""Property-based invariants for the probability and indexing primitives."""
import numpy as np
from hypothesis import given, settings, strategies as st

from stealthpath import indexing
from stealthpath.probkit import (
    Distribution,
    JointDistribution,
    SymbolSequence,
    TypicalityParams,
    entropy,
    is_strongly_typical,
    marginalize,
    mutual_information,
    variational_distance,
)
from stealthpath.ratesolver import enumerate_jam_sets


def masses(size):
    return st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size).map(
        lambda w: np.array(w) / np.sum(w))


@st.composite
def distributions(draw, max_size=6):
    k = draw(st.integers(2, max_size))
    return Distribution(k, draw(masses(k)))


@st.composite
def joint_pairs(draw):
    ka = draw(st.integers(2, 4))
    kb = draw(st.integers(2, 4))
    mass = draw(masses(ka * kb))
    return JointDistribution((ka, kb), mass)


@given(distributions())
def test_entropy_bounds(d):
    h = entropy(d)
    assert -1e-12 <= h <= np.log2(d.alphabet_size) + 1e-12


@given(joint_pairs())
def test_mutual_information_bounds(j):
    mi = mutual_information(j, [0], [1])
    ha = entropy(marginalize(j, [0]))
    hb = entropy(marginalize(j, [1]))
    assert 0.0 <= mi <= min(ha, hb) + 1e-9


@given(joint_pairs())
def test_entropy_subadditivity(j):
    h_joint = entropy(j.as_distribution())
    ha = entropy(marginalize(j, [0]))
    hb = entropy(marginalize(j, [1]))
    assert h_joint <= ha + hb + 1e-9
    assert h_joint >= max(ha, hb) - 1e-9


@given(distributions(), distributions())
def test_variational_distance_is_a_metric(p, q):
    if p.alphabet_size != q.alphabet_size:
        return
    d = variational_distance(p, q)
    assert 0.0 <= d <= 1.0
    assert d == variational_distance(q, p)
    assert variational_distance(p, p) == 0.0


@given(distributions(), distributions(), distributions())
def test_variational_distance_triangle(p, q, r):
    if not (p.alphabet_size == q.alphabet_size == r.alphabet_size):
        return
    assert variational_distance(p, r) <= \
        variational_distance(p, q) + variational_distance(q, r) + 1e-12


@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_product_marginals_recover_factors(ka, kb, data):
    a = Distribution(ka, data.draw(masses(ka)))
    b = Distribution(kb, data.draw(masses(kb)))
    j = JointDistribution.from_factors([a, b])
    assert variational_distance(marginalize(j, [0]), a) < 1e-12
    assert variational_distance(marginalize(j, [1]), b) < 1e-12
    assert mutual_information(j, [0], [1]) < 1e-9


@given(st.lists(st.integers(0, 3), min_size=4, max_size=60))
def test_sequence_is_typical_for_its_own_type(symbols):
    s = SymbolSequence(np.array(symbols))
    t = Distribution(4, np.bincount(s.symbols, minlength=4) / s.n)
    assert is_strongly_typical(s, t, TypicalityParams(gamma=1e-9))


@given(st.lists(st.integers(2, 4), min_size=1, max_size=4), st.data())
def test_pack_unpack_links_round_trip(sizes, data):
    n = data.draw(st.integers(1, 8))
    links = np.array([[data.draw(st.integers(0, s - 1)) for _ in range(n)]
                      for s in sizes])
    codes = indexing.pack_links(links, sizes)
    assert codes.max() < int(np.prod(sizes))
    np.testing.assert_array_equal(indexing.unpack_links(codes, sizes), links)


@given(st.integers(2, 5), st.integers(1, 8), st.data())
def test_pack_sequences_round_trip(alphabet, n, data):
    seq = np.array([data.draw(st.integers(0, alphabet - 1)) for _ in range(n)])
    packed = indexing.pack_sequences(seq[None, :], alphabet)
    np.testing.assert_array_equal(
        indexing.unpack_sequence(int(packed[0]), alphabet, n), seq)


@given(st.integers(1, 6), st.data())
def test_jam_family_structure(c, data):
    z = data.draw(st.integers(0, c))
    fam = enumerate_jam_sets(c, z)
    sets = list(fam)
    assert sets[0] == ()
    assert len(set(sets)) == len(sets)
    assert all(len(s) <= z for s in sets)
    assert all(tuple(sorted(s)) == s for s in sets)
    sizes = [len(s) for s in sets]
    assert sizes == sorted(sizes)  # ordered by size first
