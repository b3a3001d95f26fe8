import numpy as np
import pytest

from stealthpath import indexing, oracle
from stealthpath.adversary import JamSet, get_strategy
from stealthpath.codec import (
    CodeParams,
    ResourceBudgetError,
    build_direct_code,
    build_layered_code,
)
from stealthpath.probkit import (
    ConditionalKernel,
    Distribution,
    JointDistribution,
    TypicalityParams,
    variational_distance,
)
from stealthpath.ratesolver import NetworkModel


def uniform_model(c=3, z=1, **kw):
    inn = JointDistribution.from_factors([Distribution.uniform(2)] * c)
    return NetworkModel(c, z, (2,) * c, inn, **kw)


MODEL = uniform_model()


def test_exact_active_marginal_single_codeword():
    code = build_direct_code(MODEL.innocent, CodeParams(n=3, rate=0.1, seed=2))
    assert code.message_count == 1
    marg = oracle.exact_active_marginal(code, JamSet((0,)))
    assert (marg.mass == 1.0).sum() == 1  # point mass on the codeword restriction


def test_exact_active_marginal_two_codewords_average():
    inn1 = JointDistribution.from_factors([Distribution.uniform(2)])
    model1 = NetworkModel(1, 0, (2,), inn1)
    code = build_direct_code(inn1, CodeParams(n=1, rate=1.0, seed=0))
    assert code.message_count == 2
    marg = oracle.exact_active_marginal(code, JamSet((0,)))
    expected = np.zeros(2)
    for m in (1, 2):
        expected[code.codeword(m)[0]] += 0.5
    np.testing.assert_allclose(marg.mass, expected)


def test_exact_active_marginal_sums_to_one():
    code = build_direct_code(MODEL.innocent, CodeParams(n=4, rate=1.0, seed=5))
    for j in ((0,), (1,), (2,)):
        marg = oracle.exact_active_marginal(code, JamSet(j))
        assert abs(marg.mass.sum() - 1.0) < 1e-10


def test_exact_marginal_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MARGINAL_BUDGET", 8)
    code = build_direct_code(MODEL.innocent, CodeParams(n=10, rate=1.0, seed=5))
    with pytest.raises(ResourceBudgetError):
        oracle.exact_active_marginal(code, JamSet((0,)))


def test_empty_jam_set_marginals_at_long_blocklengths():
    # the empty set's observation space is 1 at any n; a linked set at n=64
    # is refused by the budget
    code = build_direct_code(MODEL.innocent, CodeParams(n=64, rate=0.2, seed=1))
    for marg in (oracle.exact_innocent_marginal(MODEL, JamSet(()), 64),
                 oracle.exact_active_marginal(code, JamSet(()))):
        assert marg.alphabet_size == 1 and marg.mass.tolist() == [1.0]
    with pytest.raises(ResourceBudgetError, match=r"2\^64 exceeds budget"):
        oracle.exact_innocent_marginal(MODEL, JamSet((0,)), 64)
    with pytest.raises(ResourceBudgetError, match="exceeds budget"):
        oracle.exact_active_marginal(code, JamSet((0,)))


def test_stealth_gap_zero_for_full_enumeration_code():
    # n=1 over one binary link: the 2-message code at seed swept until it
    # enumerates both symbols equally weights the alphabet, giving gap 0
    inn1 = JointDistribution.from_factors([Distribution.uniform(2)])
    model1 = NetworkModel(1, 0, (2,), inn1)
    for seed in range(20):
        code = build_direct_code(inn1, CodeParams(n=1, rate=1.0, seed=seed))
        if len({int(code.codeword(1)[0]), int(code.codeword(2)[0])}) == 2:
            gap = oracle.exact_stealth_gap(code, model1, JamSet((0,)))
            assert gap == 0.0
            return
    pytest.fail("no seed produced two distinct single-symbol codewords")


def test_stealth_gap_amplifies_with_n():
    # codewords drawn from a skewed law against a uniform innocent
    skew = JointDistribution.from_factors(
        [Distribution.bernoulli(0.1)] + [Distribution.uniform(2)] * 2)
    single = variational_distance(Distribution.bernoulli(0.1), Distribution.uniform(2))
    gaps = []
    for n in (1, 2, 4):
        code = build_direct_code(skew, CodeParams(n=n, rate=12.0 / n, seed=3))
        gaps.append(oracle.exact_stealth_gap(code, MODEL, JamSet((0,))))
    assert gaps[0] == pytest.approx(single, abs=0.02)
    assert gaps[0] <= gaps[1] + 0.02 and gaps[1] <= gaps[2] + 0.02


def test_detector_identity_matches_gap():
    for seed in range(3):
        code = build_direct_code(MODEL.innocent, CodeParams(n=4, rate=0.75, seed=seed))
        for j in ((0,), (1,), (2,)):
            alpha, beta, ab = oracle.exhaustive_best_detector(code, MODEL, JamSet(j))
            gap = oracle.exact_stealth_gap(code, MODEL, JamSet(j))
            assert ab == pytest.approx(1.0 - gap, abs=1e-12)


def test_brute_force_detector_enumeration_agrees():
    code = build_direct_code(MODEL.innocent, CodeParams(n=2, rate=1.0, seed=1))
    j = JamSet((0,))
    inn = oracle.exact_innocent_marginal(MODEL, j, 2)
    act = oracle.exact_active_marginal(code, j)
    best = oracle.brute_force_min_ab(inn, act)
    _, _, ab = oracle.exhaustive_best_detector(code, MODEL, j)
    assert best == pytest.approx(ab, abs=0.0)


def test_gap_partition_resums_exactly():
    code = build_direct_code(MODEL.innocent, CodeParams(n=4, rate=0.75, seed=2))
    j = JamSet((1,))
    gap = oracle.exact_stealth_gap(code, MODEL, j)
    typ, atyp = oracle.stealth_gap_partition(code, MODEL, j, TypicalityParams(0.5))
    assert typ + atyp == pytest.approx(gap, abs=1e-15)


def test_exact_error_passthrough_active_component_zero():
    # distinct codewords without restriction collisions decode perfectly
    for seed in range(10):
        code = build_direct_code(MODEL.innocent, CodeParams(n=4, rate=0.5, seed=seed))
        packed = [tuple(code.codeword(m)) for m in range(1, code.message_count + 1)]
        if len(set(packed)) == len(packed):
            _, err1 = oracle.exact_error_components(
                code, MODEL, JamSet((0,)), get_strategy("passthrough"))
            if err1 == 0.0:
                return
    pytest.fail("no collision-free codebook found in 10 seeds")


def test_exact_error_symmetrize():
    model2 = uniform_model(c=2, z=1, allow_symmetrizable=True)
    code2 = build_direct_code(model2.innocent, CodeParams(n=4, rate=0.25, seed=1))
    assert code2.message_count == 2
    p = oracle.exact_error_probability(code2, model2, JamSet((0,)),
                                       get_strategy("symmetrize"))
    assert p >= 0.25


def test_exact_error_erasure_layered():
    code = build_layered_code(MODEL.innocent.as_distribution(),
                              ConditionalKernel.identity(8),
                              CodeParams(n=4, rate=0.5, seed=3), (2, 2, 2))
    err0, err1 = oracle.exact_error_components(code, MODEL, JamSet((2,)), "erasure")
    assert err1 == 0.0  # no two codewords agree on links 0 and 1
    assert 0.0 <= err0 <= 0.1


def test_batched_erasure_error_components_match_a_per_word_loop(monkeypatch):
    from stealthpath.codec import ReceivedWord, decode_erasure

    def decode_one(code, rx, model):
        result, = decode_erasure(code, ReceivedWord(rx.links[None], rx.erased[None]), model)
        return result
    # batches of 7 words: boundaries fall inside the innocent blocks and
    # inside the messages
    monkeypatch.setattr(oracle, "_DECODE_BATCH", 7)
    # the identity kernel with no link erased, and with link 1 erased; at
    # these rates some codewords agree on every unerased link, so both
    # hypotheses err
    codes = [
        build_layered_code(MODEL.innocent.as_distribution(), ConditionalKernel.identity(8),
                           CodeParams(n=4, rate=rate, seed=seed), (2, 2, 2))
        for rate, seed in ((2.0, 3), (1.5, 3))
    ]
    for code, j in zip(codes, (JamSet(()), JamSet((1,)))):
        err0 = 0.0
        for p_block, links in oracle._innocent_blocks(MODEL, 4):
            for p_rx, rx in oracle._received_words(links, j, "erasure", MODEL, code):
                if decode_one(code, rx, MODEL).verdict != "innocent":
                    err0 += p_block * p_rx
        err1 = 0.0
        for m in range(1, code.message_count + 1):
            links = code.codeword_links(m)
            for p_rx, rx in oracle._received_words(links, j, "erasure", MODEL, code):
                result = decode_one(code, rx, MODEL)
                if not (result.verdict == "message" and result.message == m):
                    err1 += p_rx / code.message_count
        assert 0 < err0 < 1 and 0 < err1 < 1
        assert oracle.exact_error_components(code, MODEL, j, "erasure") == (err0, err1)


def test_grid_solve_b_uniform():
    sol = oracle.grid_solve_b(uniform_model(), 1e-2)
    assert sol.feasible
    assert sol.value == pytest.approx(2.0, abs=1e-2)


def test_grid_solve_b_biased():
    inn = JointDistribution.from_factors([Distribution.bernoulli(0.3)] * 3)
    sol = oracle.grid_solve_b(NetworkModel(3, 1, (2, 2, 2), inn), 1e-2)
    assert sol.value == pytest.approx(1.76258, abs=1e-2)


def test_grid_solve_b_z_zero():
    inn = JointDistribution.from_factors([Distribution.bernoulli(0.3)] * 2)
    sol = oracle.grid_solve_b(NetworkModel(2, 0, (2, 2), inn))
    assert sol.value == pytest.approx(2.0, abs=1e-12)  # log2 of the product alphabet


def test_grid_solve_b_dimension_guard():
    inn = JointDistribution.from_factors([Distribution.uniform(3)] * 3)
    with pytest.raises(ResourceBudgetError):
        oracle.grid_solve_b(NetworkModel(3, 1, (3, 3, 3), inn))


def test_layered_marginal_matches_a_per_codeword_kron_loop(monkeypatch):
    # the layered marginal, once a per-codeword product of kernel rows, is the
    # codewords' histogram: byte for byte on an identity kernel with zero-mass
    # padding letters, as solve_a builds it
    from stealthpath import codec, indexing
    # a streaming code in chunks of 5 codewords: a boundary falls mid-code
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 5)
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", 0)
    kernel = np.vstack([np.eye(8), np.full((3, 8), 1 / 8)])
    code = build_layered_code(Distribution(11, np.r_[np.arange(1, 9) / 36, 0, 0, 0]),
                              ConditionalKernel(11, 8, kernel),
                              CodeParams(n=4, rate=1.2, seed=3), (2, 2, 2))
    assert not code.materialized
    for links in ((0,), (1, 2)):
        rows = kernel @ indexing.restriction_matrix((2, 2, 2), links).T
        space = rows.shape[1] ** 4
        mass = np.zeros(space)
        for m in range(1, code.message_count + 1):
            v = np.array([1.0])
            for u in code.codeword(m):
                v = np.kron(v, rows[int(u)])
            mass += v
        want = Distribution(space, mass / code.message_count)
        got = oracle.exact_active_marginal(code, JamSet(links))
        assert np.array_equal(got.mass, want.mass)


def test_gap_partition_matches_a_per_observation_loop():
    model = NetworkModel(3, 1, (2, 2, 2), JointDistribution.from_factors(
        [Distribution(2, np.array([0.7, 0.3]))] * 3))
    code = build_direct_code(model.innocent, CodeParams(n=6, rate=0.75, seed=1))
    j = JamSet((0,))
    tp = TypicalityParams(0.3)
    active = oracle.exact_active_marginal(code, j)
    innocent = oracle.exact_innocent_marginal(model, j, 6)
    single = np.array([0.7, 0.3])
    typ, atyp = 0.0, 0.0
    for idx in range(active.alphabet_size):
        counts = np.bincount(indexing.unpack_sequence(idx, 2, 6), minlength=2)
        diff = 0.5 * abs(active.mass[idx] - innocent.mass[idx])
        if float(np.abs(counts / 6 - single).sum()) <= tp.gamma:
            typ += diff
        else:
            atyp += diff
    got = oracle.stealth_gap_partition(code, model, j, tp)
    assert got == pytest.approx((typ, atyp), abs=1e-15)
    assert typ > 0 and atyp > 0
