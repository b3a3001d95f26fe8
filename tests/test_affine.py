"""The affine GF(2) codebook ensemble against enumeration at small n."""
import numpy as np
import pytest

from stealthpath import indexing, oracle
from stealthpath.adversary import SPOOF_DRAWS, JamSet, get_strategy, overwrite_jam
from stealthpath.codec import (
    MESSAGE_BUDGET,
    CodeParams,
    DecodeResult,
    ReceivedWord,
    ResourceBudgetError,
    build_affine_code,
    build_code_for_bound,
    decode_overwrite,
    encode,
)
from stealthpath.probkit import (
    Distribution,
    JointDistribution,
    typical_rows,
    variational_distance,
)
from stealthpath.ratesolver import NetworkModel, SolverConfig, solve_b
from stealthpath.rng import derive_seed, generator

FAST = SolverConfig(restarts=4)


def uniform_model(sizes=(2, 2, 2)):
    inn = JointDistribution.from_factors([Distribution.uniform(s) for s in sizes])
    return NetworkModel(len(sizes), 1, sizes, inn)


# (link sizes, n, rate, seed): N = 24, 111, 512 (a power of 2), 4096 and 90;
# the first and last have rank-deficient restrictions to two links.
SMALL_CODES = [((2, 2, 2), 2, 2.3, 0), ((2, 2, 2), 4, 1.7, 1), ((2, 2, 2), 6, 1.5, 3),
               ((2, 2, 2), 8, 1.5, 5), ((2, 4, 2), 2, 3.25, 2)]


def _all_codewords(code):
    return np.concatenate([block for _, block in code.chunks()]).astype(np.int64)


@pytest.mark.parametrize("sizes,n,rate,seed", SMALL_CODES)
def test_matching_messages_agree_with_a_chunk_scan(sizes, n, rate, seed):
    code = build_affine_code(sizes, CodeParams(n=n, rate=rate, seed=seed))
    assert code.ensemble == "affine-gf2" and code.message_count <= 1 << 12
    words = _all_codewords(code)
    for m in (1, code.message_count // 2, code.message_count):
        np.testing.assert_array_equal(code.codeword(m), words[m - 1])
    batch = np.array([[1, code.message_count], [code.message_count // 2, 2]])
    np.testing.assert_array_equal(code.codeword(batch), words[batch - 1])
    rng = generator(seed, "affine-test-targets")
    for links in ((0,), (1,), (0, 2), (1, 2), (0, 1, 2)):
        sub_sizes = [sizes[i] for i in links]
        restricted = indexing.restrict_codes(sizes, links)[words]
        for trial in range(40):
            if trial % 2:
                m = int(rng.integers(1, code.message_count + 1))
                y = code.codeword_links(m)[list(links)]
            else:
                y = np.vstack([rng.integers(0, s, size=n) for s in sub_sizes])
            target = indexing.pack_links(y, sub_sizes)
            want = np.nonzero((restricted == target[None, :]).all(axis=1))[0] + 1
            got = code.affine.matches(links, code.affine.pack(links, y), code.message_count)
            np.testing.assert_array_equal(got, want)


def test_rank_deficient_restriction_decodes_as_error():
    model = uniform_model()
    code = build_affine_code((2, 2, 2), CodeParams(n=2, rate=2.3, seed=0))
    # two links carry 4 bits of a 5-bit message index: every restriction that
    # occurs is shared by two indices, both messages when both are below N = 24
    links = (1, 2)

    def listed(m):
        y = code.codeword_links(m)[list(links)]
        return code.affine.matches(links, code.affine.pack(links, y), 2)

    shared = [m for m in range(1, code.message_count + 1) if len(listed(m)) > 1]
    assert shared
    tx = encode(code, model, 1, shared[0], tx_seed=0)
    rx = ReceivedWord(links=tx.links[None], erased=np.zeros((1, 3), dtype=bool))
    assert decode_overwrite(code, rx, model) == [DecodeResult("error")]


def test_empty_unjammed_set_lists_without_enumerating_messages():
    # Z = C puts the empty set among the candidate unjammed sets; every one of
    # the 2^32 messages agrees with the word there
    sizes = (2, 2)
    inn = JointDistribution.from_factors([Distribution.uniform(s) for s in sizes])
    model = NetworkModel(2, 2, sizes, inn, allow_symmetrizable=True)
    assert () in model.unjammed_sets
    code = build_affine_code(sizes, CodeParams(n=40, rate=0.8, seed=0))
    assert code.message_count == 1 << 32
    rng = generator(0, "affine-empty-set")
    rx = ReceivedWord(links=rng.integers(0, 2, size=(1, 2, 40)),
                      erased=np.zeros((1, 2), dtype=bool))
    assert decode_overwrite(code, rx, model) == [DecodeResult("error")]
    one = build_affine_code(sizes, CodeParams(n=40, rate=0.01, seed=0))
    assert one.message_count == 1
    assert decode_overwrite(one, rx, model) == [DecodeResult("message", message=1)]


def test_spoof_codeword_samples_its_enumerated_law():
    model = uniform_model()
    code = build_affine_code((2, 2, 2), CodeParams(n=6, rate=1.5, seed=3))
    j = JamSet((1,))
    x_j = np.zeros((1, 6), dtype=np.int64)
    strategy = get_strategy("spoof-codeword")
    law = {tuple(y.ravel()): p for p, y in strategy.outcomes(x_j, j, model, code)}
    assert sum(law.values()) == pytest.approx(1.0)
    trials = 4000
    counts = {}
    for t in range(trials):
        key = tuple(strategy.apply(x_j, j, model, code, derive_seed(5, "spoof", t)).ravel())
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law)
    for key, p in law.items():
        freq = counts.get(key, 0) / trials
        assert abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / trials) + 1.0 / trials


def test_spoof_codeword_without_typical_codewords_draws_any_codeword():
    # at gamma=0 a binary block of odd length is never typical
    model = uniform_model()
    code = build_affine_code((2, 2, 2), CodeParams(n=5, rate=1.2, seed=3))
    j = JamSet((0,))
    x_j = np.zeros((1, 5), dtype=np.int64)
    strategy = get_strategy("spoof-codeword", gamma=0.0)
    law = {tuple(y.ravel()): p for p, y in strategy.outcomes(x_j, j, model, code)}
    restrictions = {tuple(code.codeword_links(m)[0]) for m in range(1, code.message_count + 1)}
    assert set(law) == restrictions
    for t in range(5):
        y = strategy.apply(x_j, j, model, code, derive_seed(5, "spoof", t))
        assert tuple(y.ravel()) in law


@pytest.mark.parametrize("n,rate,gamma,links,blocks", [
    (6, 1.5, 0.1, (1,), 200),      # most blocks keep their first draw
    (8, 1.5, 0.0, (0, 1), 200),    # ~4% of draws typical: blocks run into later chunks
    (5, 1.2, 0.0, (0,), 3),        # never typical: all SPOOF_DRAWS draws, then the list
])
def test_spoof_codeword_batch_matches_one_draw_at_a_time(n, rate, gamma, links, blocks):
    model = uniform_model()
    code = build_affine_code((2, 2, 2), CodeParams(n=n, rate=rate, seed=3))
    j = JamSet(links)
    restrict = indexing.restrict_codes(code.link_sizes, links)
    mass = indexing.restriction_matrix(code.link_sizes, links) @ code.p_x.mass
    words = restrict[_all_codewords(code)]
    cand = np.flatnonzero(typical_rows(words, mass, gamma)) + 1
    cand = cand if cand.size else np.arange(1, code.message_count + 1)

    def one_at_a_time(seed):
        rng = generator(seed, "spoof")
        for _ in range(SPOOF_DRAWS):
            m = int(rng.integers(0, code.message_count)) + 1
            if typical_rows(words[m - 1][None, :], mass, gamma)[0]:
                return m
        return int(cand[rng.integers(0, cand.size)])

    seeds = np.array([derive_seed(9, "spoof-batch", t) for t in range(blocks)], dtype=object)
    x_j = np.zeros((blocks, len(links), n), dtype=np.int64)
    got = get_strategy("spoof-codeword", gamma=gamma).apply(x_j, j, model, code, seeds)
    want = code.codeword_links(np.array([one_at_a_time(s) for s in seeds]))[:, list(links)]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n,rate", [(6, 1.5), (8, 0.5)])
def test_spoof_consistent_matches_enumerated_best(n, rate):
    """At n=8, rate 0.5 most observations match no codeword exactly."""
    model = uniform_model()
    code = build_affine_code((2, 2, 2), CodeParams(n=n, rate=rate, seed=4))
    words = _all_codewords(code)
    strategy = get_strategy("spoof-consistent")
    rng = generator(4, "consistent-observations")
    for j in ((0,), (2,)):
        jam = JamSet(j)
        restricted = indexing.restrict_codes((2, 2, 2), j)[words]
        for _ in range(30):
            x_j = rng.integers(0, 2, size=(1, n))
            best = int(np.argmax((restricted == x_j[0][None, :]).sum(axis=1))) + 1
            want = code.codeword_links(best)[list(j)]
            np.testing.assert_array_equal(strategy.apply(x_j, jam, model, code, 0), want)
            (p, y), = strategy.outcomes(x_j, jam, model, code)
            np.testing.assert_array_equal(y, want)


@pytest.mark.parametrize("sizes,n,rate,seed", SMALL_CODES)
def test_subcube_stealth_gap_matches_enumeration(sizes, n, rate, seed):
    model = uniform_model(sizes)
    code = build_affine_code(sizes, CodeParams(n=n, rate=rate, seed=seed))
    for links in ((0,), (1,), (2,)):
        j = JamSet(links)
        enumerated = variational_distance(oracle.exact_active_marginal(code, j),
                                          oracle.exact_innocent_marginal(model, j, n))
        assert oracle.exact_stealth_gap(code, model, j) == pytest.approx(enumerated,
                                                                         abs=1e-12)


@pytest.mark.parametrize("strategy_id",
                         ["resample-innocent", "spoof-codeword", "spoof-consistent"])
def test_monte_carlo_error_matches_exact_components(strategy_id):
    model = uniform_model()
    code = build_affine_code((2, 2, 2), CodeParams(n=4, rate=1.5, seed=6))
    j = JamSet((0,))
    strategy = get_strategy(strategy_id)
    err0_exact, err1_exact = oracle.exact_error_components(code, model, j, strategy)
    trials = 1500
    err = [0, 0]
    for t in range(trials):
        for hyp in (0, 1):
            m = 0 if hyp == 0 else derive_seed(11, "msg", t) % code.message_count + 1
            tx = encode(code, model, hyp, m, derive_seed(11, "tx", hyp, t))
            rx = overwrite_jam(tx, j, strategy, derive_seed(11, "jam", hyp, t), model, code)
            result, = decode_overwrite(code, ReceivedWord(rx.links[None], rx.erased[None]),
                                       model)
            err[hyp] += result.verdict != "innocent" if hyp == 0 else \
                not (result.verdict == "message" and result.message == m)
    se = np.sqrt(err0_exact * (1 - err0_exact) / trials +
                 err1_exact * (1 - err1_exact) / trials)
    assert abs((err[0] + err[1]) / trials - (err0_exact + err1_exact)) <= 3 * se + 1e-9


def test_affine_ensemble_only_where_the_iid_build_is_over_budget():
    model = uniform_model()
    sol = solve_b(model, FAST)
    small = build_code_for_bound(model, sol, CodeParams(n=8, rate=1.7, seed=7))
    assert small.ensemble == "iid" and small.affine is None
    np.testing.assert_array_equal(small.p_x.mass, sol.p_x.mass)

    params = CodeParams(n=24, rate=1.7, seed=7)
    assert params.message_count > MESSAGE_BUDGET
    big = build_code_for_bound(model, sol, params)
    assert big.ensemble == "affine-gf2"
    np.testing.assert_allclose(big.p_x.mass, np.full(8, 1 / 8))

    # the uniform law is not feasible for biased bits
    inn = JointDistribution.from_factors([Distribution.bernoulli(0.3)] * 3)
    biased = NetworkModel(3, 1, (2, 2, 2), inn)
    with pytest.raises(ResourceBudgetError):
        build_code_for_bound(biased, solve_b(biased, FAST), params)
    # the uniform law is optimal but the alphabets are not powers of 2
    ternary = uniform_model((3, 3, 3))
    with pytest.raises(ResourceBudgetError):
        build_code_for_bound(ternary, solve_b(ternary, FAST),
                             CodeParams(n=24, rate=1.4, seed=7))


def test_affine_message_count_limit():
    assert build_affine_code((2, 2, 2), CodeParams(n=62, rate=1.0, seed=0)).affine.k == 62
    with pytest.raises(ResourceBudgetError):
        build_affine_code((2, 2, 2), CodeParams(n=63, rate=1.0, seed=0))
    big = build_affine_code((2, 2, 2), CodeParams(n=24, rate=1.7, seed=7))
    with pytest.raises(ResourceBudgetError):
        next(big.chunks())
