import numpy as np
import pytest

from stealthpath import indexing, oracle
from stealthpath.adversary import (
    JammingStrategy,
    JamSet,
    STRATEGY_IDS,
    erasure_jam,
    get_strategy,
    list_strategies,
    optimal_detect,
    overwrite_jam,
    pack_observation,
)
from stealthpath.codec import CodeParams, build_direct_code, encode
from stealthpath.probkit import Distribution, JointDistribution, typical_rows
from stealthpath.ratesolver import NetworkModel


def uniform_model(c=3, z=1, **kw):
    inn = JointDistribution.from_factors([Distribution.uniform(2)] * c)
    return NetworkModel(c, z, (2,) * c, inn, **kw)


MODEL = uniform_model()
CODE = build_direct_code(MODEL.innocent, CodeParams(n=8, rate=1.0, seed=3))


def test_jam_set_validation():
    JamSet((2,)).validate(MODEL)
    with pytest.raises(ValueError):
        JamSet((0, 0))
    with pytest.raises(ValueError):
        JamSet((0, 1)).validate(MODEL)  # exceeds Z
    with pytest.raises(ValueError):
        JamSet((5,)).validate(MODEL)
    assert JamSet((2, 0)).links == (0, 2)
    assert JamSet((1,)).complement(3) == (0, 2)


def test_erasure_jam_marks_exactly_j():
    tx = encode(CODE, MODEL, 1, 4, 0)
    rx = erasure_jam(tx, JamSet((1,)))
    assert rx.erased.tolist() == [False, True, False]
    np.testing.assert_array_equal(rx.links[0], tx.links[0])
    np.testing.assert_array_equal(rx.links[2], tx.links[2])
    # erased rows carry no information about the transmitted symbols
    assert (rx.links[1] == 0).all()
    rx_empty = erasure_jam(tx, JamSet(()))
    assert not rx_empty.erased.any()
    np.testing.assert_array_equal(rx_empty.links, tx.links)


class _Refuses(JammingStrategy):
    id = "refuses"

    def apply(self, x_j, j, model, code, seed):
        raise AssertionError("apply called")

    def outcomes(self, x_j, j, model, code):
        raise AssertionError("outcomes called")


def test_strategies_never_see_the_empty_jam_set():
    tx = encode(CODE, MODEL, 1, np.array([4, 5]), [0, 1])
    rx = overwrite_jam(tx, JamSet(()), _Refuses(), None, MODEL, CODE)
    np.testing.assert_array_equal(rx.links, tx.links)
    assert not rx.erased.any()
    small = build_direct_code(MODEL.innocent, CodeParams(n=3, rate=1.0, seed=3))
    assert oracle.exact_error_components(small, MODEL, JamSet(()), _Refuses()) == \
        oracle.exact_error_components(small, MODEL, JamSet(()), get_strategy("passthrough"))


def test_strategy_registry():
    ids = [s["id"] for s in list_strategies()]
    assert set(ids) == set(STRATEGY_IDS)
    assert "spoof-codeword" in ids
    with pytest.raises(ValueError):
        get_strategy("no-such-strategy")


def test_passthrough_is_identity():
    tx = encode(CODE, MODEL, 1, 4, 0)
    rx = overwrite_jam(tx, JamSet((0,)), get_strategy("passthrough"), 1, MODEL, CODE)
    np.testing.assert_array_equal(rx.links, tx.links)
    assert not rx.erased.any()


def test_overwrite_never_touches_unjammed_links():
    tx = encode(CODE, MODEL, 1, 4, 0)
    for sid in ("uniform-random", "resample-innocent", "spoof-codeword",
                "spoof-consistent"):
        rx = overwrite_jam(tx, JamSet((1,)), get_strategy(sid), 7, MODEL, CODE)
        np.testing.assert_array_equal(rx.links[[0, 2]], tx.links[[0, 2]])


def test_resample_innocent_frequencies():
    tx = encode(CODE, MODEL, 1, 4, 0)
    strat = get_strategy("resample-innocent")
    draws = np.concatenate([
        overwrite_jam(tx, JamSet((0,)), strat, s, MODEL, CODE).links[0]
        for s in range(500)])
    freq = np.bincount(draws, minlength=2) / draws.size
    np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.03)


def test_spoof_codeword_writes_a_codeword_restriction():
    tx = encode(CODE, MODEL, 1, 4, 0)
    strat = get_strategy("spoof-codeword")
    rx = overwrite_jam(tx, JamSet((0,)), strat, 5, MODEL, CODE)
    restrictions = [CODE.codeword_links(m)[[0]] for m in range(1, CODE.message_count + 1)]
    assert any(np.array_equal(rx.links[[0]], r) for r in restrictions)


def _scanned_candidates(code, j, gamma):
    """spoof-codeword's candidates by the per-codeword scan: every codeword's
    jammed restriction through `typical_rows`, all messages if none passes."""
    restrict = indexing.restrict_codes(code.link_sizes, j.links)
    mass = indexing.restriction_matrix(code.link_sizes, j.links) @ code.p_x.mass
    messages = np.arange(1, code.message_count + 1)
    typical = typical_rows(restrict[code.codeword(messages)], mass, gamma)
    return messages[typical] if typical.any() else messages


def _joint(sizes, rng):
    return JointDistribution(tuple(sizes), rng.dirichlet(np.ones(int(np.prod(sizes)))))


def test_spoof_candidates_match_the_per_codeword_scan(monkeypatch):
    import dataclasses
    import itertools
    from stealthpath import codec
    from stealthpath.codec import build_affine_code
    rng = np.random.default_rng(20)
    # uniform binary links (an L1 tie at gamma = 2/n), a random law, and one
    # whose marginals have a zero-mass letter
    laws = [JointDistribution.from_factors([Distribution.uniform(2)] * 3),
            _joint((3, 2, 4), rng),
            JointDistribution.from_factors([Distribution.uniform(2),
                                            Distribution(3, np.array([0.5, 0.5, 0.0]))])]
    cases, fallbacks, subsets = 0, 0, 0

    def check(code, sets, gammas):
        nonlocal cases, fallbacks, subsets
        for links, gamma in itertools.product(sets, gammas):
            j = JamSet(links)
            want = _scanned_candidates(code, j, gamma)
            got = get_strategy("spoof-codeword", gamma=gamma)._candidates(code, j)
            assert np.array_equal(got, want), (code.link_sizes, code.params.n, links, gamma)
            cases += 1
            fallbacks += want.size == code.message_count
            subsets += want.size < code.message_count

    for law, n in itertools.product(laws, (3, 6, 9)):
        c = len(law.factor_sizes)
        sets = [s for k in (1, 2) for s in itertools.combinations(range(c), k)]
        code = build_direct_code(law, CodeParams(n=n, rate=7 / n, seed=n))
        assert code.materialized
        check(code, sets, (0.0, 0.1, 2 / n, 0.5, 1.0))
        if law is laws[2]:
            # the code's letters judged against a law that gives some of
            # them no mass: the zero-mass test, on types
            full = JointDistribution.from_factors([Distribution.uniform(2),
                                                   Distribution.uniform(3)])
            check(dataclasses.replace(build_direct_code(full, code.params), p_x=law), sets,
                  (0.5, 1.0))
    # a streaming code, over several chunks on the pool, and an affine code
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", 0)
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 16)
    streaming = build_direct_code(laws[1], CodeParams(n=6, rate=7 / 6, seed=4))
    assert not streaming.materialized and streaming.message_count > 4 * 16
    check(streaming, [(0,), (1, 2)], (0.5, 1.0))
    affine = build_affine_code((2, 2, 2), CodeParams(n=6, rate=7 / 6, seed=5))
    assert affine.affine is not None and affine.message_count > 4 * 16
    check(affine, [(0,), (0, 2)], (2 / 6, 0.5))
    assert fallbacks and subsets and cases == 3 * 15 * 5 + 3 * 3 * 2 + 4 + 4


def test_spoof_candidates_scan_each_codeword_where_the_type_key_overflows(monkeypatch):
    # two 8-letter links: 64 jammed letters, (n+1)**64 > 2**63 at any n, so no
    # type key is folded; one link's 8 letters, (n+1)**8 <= 2**63, are keyed
    folds = []
    original = indexing.fold_sequences
    monkeypatch.setattr(indexing, "fold_sequences", lambda *a: folds.append(a) or original(*a))
    rng = np.random.default_rng(21)
    code = build_direct_code(_joint((8, 8), rng), CodeParams(n=3, rate=3.0, seed=2))
    for links, keyed in (((0, 1), False), ((1,), True)):
        folds.clear()
        for gamma in (0.5, 1.0, 1.5):
            j = JamSet(links)
            assert np.array_equal(
                get_strategy("spoof-codeword", gamma=gamma)._candidates(code, j),
                _scanned_candidates(code, j, gamma))
        assert bool(folds) == keyed


def test_spoof_candidates_memory_is_bounded():
    # one type key per codeword, not an (N, n) int64 restriction
    import tracemalloc
    code = build_direct_code(MODEL.innocent, CodeParams(n=10, rate=1.7, seed=1))
    assert code.materialized and code.message_count == 1 << 17
    strategy = get_strategy("spoof-codeword")
    tracemalloc.start()
    try:
        cand = strategy._candidates(code, JamSet((0,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < cand.size < code.message_count
    assert peak < 8 << 20


def test_spoof_consistent_prefers_agreement():
    m = 6
    tx = encode(CODE, MODEL, 1, m, 0)
    strat = get_strategy("spoof-consistent")
    rx = overwrite_jam(tx, JamSet((0,)), strat, 5, MODEL, CODE)
    # the observed block IS a codeword restriction, so agreement is perfect
    np.testing.assert_array_equal(rx.links[0], tx.links[0])


def test_symmetrize_requires_half_the_links():
    tx = encode(CODE, MODEL, 1, 4, 0)
    with pytest.raises(ValueError):
        overwrite_jam(tx, JamSet((0,)), get_strategy("symmetrize"), 1, MODEL, CODE)
    model2 = uniform_model(c=2, z=1, allow_symmetrizable=True)
    code2 = build_direct_code(model2.innocent, CodeParams(n=4, rate=0.25, seed=1))
    tx2 = encode(code2, model2, 1, 1, 0)
    rx2 = overwrite_jam(tx2, JamSet((0,)), get_strategy("symmetrize"), 1, model2, code2)
    fakes = [code2.codeword_links(m)[[0]] for m in range(1, code2.message_count + 1)]
    assert any(np.array_equal(rx2.links[[0]], f) for f in fakes)


def test_strategy_outcomes_are_distributions():
    tx = encode(CODE, MODEL, 1, 4, 0)
    x_j = tx.links[[0]]
    for sid in ("passthrough", "uniform-random", "resample-innocent",
                "spoof-codeword", "spoof-consistent"):
        outcomes = get_strategy(sid).outcomes(x_j, JamSet((0,)), MODEL, CODE)
        total = sum(p for p, _ in outcomes)
        assert total == pytest.approx(1.0, abs=1e-9)
        for _, y in outcomes:
            assert y.shape == x_j.shape


def test_pack_observation():
    x = np.array([[1, 0], [0, 1]])
    # product codes (2, 1) base 2 -> sequence 2*2+1
    assert pack_observation(x, [2, 2]) == 9


def test_optimal_detect_identical_marginals_always_innocent():
    d = Distribution.uniform(4)
    x = np.array([[1], [0]])
    assert optimal_detect(x, [2, 2], d, d) == 0


def test_optimal_detect_disjoint_supports():
    inn = Distribution(2, np.array([1.0, 0.0]))
    act = Distribution(2, np.array([0.0, 1.0]))
    assert optimal_detect(np.array([[0]]), [2], inn, act) == 0
    assert optimal_detect(np.array([[1]]), [2], inn, act) == 1


def test_strategy_tables_follow_their_code():
    # one strategy instance across codes built and freed in turn, so a code can
    # take the address of the one before it; its tables must not carry over
    spoof, consistent = get_strategy("spoof-codeword"), get_strategy("spoof-consistent")
    j = JamSet((1,))
    for seed in range(8):
        code = build_direct_code(MODEL.innocent, CodeParams(n=6, rate=1.0, seed=seed))
        x_j = code.codeword_links(1)[[1]] ^ 1
        for strategy in (spoof, consistent):
            fresh = get_strategy(strategy.id)
            assert np.array_equal(strategy.apply(x_j, j, MODEL, code, seed),
                                  fresh.apply(x_j, j, MODEL, code, seed))
        del code


def test_per_transmission_tables_are_built_once_per_code(monkeypatch):
    from stealthpath.codec import (ReceivedWord, build_layered_code, decode_erasure,
                                   decode_overwrite)
    from stealthpath.probkit import ConditionalKernel
    calls = []
    original = indexing.restriction_matrix
    monkeypatch.setattr(indexing, "restriction_matrix",
                        lambda *a: calls.append(a) or original(*a))
    layered = build_layered_code(Distribution.uniform(8), ConditionalKernel.identity(8),
                                 CodeParams(n=6, rate=0.5, seed=2), (2, 2, 2))
    strategy = get_strategy("resample-innocent")

    def transmissions(ts):
        for t in ts:
            j = JamSet((t % 3,))
            tx = encode(CODE, MODEL, t % 2, t % 2 * (1 + t % CODE.message_count), t)
            rx = overwrite_jam(tx, j, strategy, t, MODEL, CODE)
            decode_overwrite(CODE, ReceivedWord(rx.links[None], rx.erased[None]), MODEL)
            tx = encode(layered, MODEL, 1, np.array([1 + t % layered.message_count]), [t])
            decode_erasure(layered, erasure_jam(tx, j), MODEL)

    transmissions(range(10))  # 20 transmissions
    warm = len(calls)
    transmissions(range(10, 50))  # 80 more
    assert warm > 0 and len(calls) == warm


@pytest.mark.parametrize("sid", STRATEGY_IDS)
def test_a_batch_draws_what_one_call_per_block_draws(sid):
    # 40 blocks in one batch against one call per block
    from stealthpath.codec import build_layered_code
    from stealthpath.probkit import ConditionalKernel
    model = uniform_model(c=2, z=0, allow_symmetrizable=True) if sid == "symmetrize" \
        else MODEL
    code = build_direct_code(model.innocent, CodeParams(n=8, rate=1.0, seed=3))
    layered = build_layered_code(model.innocent.as_distribution(),
                                 ConditionalKernel.identity(model.product_alphabet_size),
                                 CodeParams(n=8, rate=0.25, seed=2), model.link_alphabet_sizes)
    strategy, j = get_strategy(sid), JamSet((0,))
    seeds = np.arange(100, 140)
    messages = seeds % code.message_count + 1
    for c, hyp in ((code, 0), (code, 1), (layered, 1)):
        m = messages % c.message_count + 1 if hyp else np.zeros_like(seeds)
        batch = encode(c, model, hyp, m, seeds)
        assert batch.links.shape == (40, model.link_count, 8)
        for t in range(40):
            np.testing.assert_array_equal(
                batch.links[t], encode(c, model, hyp, int(m[t]), int(seeds[t])).links)
    tx = encode(code, model, 1, messages, seeds)
    rx = overwrite_jam(tx, j, strategy, seeds + 7, model, code)
    erased = erasure_jam(tx, j)
    sizes = [model.link_alphabet_sizes[i] for i in j.links]
    act = oracle.exact_active_marginal(code, j)
    inn = oracle.exact_innocent_marginal(model, j, 8)
    verdicts = optimal_detect(tx.links[:, list(j.links)], sizes, inn, act)
    for t in range(40):
        tx_t = encode(code, model, 1, int(messages[t]), int(seeds[t]))
        np.testing.assert_array_equal(
            rx.links[t], overwrite_jam(tx_t, j, strategy, int(seeds[t]) + 7, model, code).links)
        np.testing.assert_array_equal(erased.links[t], erasure_jam(tx_t, j).links)
        np.testing.assert_array_equal(erased.erased[t], erasure_jam(tx_t, j).erased)
        assert verdicts[t] == optimal_detect(tx.links[t][list(j.links)], sizes, inn, act)
