import dataclasses

import numpy as np
import pytest

from stealthpath import indexing
from stealthpath.codec import (
    CodeParams,
    DecodeResult,
    ReceivedWord,
    ResourceBudgetError,
    Transmission,
    _ChunkedStore,
    build_direct_code,
    build_layered_code,
    decode_erasure,
    decode_overwrite,
    encode,
    pair_membership,
    survey_restrictions,
)
from stealthpath.probkit import (
    ConditionalKernel,
    Distribution,
    JointDistribution,
    inverse_cdf,
)
from stealthpath.ratesolver import NetworkModel
from stealthpath.rng import generator


def uniform_model(c=3, z=1):
    inn = JointDistribution.from_factors([Distribution.uniform(2)] * c)
    return NetworkModel(c, z, (2,) * c, inn)


MODEL = uniform_model()
UNIFORM8 = MODEL.innocent
# the unjammed sets of MODEL that contain no other one: its index's sets
MINIMAL_SETS = ((1, 2), (0, 2), (0, 1))


def test_code_params_message_count():
    assert CodeParams(n=8, rate=1.5, seed=0).message_count == 4096
    assert CodeParams(n=1, rate=0.5, seed=0).message_count == 1
    with pytest.raises(ValueError):
        CodeParams(n=0, rate=1.0, seed=0)
    with pytest.raises(ValueError):
        CodeParams(n=4, rate=0.0, seed=0)


def test_astronomical_message_count_raises():
    with pytest.raises(ResourceBudgetError):
        CodeParams(n=1000, rate=1.5, seed=0).message_count
    # over the hard message budget but representable
    with pytest.raises(ResourceBudgetError):
        build_direct_code(UNIFORM8, CodeParams(n=64, rate=1.7, seed=0))


def test_direct_code_deterministic():
    params = CodeParams(n=6, rate=1.0, seed=42)
    a = build_direct_code(UNIFORM8, params)
    b = build_direct_code(UNIFORM8, params)
    for m in range(1, a.message_count + 1):
        np.testing.assert_array_equal(a.codeword(m), b.codeword(m))
    c = build_direct_code(UNIFORM8, CodeParams(n=6, rate=1.0, seed=43))
    assert any(not np.array_equal(a.codeword(m), c.codeword(m))
               for m in range(1, a.message_count + 1))


def test_single_codeword_code():
    params = CodeParams(n=4, rate=0.1, seed=9)
    code = build_direct_code(UNIFORM8, params)
    assert code.message_count == 1
    np.testing.assert_array_equal(code.codeword(1),
                                  build_direct_code(UNIFORM8, params).codeword(1))


def test_point_mass_code_is_constant():
    pm = JointDistribution((2, 2, 2), np.eye(8)[5])
    code = build_direct_code(pm, CodeParams(n=5, rate=1.0, seed=3))
    for m in range(1, code.message_count + 1):
        assert (code.codeword(m) == 5).all()


def test_codeword_symbol_frequencies_near_uniform():
    # N=4096 draws of 8 symbols each: empirical frequency within 0.02
    code = build_direct_code(UNIFORM8, CodeParams(n=8, rate=1.5, seed=1))
    counts = np.zeros(8)
    for _, block in code.chunks():
        counts += np.bincount(block.ravel(), minlength=8)
    freq = counts / counts.sum()
    np.testing.assert_allclose(freq, np.full(8, 1 / 8), atol=0.02)


SKEW8 = JointDistribution((2, 2, 2), np.array([.2, .1, .1, .15, .1, .1, .15, .1]))
# solve_a's shape of auxiliary law and kernel: SKEW8 on the first 8 letters,
# then zero-mass padding letters with uniform kernel rows
SKEW_U = Distribution(11, np.r_[SKEW8.mass, 0.0, 0.0, 0.0])
PADDED_IDENTITY = ConditionalKernel(11, 8, np.vstack([np.eye(8), np.full((3, 8), 1 / 8)]))


def skew_layered(n, rate, seed):
    return build_layered_code(SKEW_U, PADDED_IDENTITY, CodeParams(n=n, rate=rate, seed=seed),
                              (2, 2, 2))


def _one_shot_chunk(store, c, rows):
    """Chunk c of a store, drawn in one call of its generator."""
    rng = generator(store.seed, store.label, c)
    if store._uniform:
        return rng.integers(0, store.alphabet, size=(rows, store.n), dtype=np.int64
                            ).astype(store._dtype)
    return inverse_cdf(store._cdf, rng.random((rows, store.n)))


def _code_pair(monkeypatch, build):
    """(materialised, streaming) codes from the same build call."""
    from stealthpath import codec
    budget = codec.SYMBOL_BUDGET
    materialised = build()
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", 0)
    streaming = build()
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", budget)
    assert materialised.materialized and not streaming.materialized
    return materialised, streaming


def test_streaming_store_matches_materialized(monkeypatch):
    from stealthpath import codec, oracle
    from stealthpath.adversary import JamSet
    kw = dict(n=5, seed=17, count=300, label="codeword-chunk")
    mat = _ChunkedStore(mass=UNIFORM8.mass, materialize=True, **kw)
    stream = _ChunkedStore(mass=UNIFORM8.mass, materialize=False, **kw)
    for m in (0, 1, 150, 299):
        np.testing.assert_array_equal(mat.codeword(m), stream.codeword(m))
    np.testing.assert_array_equal(np.concatenate([b for _, b in stream.chunks()]),
                                  np.concatenate([b for _, b in mat.chunks()]))

    # chunks of 128 rows (the last one partial) drawn in sub-blocks of 5 rows
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 128)
    monkeypatch.setattr(codec, "DRAW_ROWS", 5)
    for mass in (UNIFORM8.mass, SKEW8.mass):
        for n in (5, 6):
            kw = dict(mass=mass, n=n, seed=17, count=300, label="codeword-chunk")
            stream = _ChunkedStore(materialize=False, **kw)
            blocks = list(stream.chunks())
            assert [start for start, _ in blocks] == [0, 128, 256]
            for c, (start, block) in enumerate(blocks):
                np.testing.assert_array_equal(
                    block, _one_shot_chunk(stream, c, min(128, 300 - start)))
            mat = _ChunkedStore(materialize=True, **kw)
            np.testing.assert_array_equal(np.concatenate([b for _, b in blocks]), mat._all)

    # streaming and materialised codes agree on every pass that reads them
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 48)
    for p_x in (UNIFORM8, SKEW8):
        for n in (5, 6):
            materialised, streaming = _code_pair(
                monkeypatch, lambda: build_direct_code(p_x, CodeParams(n=n, rate=1.6, seed=3)))
            for links in ((0,), (1, 2)):
                np.testing.assert_array_equal(
                    oracle.exact_active_marginal(streaming, JamSet(links)).mass,
                    oracle.exact_active_marginal(materialised, JamSet(links)).mass)
            targets = np.array([5, 0, 5, 2 ** n - 1, -1, 2 ** n])
            want = survey_restrictions(materialised, (0,), (1, 2), xj_targets=targets)
            got = survey_restrictions(streaming, (0,), (1, 2), xj_targets=targets)
            # the materialised survey against one pack of the whole codebook
            words = np.concatenate([b for _, b in materialised.chunks()])
            pj = indexing.pack_sequences(indexing.restrict_codes((2, 2, 2), (0,))[words], 2)
            pg = indexing.pack_sequences(indexing.restrict_codes((2, 2, 2), (1, 2))[words], 4)
            hit = np.isin(pj, targets)
            np.testing.assert_array_equal(want.counts_j, np.bincount(pj, minlength=2 ** n))
            np.testing.assert_array_equal(want.pair_values_sorted, np.sort(pj * 4 ** n + pg))
            np.testing.assert_array_equal(want.match_xj, pj[hit])
            np.testing.assert_array_equal(want.match_g, pg[hit])
            assert np.unique(want.match_xj).size < want.match_xj.size
            for name in ("counts_j", "pair_values_sorted", "match_xj", "match_g"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert (got.j_space, got.g_space) == (want.j_space, want.g_space)
            rng = np.random.default_rng(n)
            for t in range(20):
                links = materialised.codeword_links(1 + t * 7) if t % 2 else \
                    rng.integers(0, 2, size=(3, n))
                assert decode_overwrite(streaming, erase(links, ()), MODEL) == \
                    decode_overwrite(materialised, erase(links, ()), MODEL)

    materialised, streaming = _code_pair(monkeypatch, lambda: skew_layered(5, 1.4, 8))
    np.testing.assert_array_equal(
        oracle.exact_active_marginal(streaming, JamSet((0,))).mass,
        oracle.exact_active_marginal(materialised, JamSet((0,))).mass)
    verdicts = set()
    for t in range(40):
        tx = encode(materialised, MODEL, t % 2, 1 + 11 * t % 2 ** 7 if t % 2 else 0, t)
        erased = np.arange(3) == t % 3
        rx = ReceivedWord(links=np.where(erased[:, None], 0, tx.links)[None],
                          erased=erased[None])
        want = decode_erasure(materialised, rx, MODEL)
        assert decode_erasure(streaming, rx, MODEL) == want
        verdicts.add(want[0].verdict)
    assert len(verdicts) > 1


def test_streaming_codeword_draws_only_the_prefix_it_needs(monkeypatch):
    from stealthpath import codec
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 128)
    monkeypatch.setattr(codec, "DRAW_ROWS", 5)
    for mass in (UNIFORM8.mass, SKEW8.mass):
        stream = _ChunkedStore(mass=mass, n=5, seed=17, count=300, label="codeword-chunk",
                               materialize=False)
        (_, last), = [(s, b) for s, b in stream.chunks() if s == 256]
        drawn = []
        draw = stream._draw
        monkeypatch.setattr(stream, "_draw", lambda rng, rows: drawn.append(rows) or
                            draw(rng, rows))
        # first, middle and last row of the partial last chunk (rows 256..299)
        for m, rows in ((256, 1), (278, 23), (299, 44)):
            np.testing.assert_array_equal(stream.codeword(m), last[m - 256])
            assert drawn[-1] == rows
        np.testing.assert_array_equal(stream.codeword(np.array([299, 256, 278])),
                                      last[[43, 0, 22]])
        assert drawn[-1] == 44


@pytest.fixture
def thread_starts(monkeypatch):
    """Counts threads started; checks that all of them are gone afterwards."""
    import threading
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    before = threading.active_count()
    yield started
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started)


def _pooled():
    import os
    return min(len(os.sched_getaffinity(0)), 4) > 1


def test_no_thread_outlives_a_pass(monkeypatch, thread_starts):
    import threading
    from stealthpath import codec
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 16)
    # n=3 over three binary links: 304 codewords share restrictions all over,
    # so the decode lists two messages in its first chunk and stops there
    _, code = _code_pair(monkeypatch, lambda: build_direct_code(
        UNIFORM8, CodeParams(n=3, rate=2.75, seed=2)))
    assert code.message_count == 304
    derived = []
    make = codec._ChunkedStore._generator
    monkeypatch.setattr(codec._ChunkedStore, "_generator",
                        lambda self, c: derived.append(c) or make(self, c))
    count = threading.active_count()
    assert decode_overwrite(code, erase(code.codeword_links(1), ()), MODEL) == \
        [DecodeResult("error")]
    assert threading.active_count() == count
    assert len(derived) < 19

    # n=2: a word's two unjammed links agree with one codeword in 16
    _, layered = _code_pair(monkeypatch, lambda: identity_layered(2, 4.0, 2))
    assert layered.message_count == 256
    tx = encode(layered, MODEL, 1, 5, 0)
    rx = ReceivedWord(links=tx.links[None], erased=np.array([[True, False, False]]))
    derived.clear()
    assert decode_erasure(layered, rx, MODEL) == \
        [DecodeResult("error")]
    assert threading.active_count() == count
    assert len(derived) < 16
    # a batch of two erasure patterns: two passes, each left once all its
    # words have two matches
    erased = np.array([[True, False, False], [False, False, True]] * 3)
    batch = ReceivedWord(links=np.where(erased[:, :, None], 0, tx.links), erased=erased)
    derived.clear()
    assert decode_erasure(layered, batch, MODEL) == \
        [DecodeResult("error")] * 6
    assert threading.active_count() == count
    assert derived.count(0) == 2 and len(derived) < 16

    def broken(block):
        raise RuntimeError("kernel failed")
    with pytest.raises(RuntimeError, match="kernel failed"):
        for _ in code.chunks(broken):
            pass
    assert threading.active_count() == count
    assert bool(thread_starts) == _pooled()

    # one chunk: drawn inline on this thread
    thread_starts.clear()
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", 0)
    one = build_direct_code(UNIFORM8, CodeParams(n=3, rate=1.0, seed=2))
    assert not one.materialized and one.message_count <= 16
    threads = [threading.get_ident() for _ in one.chunks(lambda b: threading.get_ident())]
    assert threads == [threading.main_thread().ident]
    assert survey_restrictions(one, (0,), (1, 2)).counts_j.sum() == one.message_count
    assert thread_starts == []


def test_a_pass_of_no_more_chunks_than_workers_starts_no_thread(monkeypatch, thread_starts):
    import os
    from stealthpath import codec
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 16)
    workers = min(len(os.sched_getaffinity(0)), 4)
    # two chunks, as in a 131,072-codeword code at 65,536-row chunks
    code = build_direct_code(UNIFORM8, CodeParams(n=3, rate=5 / 3, seed=2))
    assert code.materialized and code.message_count == 32
    assert thread_starts == []
    small = _ChunkedStore(mass=UNIFORM8.mass, n=3, seed=2, count=16 * workers,
                          label="codeword-chunk", materialize=False)
    assert len(list(small.chunks())) == workers and thread_starts == []
    large = _ChunkedStore(mass=UNIFORM8.mass, n=3, seed=2, count=16 * workers + 1,
                          label="codeword-chunk", materialize=False)
    assert len(list(large.chunks())) == workers + 1
    assert bool(thread_starts) == _pooled()


def test_a_materialised_code_is_read_in_the_streaming_chunks(monkeypatch, thread_starts):
    import os
    from stealthpath import codec
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 16)
    workers = min(len(os.sched_getaffinity(0)), 4)
    for count in (16 * workers - 5, 16 * workers + 7):
        kw = dict(mass=SKEW8.mass, n=5, seed=17, count=count, label="codeword-chunk")
        mat = _ChunkedStore(materialize=True, **kw)
        streamed = list(_ChunkedStore(materialize=False, **kw).chunks())
        thread_starts.clear()
        blocks = list(mat.chunks())
        # no more chunks than workers: inline; more: on the pool
        assert bool(thread_starts) == (count > 16 * workers and _pooled())
        assert [s for s, _ in blocks] == [s for s, _ in streamed] == list(range(0, count, 16))
        for (_, block), (_, want) in zip(blocks, streamed):
            np.testing.assert_array_equal(block, want)
            assert np.shares_memory(block, mat._all)


def test_streaming_passes_derive_seeds_on_the_calling_thread(monkeypatch):
    import sys
    import threading
    from stealthpath import codec, rng
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 64)
    # as the benchmark's tracer does: replace derive_seed wherever it is bound
    callers = []
    original = rng.derive_seed

    def derive_seed(*args):
        callers.append(threading.get_ident())
        return original(*args)
    for name, module in list(sys.modules.items()):
        if name.startswith("stealthpath") and getattr(module, "derive_seed", None) is original:
            monkeypatch.setattr(module, "derive_seed", derive_seed)
    _, code = _code_pair(monkeypatch, lambda: build_direct_code(
        SKEW8, CodeParams(n=8, rate=1.2, seed=5)))
    survey_restrictions(code, (0,), (1, 2), xj_targets=np.arange(10))
    decode_overwrite(code, erase(code.codeword_links(2), ()), MODEL)
    code.codeword(np.array([1, 100, 700]))
    assert len(callers) >= 2 * -(-code.message_count // 64)
    assert set(callers) == {threading.main_thread().ident}


def test_streaming_store_batch_lookup_matches_one_by_one(monkeypatch):
    # chunks of 128 rows: the batch spans three, each regenerated once
    from stealthpath import codec
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 128)
    kw = dict(mass=UNIFORM8.mass, n=5, seed=17, count=300, label="codeword-chunk")
    mat = _ChunkedStore(materialize=True, **kw)
    stream = _ChunkedStore(materialize=False, **kw)
    ms = np.array([[299, 0, 128], [150, 1, 255]])
    want = np.stack([[mat.codeword(int(m)) for m in row] for row in ms])
    np.testing.assert_array_equal(stream.codeword(ms), want)
    np.testing.assert_array_equal(mat.codeword(ms), want)
    with pytest.raises(ValueError):
        stream.codeword(np.array([0, 300]))


def test_layered_code_validation_and_determinism():
    params = CodeParams(n=6, rate=0.5, seed=2)
    a = build_layered_code(SKEW_U, PADDED_IDENTITY, params, (2, 2, 2))
    b = build_layered_code(SKEW_U, PADDED_IDENTITY, params, (2, 2, 2))
    for m in range(1, a.message_count + 1):
        np.testing.assert_array_equal(a.codeword(m), b.codeword(m))
    with pytest.raises(ValueError):
        build_layered_code(Distribution.uniform(2), PADDED_IDENTITY, params, (2, 2, 2))
    with pytest.raises(ValueError):
        build_layered_code(SKEW_U, PADDED_IDENTITY, params, (2, 2))


def test_layered_code_needs_the_identity_on_the_support():
    params = CodeParams(n=6, rate=0.5, seed=2)
    refused = {
        "stochastic row": (Distribution(3, np.array([0.5, 0.3, 0.2])),
                           ConditionalKernel(3, 8, np.eye(3, 8) * 0.5 + 0.5 / 8)),
        "permutation": (UNIFORM8.as_distribution(), ConditionalKernel(8, 8, np.eye(8)[::-1])),
        # letter 8 carries mass but has no product symbol of its own
        "letter past |X|": (Distribution(9, np.r_[np.full(8, 0.1), 0.2]),
                            ConditionalKernel(9, 8, np.vstack([np.eye(8), np.eye(8)[:1]]))),
    }
    for p_u, kernel in refused.values():
        with pytest.raises(ValueError, match="identity"):
            build_layered_code(p_u, kernel, params, (2, 2, 2))

    # solve_a's zero-padded kernel: uniform rows on its zero-mass letters
    from stealthpath.ratesolver import SolverConfig, solve_a
    biased = NetworkModel(3, 1, (2, 2, 2), JointDistribution.from_factors(
        [Distribution(2, np.array([p, 1 - p])) for p in (0.7, 0.6, 0.5)]))
    sol = solve_a(biased, cfg=SolverConfig(restarts=2))
    padding = sol.p_u.mass == 0
    assert sol.p_u.alphabet_size > 8 and padding[8:].all()
    np.testing.assert_array_equal(sol.kernel.matrix[padding], 1 / 8)
    params = CodeParams(n=5, rate=1.0, seed=6)
    code = build_layered_code(sol.p_u, sol.kernel, params, (2, 2, 2))
    np.testing.assert_allclose(code.p_x.mass, sol.p_u.mass[:8], rtol=0, atol=1e-15)
    # the codewords are the store's draws under "u-codeword-chunk", one chunk
    u = generator(6, "u-codeword-chunk", 0).random((code.message_count, 5))
    np.testing.assert_array_equal(code.codeword(np.arange(1, code.message_count + 1)),
                                  inverse_cdf(np.cumsum(sol.p_u.mass), u))


def test_a_draw_past_the_last_letter_of_positive_mass_is_that_letter():
    # uniform over 7 of 10 letters: the cumulative mass of letter 6 is one ulp
    # or two below 1, so the largest draw passes it; it is letter 6, never a
    # zero-mass letter after it (which would lie past the product alphabet)
    mass = Distribution(10, np.r_[np.full(7, 1 / 7), 0.0, 0.0, 0.0]).mass
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(mass)[6] <= top

    class Largest:
        def random(self, shape):
            return np.full(shape, top)
    store = _ChunkedStore(mass=mass, n=4, seed=0, count=3, label="u-codeword-chunk",
                          materialize=False)
    np.testing.assert_array_equal(store._draw(Largest(), 3), np.full((3, 4), 6))


def test_a_mass_off_uniform_past_float_dust_is_drawn_by_inverse_cdf():
    # 9e-7 off uniform is within a relative 1e-5 of 1/8, not within the
    # absolute 1e-12 that makes a mass uniform
    mass = Distribution(8, np.r_[1 / 8, 1 / 8 + 9e-7, 1 / 8 - 9e-7, np.full(5, 1 / 8)]).mass
    store = _ChunkedStore(mass=mass, n=5, seed=3, count=40, label="codeword-chunk",
                          materialize=False)
    u = generator(3, "codeword-chunk", 0).random((40, 5))
    np.testing.assert_array_equal(store.codeword(np.arange(40)),
                                  inverse_cdf(np.cumsum(mass), u))


def test_transmission_status_message_consistency():
    links = np.zeros((3, 4), dtype=np.int64)
    with pytest.raises(ValueError):
        Transmission(0, 3, links)
    with pytest.raises(ValueError):
        Transmission(1, 0, links)
    Transmission(0, 0, links)


def test_decode_result_validation():
    with pytest.raises(ValueError):
        DecodeResult("message", message=0)
    DecodeResult("innocent")


def test_decodes_is_right_only_for_the_sent_message():
    # m = 0 is the innocent hypothesis; an error verdict is never right
    verdicts = (DecodeResult("innocent"), DecodeResult("message", message=3),
                DecodeResult("error"))
    assert [r.decodes(0) for r in verdicts] == [True, False, False]
    assert [r.decodes(3) for r in verdicts] == [False, True, False]
    assert [r.decodes(4) for r in verdicts] == [False, False, False]
    assert verdicts[1].decodes(np.int64(3)) and verdicts[0].decodes(np.int64(0))


def test_decode_on_a_batch_is_the_scheme_decoder():
    # each scheme's decoder on a batch gives what it gives one word at a time
    from stealthpath.codec import build_affine_code
    codes = {
        "layered": skew_layered(5, 1.0, 8),
        "iid": build_direct_code(SKEW8, CodeParams(n=6, rate=1.8, seed=4)),
        "affine": build_affine_code((2, 2, 2), CodeParams(n=6, rate=1.8, seed=3)),
    }
    rng = np.random.default_rng(6)
    seeds = np.arange(40)
    for name, code in codes.items():
        m = seeds % code.message_count + 1
        links = np.concatenate([encode(code, MODEL, 0, 0 * m[:20], seeds[:20]).links,
                                encode(code, MODEL, 1, m[20:], seeds[20:]).links])
        if name == "layered":  # erase no link, one link, or two (over the budget)
            erased = np.array([[False] * 3, [True, False, False], [False, True, False],
                               [True, False, True]])[seeds % 4]
            links[erased] = 0

            def decode(rx, code=code):
                return decode_erasure(code, rx, MODEL)
        else:  # overwrite one link of every other word
            erased = np.zeros((40, 3), dtype=bool)
            links[1::2, 1] = rng.integers(0, 2, size=(20, 6))

            def decode(rx, code=code):
                return decode_overwrite(code, rx, MODEL)
        want = [r for t in range(40) for r in decode(ReceivedWord(links[t:t + 1],
                                                                  erased[t:t + 1]))]
        assert len({r.verdict for r in want}) > 1, name
        assert decode(ReceivedWord(links, erased)) == want, name


def test_encode_innocent_reproducible():
    code = build_direct_code(UNIFORM8, CodeParams(n=10, rate=0.5, seed=4))
    t1 = encode(code, MODEL, 0, 0, 99)
    t2 = encode(code, MODEL, 0, 0, 99)
    np.testing.assert_array_equal(t1.links, t2.links)
    assert t1.status == 0 and t1.message == 0
    t3 = encode(code, MODEL, 0, 0, 100)
    assert not np.array_equal(t1.links, t3.links)


def test_encode_direct_returns_codeword():
    code = build_direct_code(UNIFORM8, CodeParams(n=6, rate=1.0, seed=4))
    tx = encode(code, MODEL, 1, 7, 5)
    np.testing.assert_array_equal(tx.links, code.codeword_links(7))
    with pytest.raises(ValueError):
        encode(code, MODEL, 1, code.message_count + 1, 5)
    with pytest.raises(ValueError):
        encode(code, MODEL, 0, 3, 5)


def test_encode_layered_identity_kernel_is_the_codeword():
    code = build_layered_code(UNIFORM8.as_distribution(), ConditionalKernel.identity(8),
                              CodeParams(n=6, rate=1.0, seed=4), (2, 2, 2))
    tx = encode(code, MODEL, 1, 7, 5)
    np.testing.assert_array_equal(
        indexing.pack_links(tx.links, (2, 2, 2)), code.codeword(7))


def identity_layered(n, rate, seed):
    return build_layered_code(UNIFORM8.as_distribution(), ConditionalKernel.identity(8),
                              CodeParams(n=n, rate=rate, seed=seed), (2, 2, 2))


def erase(links, erased_links, c=3):
    """A batch of one word: `links` with `erased_links` erased."""
    erased = np.zeros(c, dtype=bool)
    erased[list(erased_links)] = True
    out = links.copy()
    out[erased] = 0
    return ReceivedWord(links=out[None], erased=erased[None])


def test_decode_erasure_round_trip():
    code = identity_layered(24, 0.5, 11)
    for m in (1, 5, code.message_count):
        tx = encode(code, MODEL, 1, m, 100 + m)
        for j in ((), (0,), (1,), (2,)):
            result, = decode_erasure(code, erase(tx.links, j), MODEL)
            assert result.verdict == "message" and result.message == m


def test_decode_erasure_innocent():
    code = identity_layered(24, 0.5, 11)
    hits = 0
    for t in range(50):
        tx = encode(code, MODEL, 0, 0, 2000 + t)
        if decode_erasure(code, erase(tx.links, (0,)), MODEL)[0].verdict == "innocent":
            hits += 1
    assert hits >= 48  # false codeword matches require an exact 24-symbol hit


def test_decode_erasure_all_links_erased():
    code = identity_layered(8, 0.5, 11)
    tx = encode(code, MODEL, 1, 1, 7)
    result, = decode_erasure(code, erase(tx.links, (0, 1, 2)), MODEL)
    assert result.verdict == "error"


def test_decode_erasure_too_many_erasures_with_model():
    code = identity_layered(8, 0.5, 11)
    tx = encode(code, MODEL, 1, 1, 7)
    result, = decode_erasure(code, erase(tx.links, (0, 1)), MODEL)
    assert result.verdict == "error"


def test_decode_erasure_refuses_a_single_word():
    # one (C, n) word is refused, not misread as a batch (here n = C)
    code = identity_layered(3, 0.5, 11)
    tx = encode(code, MODEL, 1, 1, 7)
    with pytest.raises(ValueError):
        decode_erasure(code, ReceivedWord(tx.links, np.zeros(3, dtype=bool)), MODEL)


def test_batched_decode_erasure_matches_one_word_at_a_time(monkeypatch):
    from stealthpath import codec
    from stealthpath.harness import TRIAL_BLOCK
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 8)
    # none, one and two links erased (too many for MODEL's budget), and all three
    patterns = np.array([[False, False, False], [True, False, False], [False, True, False],
                         [False, False, True], [True, True, False], [True, True, True]])
    kernels = {
        "identity": (UNIFORM8.as_distribution(), ConditionalKernel.identity(8)),
        "skewed": (SKEW_U, PADDED_IDENTITY),
    }
    size = TRIAL_BLOCK + 1
    cells = codec.DECODE_CELLS
    for name, (p_u, kern) in kernels.items():
        codes = _code_pair(monkeypatch, lambda: build_layered_code(
            p_u, kern, CodeParams(n=5, rate=1.0, seed=8), (2, 2, 2)))
        count = codes[0].message_count
        links = np.empty((size, 3, 5), dtype=np.int64)
        for t in range(size):
            m = 1 + 7 * t % count if t % 3 else 0
            links[t] = encode(codes[0], MODEL, int(m > 0), m, t).links
        # the first 70 words share link 0's erasure; the rest cycle the patterns
        t = np.arange(size)
        erased = patterns[np.where(t < 70, 1, t % len(patterns))]
        links[erased] = 0
        want = [r for t in range(size) for r in decode_erasure(
            codes[0], ReceivedWord(links[t:t + 1], erased[t:t + 1]), MODEL)]
        assert {r.verdict for r in want} == {"innocent", "message", "error"}, name
        for code in codes:
            # one word, one 64-word group and a word either side of it,
            # all of one pattern; TRIAL_BLOCK + 1 words of every pattern
            for batch in (1, 63, 64, 65, size):
                rx = ReceivedWord(links[:batch], erased[:batch])
                assert decode_erasure(code, rx, MODEL) == want[:batch], name
            # candidate tables of two codewords for a 64-word group
            monkeypatch.setattr(codec, "DECODE_CELLS", 128)
            assert decode_erasure(code, ReceivedWord(links, erased), MODEL) == want
            monkeypatch.setattr(codec, "DECODE_CELLS", cells)

    # the direct list's agreement pass, on one streaming chunk of 256 codewords:
    # at n=2 a word agrees with more codewords than 128 cells hold for four
    # sets; at n=5 the verdicts differ
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 256)
    sets = MODEL.unjammed_sets
    for n, rate in ((2, 4.0), (5, 1.6)):
        _, code = _code_pair(monkeypatch, lambda: build_direct_code(
            UNIFORM8, CodeParams(n=n, rate=rate, seed=8)))
        rng = np.random.default_rng(n)
        words = np.stack([code.codeword_links(m) for m in (1, 100, 256)] +
                         [rng.integers(0, 2, size=(3, n)) for _ in range(20)])
        rx = ReceivedWord(words, np.zeros((len(words), 3), dtype=bool))

        # the codewords each word agrees with on some set, counted directly
        codewords = code.codeword_links(np.arange(1, code.message_count + 1))
        agree = np.zeros((len(words), len(codewords)), dtype=bool)
        for jc in sets:
            agree |= (codewords[None][:, :, list(jc)] ==
                      words[:, None][:, :, list(jc)]).all(axis=(2, 3))
        row, column = np.nonzero(agree)

        def lists():
            pairs = set()
            allowed = codec._targets(code, words, sets)
            for start, (rows, target) in codec._agreement_pass(code, allowed):
                pairs.update(zip((target // len(sets)).tolist(), (start + rows + 1).tolist()))
            return decode_overwrite(code, rx, MODEL), pairs
        want = lists()
        assert want[1] == set(zip(row.tolist(), (column + 1).tolist()))
        assert want[0] == [r for w in words for r in decode_overwrite(code, erase(w, ()), MODEL)]
        monkeypatch.setattr(codec, "DECODE_CELLS", 128)
        assert lists() == want
        monkeypatch.setattr(codec, "DECODE_CELLS", cells)
        if n == 2:
            assert agree.sum(axis=1).max() > 128 // len(sets)
        else:
            assert {r.verdict for r in want[0]} == {"innocent", "message", "error"}


def _agreement_reference(code, rx, model):
    """decode_erasure's verdicts, one word at a time, from every codeword's links.

    A word lists the messages whose codewords equal it on its unerased links.
    """
    codewords = code.codeword_links(np.arange(1, code.message_count + 1))
    verdicts = []
    for links, erased in zip(rx.links, rx.erased):
        unjammed = [i for i in range(len(erased)) if not erased[i]]
        if not unjammed or erased.sum() > model.adversary_budget:
            verdicts.append(DecodeResult("error"))
            continue
        listed = np.flatnonzero((codewords[:, unjammed] == links[unjammed]).all(axis=(1, 2))) + 1
        verdicts.append(DecodeResult("innocent") if listed.size == 0 else
                        DecodeResult("message", message=int(listed[0])) if listed.size == 1
                        else DecodeResult("error"))
    return verdicts


def test_decode_erasure_matches_an_agreement_reference(monkeypatch):
    from stealthpath import codec
    from stealthpath.codec import build_affine_code
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 16)
    # none, one, two and three links erased
    patterns = np.array([[False, False, False], [True, False, False], [False, True, False],
                         [False, False, True], [False, True, True], [True, True, True]])
    params = CodeParams(n=8, rate=0.75, seed=5)
    # materialised and streaming codes of both auxiliary laws (the restriction
    # index and the agreement pass), and an affine code (GF(2) solves)
    codes = {name: _code_pair(monkeypatch, lambda: build_layered_code(
        p_u, kern, params, (2, 2, 2))) for name, (p_u, kern) in {
            "identity": (UNIFORM8.as_distribution(), ConditionalKernel.identity(8)),
            "skewed": (SKEW_U, PADDED_IDENTITY)}.items()}
    codes["affine"] = (build_affine_code((2, 2, 2), params),)
    for name, pair in codes.items():
        count = pair[0].message_count
        # every fifth word innocent; each pattern meets both hypotheses
        t = np.arange(90)
        m = np.where(t % 5, 1 + 7 * t % count, 0)
        links = np.stack([encode(pair[0], MODEL, int(m[k] > 0), int(m[k]), k).links
                          for k in t])
        erased = patterns[t % len(patterns)]
        links[erased] = 0
        rx = ReceivedWord(links, erased)
        want = _agreement_reference(pair[0], rx, MODEL)
        assert {r.verdict for r in want} == {"innocent", "message", "error"}, name
        for code in pair:
            assert decode_erasure(code, rx, MODEL) == want, name


def test_decode_erasure_lists_a_codeword_of_atypical_type():
    # the sent codeword is listed whatever its own type: these codewords lie
    # more than 0.6 in L1 from p_u, so a typicality test at 0.6 refuses them
    from stealthpath.probkit import typical_rows
    code = skew_layered(24, 0.5, 11)
    messages = np.arange(1, code.message_count + 1)
    atypical = messages[~typical_rows(code.codeword(messages), SKEW_U.mass, 0.6)][:40]
    assert atypical.size == 40
    for m in atypical.tolist():
        tx = encode(code, MODEL, 1, m, 0)
        for j in ((), (0,), (1,), (2,)):
            assert decode_erasure(code, erase(tx.links, j), MODEL) == \
                [DecodeResult("message", message=m)]


def test_decode_overwrite_honest_word():
    code = build_direct_code(UNIFORM8, CodeParams(n=24, rate=0.5, seed=11))
    for m in (1, 9, code.message_count):
        tx = encode(code, MODEL, 1, m, 0)
        result, = decode_overwrite(code, erase(tx.links, ()), MODEL)
        assert result.verdict == "message" and result.message == m


def test_decode_overwrite_innocent():
    code = build_direct_code(UNIFORM8, CodeParams(n=24, rate=0.5, seed=11))
    hits = 0
    for t in range(50):
        tx = encode(code, MODEL, 0, 0, 3000 + t)
        if decode_overwrite(code, erase(tx.links, ()), MODEL)[0].verdict == "innocent":
            hits += 1
    assert hits >= 48


def test_decode_overwrite_rejects_erasures():
    code = build_direct_code(UNIFORM8, CodeParams(n=4, rate=0.5, seed=11))
    with pytest.raises(ValueError):
        decode_overwrite(code, erase(np.zeros((3, 4), dtype=np.int64), (0,)), MODEL)


def test_decode_overwrite_constructed_ambiguity():
    # Find two messages agreeing on link 2, then hand the decoder a word that
    # matches m on links {1,2} and m' on links {0,2}: the list holds both.
    code = build_direct_code(UNIFORM8, CodeParams(n=2, rate=2.0, seed=0))
    found = None
    for m in range(1, code.message_count + 1):
        for mp in range(m + 1, code.message_count + 1):
            a, b = code.codeword_links(m), code.codeword_links(mp)
            if np.array_equal(a[2], b[2]) and not np.array_equal(a, b):
                found = (m, mp)
                break
        if found:
            break
    assert found is not None
    m, mp = found
    y = code.codeword_links(m).copy()
    y[0] = code.codeword_links(mp)[0]
    rx = erase(y, ())
    assert decode_overwrite(code, rx, MODEL) == [DecodeResult("error")]
    # whatever order the indices leave equal keys in: messages ascending, then
    # descending, within each run of equal keys
    # the indices cover the minimal sets only: the full set (0, 1, 2) has none
    assert {k for k in code.cache if k[0] == "restriction-index"} == \
        {("restriction-index", s) for s in MINIMAL_SETS}
    indices = {s: code.cache[("restriction-index", s)] for s in MINIMAL_SETS}
    orders = {s: [index.messages[np.lexsort((sign * index.messages, index.keys))]
                  for sign in (1, -1)] for s, index in indices.items()}
    assert not all(np.array_equal(*o) for o in orders.values())
    for sign in (0, 1):
        for s, index in indices.items():
            code.cache[("restriction-index", s)] = dataclasses.replace(
                index, messages=orders[s][sign])
        assert decode_overwrite(code, rx, MODEL) == [DecodeResult("error")]


def _overwrite_batch(code, words):
    """Innocent words, honest codewords and codewords with one link overwritten."""
    rng = np.random.default_rng(5)
    n = code.params.n
    links = np.empty((words, 3, n), dtype=np.int64)
    for t in range(words):
        if t % 3 == 0:
            links[t] = encode(code, MODEL, 0, 0, t).links
        else:
            links[t] = code.codeword_links(1 + 37 * t % code.message_count)
            if t % 3 == 2:
                links[t, t // 3 % 3] = rng.integers(0, 2, size=n)
    return ReceivedWord(links, np.zeros((words, 3), dtype=bool))


def test_batched_decode_overwrite_matches_one_word_at_a_time(monkeypatch):
    from stealthpath import codec
    from stealthpath.codec import build_affine_code
    # 256 messages at n=5: a link set of two links takes 1,024 values, so
    # spurious matches are common and every verdict occurs
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 64)
    params = CodeParams(n=5, rate=1.6, seed=4)
    materialised, streaming = _code_pair(monkeypatch, lambda: build_direct_code(SKEW8, params))
    affine = build_affine_code((2, 2, 2), params)
    cells = codec.DECODE_CELLS
    for code in (materialised, streaming, affine):
        rx = _overwrite_batch(code, 90)
        want = [r for t in range(len(rx.links)) for r in decode_overwrite(
            code, ReceivedWord(rx.links[t:t + 1], rx.erased[t:t + 1]), MODEL)]
        assert {r.verdict for r in want} == {"innocent", "message", "error"}
        assert decode_overwrite(code, rx, MODEL) == want
        # candidate pairs two rows at a time for each group of 64 targets
        monkeypatch.setattr(codec, "DECODE_CELLS", 128)
        assert decode_overwrite(code, rx, MODEL) == want
        monkeypatch.setattr(codec, "DECODE_CELLS", cells)
        if code is streaming:  # the same codewords give the same verdicts
            assert want == decode_overwrite(materialised, rx, MODEL)


def test_decode_overwrite_takes_a_batch():
    code = build_direct_code(UNIFORM8, CodeParams(n=3, rate=1.0, seed=3))
    batch = erase(code.codeword_links(5), ())
    assert decode_overwrite(code, batch, MODEL) == [DecodeResult("message", message=5)]
    assert decode_overwrite(code, ReceivedWord(batch.links[:0], batch.erased[:0]), MODEL) == []
    # one (C, n) word is refused, not misread as a batch (here n = C)
    with pytest.raises(ValueError):
        decode_overwrite(code, ReceivedWord(batch.links[0], batch.erased[0]), MODEL)
    # one erased link anywhere in the batch refuses the whole batch
    links = np.stack([code.codeword_links(m) for m in (1, 2, 3)])
    erased = np.zeros((3, 3), dtype=bool)
    erased[2, 1] = True
    with pytest.raises(ValueError, match="fully symbol-valued"):
        decode_overwrite(code, ReceivedWord(links, erased), MODEL)


def test_decode_overwrite_indexed_and_scanned_honest_words():
    # n=40 over two binary links exceeds 63-bit keys, forcing the chunk scan
    packed_code = build_direct_code(UNIFORM8, CodeParams(n=20, rate=0.3, seed=5))
    wide_code = build_direct_code(UNIFORM8, CodeParams(n=40, rate=0.15, seed=5))
    for code, indexed in ((packed_code, True), (wide_code, False)):
        m = 3
        assert decode_overwrite(code, erase(code.codeword_links(m), ()), MODEL) == \
            [DecodeResult("message", message=m)]
        for links in MINIMAL_SETS:
            index = code.cache.get(("restriction-index", links))
            assert (index is not None) == indexed


def test_scan_budget_refuses_only_a_streaming_scan(monkeypatch):
    from stealthpath import codec
    from stealthpath.codec import build_affine_code
    direct = _code_pair(monkeypatch, lambda: build_direct_code(
        UNIFORM8, CodeParams(n=8, rate=1.0, seed=2)))
    layered = _code_pair(monkeypatch, lambda: identity_layered(8, 1.0, 2))
    affine = build_affine_code((2, 2, 2), CodeParams(n=8, rate=1.0, seed=2))
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", 0)
    monkeypatch.setattr(codec, "DECODE_SCAN_BUDGET", 255)
    assert {c.message_count for c in (*direct, *layered, affine)} == {256}
    for code in (direct[0], affine):
        assert decode_overwrite(code, erase(code.codeword_links(5), ()), MODEL) == \
            [DecodeResult("message", message=5)]
    rx = erase(encode(layered[0], MODEL, 1, 5, 0).links, (0,))
    assert decode_erasure(layered[0], rx, MODEL) == \
        [DecodeResult("message", message=5)]
    with pytest.raises(ResourceBudgetError, match="scan budget"):
        decode_overwrite(direct[1], erase(direct[0].codeword_links(5), ()), MODEL)
    with pytest.raises(ResourceBudgetError, match="scan budget"):
        decode_erasure(layered[1], rx, MODEL)


def test_survey_restrictions_census_and_membership():
    code = build_direct_code(UNIFORM8, CodeParams(n=4, rate=2.0, seed=6))
    survey = survey_restrictions(code, (0,), (1, 2), xj_targets=np.array([0, 5]))
    assert survey.counts_j.sum() == code.message_count
    assert survey.j_space == 16 and survey.g_space == 256
    # every codeword's own (x_J, x_G) pair is a member
    restrict_j = indexing.restrict_codes((2, 2, 2), (0,))
    restrict_g = indexing.restrict_codes((2, 2, 2), (1, 2))
    full = code.codeword(3)
    pj = indexing.pack_sequences(restrict_j[full][None, :], 2)
    pg = indexing.pack_sequences(restrict_g[full][None, :], 4)
    assert pair_membership(survey, pj, pg).all()
    assert survey.match_xj.size == survey.match_g.size


def test_survey_restrictions_rejects_overlap():
    code = build_direct_code(UNIFORM8, CodeParams(n=4, rate=1.0, seed=6))
    with pytest.raises(ValueError):
        survey_restrictions(code, (0, 1), (1, 2))


def test_streaming_decode_overwrite_matches_materialised(monkeypatch):
    from stealthpath import codec
    from stealthpath.adversary import JamSet, get_strategy, overwrite_jam
    # small chunks so a decode crosses several; both codes hold the same codewords
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 64)
    skew = JointDistribution.from_factors([Distribution.bernoulli(0.3)] +
                                          [Distribution.uniform(2)] * 2)
    strategy = get_strategy("uniform-random")
    verdicts = set()
    # 776 messages: spurious matches occur; the indices cover only the two-link
    # sets, so at n=21 their 42-bit keys fit, at n=31 their 62-bit keys fit,
    # and at n=32 two links pack 64 bits and the materialised code is scanned
    for params, indexed in ((CodeParams(n=6, rate=1.6, seed=4), True),
                            (CodeParams(n=21, rate=0.5, seed=4), True),
                            (CodeParams(n=31, rate=0.3, seed=4), True),
                            (CodeParams(n=32, rate=0.3, seed=4), False)):
        monkeypatch.setattr(codec, "SYMBOL_BUDGET", 1 << 26)
        materialised = build_direct_code(skew, params)
        monkeypatch.setattr(codec, "SYMBOL_BUDGET", 64)
        streaming = build_direct_code(skew, params)
        assert materialised.materialized and not streaming.materialized
        for t in range(60):
            hyp = t % 2
            m = 1 + (13 * t) % materialised.message_count if hyp else 0
            tx = encode(materialised, MODEL, hyp, m, t)
            jammed = overwrite_jam(tx, JamSet((t % 3,)), strategy, t, MODEL, materialised)
            for links in (tx.links, jammed.links):
                want, = decode_overwrite(materialised, erase(links, ()), MODEL)
                assert decode_overwrite(streaming, erase(links, ()), MODEL) == [want]
                verdicts.add(want.verdict)
        for links in MINIMAL_SETS:
            index = materialised.cache.get(("restriction-index", links))
            assert (index is not None) == indexed
    assert verdicts == {"innocent", "message", "error"}


def test_decode_erasure_memory_is_bounded_when_many_codewords_agree():
    # n=2: a word agrees with one codeword in 16 on two unjammed links, so a
    # batch's three words of one pattern agree with 12,288 codewords; over
    # 32 letters of the auxiliary law, listing them holds no table per
    # candidate
    import tracemalloc
    p_u = Distribution(32, np.r_[SKEW8.mass, np.zeros(24)])
    kernel = ConditionalKernel(32, 8, np.vstack([np.eye(8), np.full((24, 8), 1 / 8)]))
    code = build_layered_code(p_u, kernel, CodeParams(n=2, rate=8.0, seed=1), (2, 2, 2))
    assert code.materialized and code.message_count == 65536
    rx = ReceivedWord(links=encode(code, MODEL, 1, 5, 0).links[None],
                      erased=np.array([[True, False, False]]))
    words = np.stack([encode(code, MODEL, 1, m, m).links for m in (5, 9, 70, 4000)])
    erased = np.array([[True, False, False]] * 3 + [[False, False, True]])
    batch = ReceivedWord(links=np.where(erased[:, :, None], 0, words), erased=erased)
    for word in (rx, batch):
        tracemalloc.start()
        try:
            decode_erasure(code, word, MODEL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def _listed_by_every_set(code, links, model):
    """(count capped at 2, smallest message) per word, over all of model.unjammed_sets."""
    words = code.codeword_links(np.arange(1, code.message_count + 1))
    out = []
    for word in links:
        hit = np.zeros(code.message_count, dtype=bool)
        for jc in model.unjammed_sets:
            hit |= (words[:, list(jc)] == word[list(jc)]).all(axis=(1, 2))
        listed = np.flatnonzero(hit) + 1
        out.append((min(listed.size, 2), int(listed[0]) if listed.size else 0))
    return out


def test_minimal_sets_list_what_every_set_lists(monkeypatch):
    from stealthpath import codec
    from stealthpath.codec import _verdict, build_affine_code
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 16)
    # Z=1; Z=0, whose one set is every link; and Z=3, whose family holds the
    # full jam set, so its one minimal set is the empty one
    models = (MODEL, uniform_model(z=0),
              NetworkModel(3, 3, (2, 2, 2), UNIFORM8, allow_symmetrizable=True))
    assert [len(m.unjammed_sets) for m in models] == [4, 1, 8]
    params = CodeParams(n=4, rate=1.6, seed=4)
    materialised, streaming = _code_pair(monkeypatch, lambda: build_direct_code(SKEW8, params))
    verdicts = set()
    for code in (materialised, streaming, build_affine_code((2, 2, 2), params)):
        rx = _overwrite_batch(code, 60)
        for model in models:
            want = [_verdict(*listed) for listed in _listed_by_every_set(code, rx.links, model)]
            assert decode_overwrite(code, rx, model) == want
            verdicts.update(r.verdict for r in want)
    assert verdicts == {"innocent", "message", "error"}
    assert ("restriction-index", ()) in materialised.cache


@dataclasses.dataclass
class _Mass:
    """A stand-in for Distribution that keeps its mass without a copy."""

    mass: np.ndarray


def test_per_chunk_histograms_hold_one_space_sized_array(monkeypatch):
    # a streaming code of 8 chunks with a 2^18 jammed space: each chunk is
    # added to the histogram in place, so no second space-sized array is made
    import tracemalloc
    from stealthpath import codec, oracle
    from stealthpath.adversary import JamSet
    monkeypatch.setattr(codec, "CHUNK_MESSAGES", 64)
    monkeypatch.setattr(codec, "SYMBOL_BUDGET", 0)
    code = build_direct_code(UNIFORM8, CodeParams(n=18, rate=0.5, seed=1))
    assert not code.materialized and code.message_count == 512
    hist_bytes = 8 << 18

    def peak(run):
        tracemalloc.start()
        try:
            counts = run()
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.nbytes == hist_bytes and counts.sum() > 0
        return top

    def marginal():
        return oracle.exact_active_marginal(code, JamSet((0,))).mass
    assert peak(lambda: survey_restrictions(code, (0,), (1, 2)).counts_j) < 1.5 * hist_bytes
    # the marginal with its Distribution, which validates a copy of the mass
    assert peak(marginal) < 2.5 * hist_bytes
    # and the histogram pass alone
    monkeypatch.setattr(oracle, "Distribution", lambda size, mass: _Mass(mass))
    assert peak(marginal) < 1.5 * hist_bytes


def test_restriction_index_memory_is_bounded():
    # the benchmark's materialised overwrite code, 131,071 x 10: one index per
    # minimal set, each of 20-bit keys in uint32 and int32 messages
    import tracemalloc
    from stealthpath import codec
    code = build_direct_code(UNIFORM8, CodeParams(n=10, rate=1.6999995, seed=7))
    count = code.message_count
    assert code.materialized and count == 131071
    rx = erase(code.codeword_links(5), ())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert decode_overwrite(code, rx, MODEL) == [DecodeResult("message", message=5)]
        peak = tracemalloc.get_traced_memory()[1] - before
        for links in MINIMAL_SETS:
            code.cache.pop(("restriction-index", links))
            before = tracemalloc.get_traced_memory()[0]
            index = codec._restriction_index(code, links)
            kept = tracemalloc.get_traced_memory()[0] - before
            assert index.keys.dtype == np.uint32 and index.messages.dtype == np.int32
            # beyond the arrays, a few kB of Python objects
            assert kept <= 8 * count + index.table.nbytes + (16 << 10)
    finally:
        tracemalloc.stop()
    assert peak <= 64 * count


def test_decoders_share_one_index_per_link_set():
    # decode_erasure with link 0 erased indexes (1, 2); decode_overwrite then
    # adds the other two-link sets and reuses that index
    code = build_direct_code(UNIFORM8, CodeParams(n=6, rate=1.6, seed=4))
    links = np.stack([code.codeword_links(m) for m in (1, 2, 3)])
    erased = np.zeros((3, 3), dtype=bool)
    erased[:, 0] = True
    assert decode_erasure(code, ReceivedWord(np.where(erased[:, :, None], 0, links), erased),
                          MODEL) == [DecodeResult("message", message=m) for m in (1, 2, 3)]
    shared = code.cache[("restriction-index", (1, 2))]
    assert list(code.cache) == [("restriction-index", (1, 2))]
    assert decode_overwrite(code, ReceivedWord(links, np.zeros((3, 3), dtype=bool)), MODEL) == \
        [DecodeResult("message", message=m) for m in (1, 2, 3)]
    assert sorted(code.cache) == sorted(("restriction-index", s) for s in MINIMAL_SETS)
    assert code.cache[("restriction-index", (1, 2))] is shared
