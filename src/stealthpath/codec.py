"""Codebook construction and decoding for the two random-coding schemes.

There is one code class, `DirectCode`: codewords over the network product
alphabet, i.i.d. from a single-letter law or affine. The direct scheme draws
them from a solved network law, the layered scheme from an auxiliary law p_u
whose kernel is the identity on p_u's support (`build_layered_code`), so its
auxiliary codeword is the transmitted word. The scheme picks the decoder:
`decode_erasure` lists by exact agreement on a word's unerased links,
`decode_overwrite` on the unjammed links of every candidate jam set. Both
take one list step (`_listed`): it lists the codewords that equal a word on
a set of links, by a search of a materialised code's restriction index, by
GF(2) solves on an affine code, or else in one agreement pass over the code,
and a word decodes only if exactly one is listed. Both take a batch of
received words: one list step per erasure pattern in it, or one for the
whole batch. `DecodeResult.decodes` scores a verdict.

Codebooks above the in-memory symbol budget fall back to streaming chunked
regeneration: chunk c of CHUNK_MESSAGES codewords is reproducible from the
code seed alone, so codeword m never needs to be stored. Every read of a
whole codebook is an ordered chunk pass (`_ordered_pass`): chunks are drawn,
each from its one Philox generator in sub-blocks of DRAW_ROWS rows, and the
pass's kernel runs on them on a pool of min(CPUs, 4) threads, at most that
many chunks in flight; generators are derived and results consumed in chunk
order on the calling thread, so no byte depends on the threads. A pass of no
more chunks than workers starts no thread. A materialised code is read in
the same chunks and the same pass, each chunk a view of the stored array, so
every kernel holds temporaries for one chunk, never for the whole code.

Codes over the message budget can come from a second ensemble instead,
an affine code over GF(2) (`build_code_for_bound` decides): codeword m is
G·bits(m-1) ⊕ s, so encoding is a matrix product and list decoding one linear
solve per candidate jam set, with no enumeration.
"""
from __future__ import annotations

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import gf2, indexing
from .probkit import ConditionalKernel, Distribution, JointDistribution, inverse_cdf
from .ratesolver import OPT_TOL, NetworkModel, SolutionB, check_feasibility_b
from .rng import generator, streams

CHUNK_MESSAGES = 1 << 16
# A chunk is drawn this many rows at a time; the rows do not depend on it.
DRAW_ROWS = 1 << 12
SYMBOL_BUDGET = 1 << 26
MESSAGE_BUDGET = 1 << 31
DECODE_SCAN_BUDGET = 1 << 28
# Candidate (codeword, target) pairs an agreement pass draws at once, whatever
# the batch or chunk size.
DECODE_CELLS = 1 << 16
# Affine codes: message indices must stay below 2^63, where the harness's and
# the strategies' 64-bit message draws are still uniform.
AFFINE_MESSAGE_LIMIT = 1 << 63
# Jammed restriction sequences `survey_restrictions` counts at most.
CENSUS_BUDGET = 1 << 26

INNOCENT = 0
ACTIVE = 1


class ResourceBudgetError(RuntimeError):
    """A request would exceed a configured enumeration or memory budget."""


@dataclass(frozen=True)
class CodeParams:
    """Blocklength, rate in bits per channel use, and the codebook seed."""

    n: int
    rate: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("blocklength must be >= 1")
        if not self.rate > 0:
            raise ValueError("rate must be positive")

    @property
    def message_count(self) -> int:
        exponent = self.n * self.rate
        if exponent >= 1000:
            raise ResourceBudgetError(
                f"message count 2^{exponent:.1f} is astronomically large"
            )
        return max(int(math.floor(2.0 ** exponent)), 1)


def _in_range(m, lo: int, hi: int) -> bool:
    """Whether m, an int or an array, lies in [lo, hi) throughout."""
    if isinstance(m, (int, np.integer)):
        return lo <= m < hi
    m = np.asarray(m)
    return m.size == 0 or bool(m.min() >= lo and m.max() < hi)


def _indices(m, count: int):
    """0-based message indices checked against `count`: an int, or an int64 array."""
    if not _in_range(m, 0, count):
        raise ValueError(f"message index {m} out of range")
    return int(m) if isinstance(m, (int, np.integer)) else np.asarray(m, dtype=np.int64)


def _identity(block: np.ndarray) -> np.ndarray:
    return block


def _ordered_pass(tasks: Iterable, run: Callable, size: int) -> Iterator:
    """run(task) for each of the `size` tasks, yielded in task order.

    Tasks are taken from `tasks` on the calling thread, so whatever makes a
    task (a chunk's seed derivation, say) happens there; `run` works on a
    thread pool of min(CPUs, 4) workers, with at most that many tasks
    submitted and not yet yielded. A pass of no more tasks than workers, or a
    one-CPU process, runs inline and starts no thread: thread start-up would
    cost more than the few tasks overlap. Leaving the pass early, or an
    exception from `run`, shuts the pool down and joins its threads.
    """
    workers = min(len(os.sched_getaffinity(0)), 4)
    if size <= workers or workers < 2:
        for task in tasks:
            yield run(task)
        return
    from concurrent.futures import ThreadPoolExecutor

    tasks = iter(tasks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(run, task) for task in itertools.islice(tasks, workers))
        try:
            while pending:
                result = pending.popleft().result()
                pending.extend(pool.submit(run, task) for task in itertools.islice(tasks, 1))
                yield result
        finally:
            for future in pending:
                future.cancel()


class _ChunkedStore:
    """Deterministic chunked source of i.i.d. codeword symbols.

    Chunk c is regenerated from derive(seed, label, c); a codebook is fully
    determined by (mass, n, seed) and the fixed chunk size. A chunk is drawn
    in sub-blocks of DRAW_ROWS rows from its one generator, which give the
    numbers of one draw of the whole chunk without a chunk-sized int64 or
    float64 temporary. A draw at or past the cumulative mass of the last
    letter of positive mass, which float sums can leave one ulp below 1, is
    that letter: zero-mass letters after it are never drawn.
    """

    ensemble = "iid"

    def __init__(self, mass: np.ndarray, n: int, seed: int, count: int, label: str,
                 materialize: bool):
        self.mass = mass
        self.n = n
        self.seed = seed
        self.count = count
        self.label = label
        self.alphabet = mass.size
        self._uniform = bool(np.allclose(mass, mass[0], atol=1e-12))
        self._cdf = np.cumsum(mass[:np.flatnonzero(mass)[-1] + 1])
        self._dtype = np.min_scalar_type(self.alphabet - 1)
        self._all: Optional[np.ndarray] = None
        if materialize:
            everything = np.empty((count, n), dtype=self._dtype)
            for start, block in self.chunks():
                everything[start:start + block.shape[0]] = block
            self._all = everything

    @property
    def materialized(self) -> bool:
        return self._all is not None

    def _draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """The first `rows` rows of the chunk whose generator is `rng`."""
        out = np.empty((rows, self.n), dtype=self._dtype)
        for lo in range(0, rows, DRAW_ROWS):
            shape = (min(DRAW_ROWS, rows - lo), self.n)
            if self._uniform:
                out[lo:lo + shape[0]] = rng.integers(0, self.alphabet, size=shape,
                                                     dtype=np.int64)
            else:
                out[lo:lo + shape[0]] = inverse_cdf(self._cdf, rng.random(shape))
        return out

    def _generator(self, chunk_index: int) -> np.random.Generator:
        return generator(self.seed, self.label, chunk_index)

    def chunks(self, kernel: Callable = _identity) -> Iterator[Tuple[int, object]]:
        """(start, kernel(block)) for each chunk of CHUNK_MESSAGES rows, in order.

        `kernel` runs in an ordered pass (`_ordered_pass`), so it must not
        touch shared state. A materialised store's blocks are views of its
        array; a streaming store draws them.
        """
        starts = range(0, self.count, CHUNK_MESSAGES)
        if self._all is not None:
            tasks = ((start, self._all[start:start + CHUNK_MESSAGES]) for start in starts)
        else:
            tasks = ((start, self._generator(c)) for c, start in enumerate(starts))

        def run(task):
            start, block = task  # a view of the stored rows, or the chunk's generator
            if self._all is None:
                block = self._draw(block, min(CHUNK_MESSAGES, self.count - start))
            return start, kernel(block)
        yield from _ordered_pass(tasks, run, len(starts))

    def codeword(self, m) -> np.ndarray:
        """Symbols of codeword m (0-based); (..., n) for an array of indices.

        A streaming store draws each chunk it touches once, up to the highest
        row asked of it.
        """
        m = _indices(m, self.count)
        if self._all is not None:
            return self._all[m].astype(np.int64)
        m = np.asarray(m)
        out = np.empty(m.shape + (self.n,), dtype=np.int64)
        chunk_of = m // CHUNK_MESSAGES
        touched = np.unique(chunk_of).tolist()

        def run(task):
            c, rng = task
            hit = chunk_of == c
            rows = m[hit] - c * CHUNK_MESSAGES
            return hit, self._draw(rng, int(rows.max()) + 1)[rows]
        tasks = ((c, self._generator(c)) for c in touched)
        for hit, words in _ordered_pass(tasks, run, len(touched)):
            out[hit] = words
        return out


class AffineStore:
    """Codeword b (0-based) is G·bits(b) ⊕ s over GF(2), computed on demand.

    A codeword is a vector of n·Σ_i log2(size_i) bits, link-major: link i holds
    n·w_i bits (w_i = log2 size_i), position t of it w_i bits, least
    significant first. Column k of G is the image of bit k of b. G (drawn
    first) and s come from derive(seed, "affine-gf2", rows, K) alone, K being
    the bit length of count - 1. `mass`, the single-letter law of every
    codeword, is uniform on the product alphabet.
    """

    ensemble = "affine-gf2"
    materialized = False

    def __init__(self, link_sizes: Sequence[int], n: int, seed: int, count: int):
        if count >= AFFINE_MESSAGE_LIMIT:
            raise ResourceBudgetError(
                f"affine codebook with {count} messages reaches 2^63; message draws "
                "would not be uniform")
        if any(s & (s - 1) for s in link_sizes):
            raise ValueError("affine GF(2) codes need power-of-2 link alphabets")
        self.link_sizes = tuple(int(s) for s in link_sizes)
        self.n = n
        self.count = count
        self.k = (count - 1).bit_length()
        widths = [s.bit_length() - 1 for s in self.link_sizes]
        ends = np.cumsum([n * w for w in widths])
        self.rows = int(ends[-1])
        self._segments = [np.arange(e - n * w, e) for e, w in zip(ends, widths)]
        rng = generator(seed, "affine-gf2", self.rows, self.k)
        self.g = rng.integers(0, 2, size=(self.rows, self.k), dtype=np.uint8)
        self.s = rng.integers(0, 2, size=self.rows, dtype=np.uint8)
        self._s = gf2.to_int(self.s)
        self._g_t = self.g.T.astype(np.float32)
        total = int(np.prod(self.link_sizes))
        self.mass = np.full(total, 1.0 / total)
        self._dtype = np.min_scalar_type(total - 1)
        self._solvers: dict = {}
        # product code at position t = bits[gather[t]] · weights; the link
        # sizes are powers of 2, so each weight is a distinct power of 2
        strides = indexing.strides(self.link_sizes)
        self._gather = np.stack([seg[l::w] for seg, w in zip(self._segments, widths)
                                 for l in range(w)], axis=1)
        self._weights = np.array([st << l for st, w in zip(strides, widths)
                                  for l in range(w)], dtype=np.int64)

    def _codes(self, bits: np.ndarray) -> np.ndarray:
        """(..., rows) codeword bits -> (..., n) product codes."""
        return bits[..., self._gather] @ self._weights

    def pack(self, links: Sequence[int], link_rows: np.ndarray) -> int:
        """Per-link symbol rows of `links` -> codeword bits, zero off those links."""
        rows = np.zeros((len(self.link_sizes), self.n), dtype=np.int64)
        rows[list(links)] = link_rows
        codes = indexing.pack_links(rows, self.link_sizes)
        bits = np.zeros(self.rows, dtype=np.uint8)
        bits[self._gather] = (codes[:, None] & self._weights) > 0
        return gf2.to_int(bits)

    def _bits(self, b: np.ndarray) -> np.ndarray:
        """(...) message indices -> (..., rows) codeword bits, by one 0/1 product.

        The float32 sums count at most K < 64 ones, so they are exact integers.
        """
        bits = ((b[..., None] >> np.arange(self.k, dtype=np.int64)) & 1).astype(np.float32)
        return ((bits @ self._g_t).astype(np.uint8) & 1) ^ self.s

    def codeword(self, b) -> np.ndarray:
        """Product codes of codeword b (0-based); (..., n) for an array of indices."""
        return self._codes(self._bits(np.asarray(_indices(b, self.count))))

    def chunks(self, kernel: Callable = _identity) -> Iterator[Tuple[int, object]]:
        """(start, kernel(block)) for each chunk in order, as an ordered pass."""
        if self.count > MESSAGE_BUDGET:
            raise ResourceBudgetError(
                f"enumerating {self.count} affine codewords exceeds the message budget "
                f"{MESSAGE_BUDGET}")

        def run(start):
            idx = np.arange(start, min(start + CHUNK_MESSAGES, self.count), dtype=np.int64)
            return start, kernel(self._codes(self._bits(idx)).astype(self._dtype))
        starts = range(0, self.count, CHUNK_MESSAGES)
        yield from _ordered_pass(starts, run, len(starts))

    def _solver(self, links: tuple):
        """(map x -> syndrome|solution, its value at s, reduced null basis), cached."""
        if links not in self._solvers:
            rows = np.concatenate([self._segments[i] for i in links])
            solve, null = gf2.solve_system(self.g[rows])
            full = np.zeros((solve.shape[0], self.rows), dtype=np.uint8)
            full[:, rows] = solve
            lin = gf2.LinearMap(full)
            self._solvers[links] = (lin, lin(self._s), gf2.reduced_basis(null))
        return self._solvers[links]

    def matches(self, links: tuple, x: int, limit: int) -> list:
        """Ascending 1-based messages whose bits on `links` equal x's, at most `limit`.

        One solve gives the coset of solutions b; its elements are walked in
        increasing order and cut at the message count, so a rank-deficient
        restriction costs no more than `limit` elements.
        """
        lin, offset, null = self._solver(links)
        z = lin(x) ^ offset
        if z >> self.k:
            return []
        b = z & ((1 << self.k) - 1)
        return [e + 1 for e in gf2.coset_elements(b, null, self.count, limit)]

    def restriction_images(self, links: Sequence[int]) -> Tuple[list, int]:
        """The law of a uniform message's codeword bits on `links`.

        [0, count) splits into one dyadic block [c, c + 2^k) per set bit k of
        count; block k maps onto the coset offset_k + V_k, V_k the span of G's
        first k columns on `links`, hitting each point 2^(k - dim V_k) times.
        Returns ([(hits, reduced basis of V_k, offset_k)] by increasing k, D),
        D the number of bits on `links`. The V_k are nested, so two images are
        either nested or disjoint.
        """
        mask_bits = np.zeros(self.rows, dtype=np.uint8)
        for i in links:
            mask_bits[self._segments[i]] = 1
        mask = gf2.to_int(mask_bits)
        cols = [gf2.to_int(self.g[:, q]) & mask for q in range(self.k)]
        images = []
        for k in range(self.count.bit_length()):
            if self.count >> k & 1:
                c = (self.count >> (k + 1)) << (k + 1)
                basis = gf2.reduced_basis(cols[:k])
                offset = gf2.to_int(self._bits(np.int64(c))) & mask
                images.append((1 << (k - len(basis)), basis, offset))
        return images, int(mask_bits.sum())


def _build_store(mass: np.ndarray, params: CodeParams, symbols_per_use: int,
                 label: str) -> _ChunkedStore:
    count = params.message_count
    if count > MESSAGE_BUDGET:
        raise ResourceBudgetError(
            f"codebook with {count} messages exceeds the message budget {MESSAGE_BUDGET}"
        )
    materialize = count * params.n * symbols_per_use <= SYMBOL_BUDGET
    return _ChunkedStore(mass, params.n, params.seed, count, label, materialize)


@dataclass
class DirectCode:
    """A codebook over the network product alphabet, and the store it comes from.

    A codeword is a sequence of product codes, drawn i.i.d. from the store's
    `mass` or affine. `p_x` is the single-letter law of each codeword: the
    law it is drawn from, its image under a layered code's kernel, or an
    affine code's uniform product law. `cache` holds tables derived from the
    codewords (restriction indices, strategy tables, oracle marginals) under
    tagged keys; they live as long as the code.
    """

    params: CodeParams
    p_x: JointDistribution
    _store: Union[_ChunkedStore, AffineStore]
    cache: dict = field(default_factory=dict, repr=False, compare=False, kw_only=True)

    @property
    def message_count(self) -> int:
        return self._store.count

    @property
    def materialized(self) -> bool:
        return self._store.materialized

    @property
    def ensemble(self) -> str:
        return self._store.ensemble

    @property
    def affine(self) -> Optional[AffineStore]:
        """The GF(2) structure of an affine code; None for any other code."""
        return self._store if isinstance(self._store, AffineStore) else None

    @property
    def link_sizes(self) -> tuple:
        return self.p_x.factor_sizes

    def codeword(self, m) -> np.ndarray:
        """Codeword m (1-based); (..., n) for an array of messages."""
        return self._store.codeword(m - 1)

    def codeword_links(self, m) -> np.ndarray:
        """Per-link symbols of codeword m, (..., C, n)."""
        return indexing.unpack_links(self.codeword(m), self.link_sizes)

    def chunks(self, kernel: Callable = _identity) -> Iterator[Tuple[int, object]]:
        """(start, kernel(block)) for each chunk of codewords, in order."""
        return self._store.chunks(kernel)


def code_cached(code: DirectCode, key: tuple, compute: Callable):
    """compute(), kept in the code's cache under `key`.

    A key names the table and what it depends on beyond the code itself, by
    content.
    """
    if key not in code.cache:
        code.cache[key] = compute()
    return code.cache[key]


def build_direct_code(p_x: JointDistribution, params: CodeParams) -> DirectCode:
    store = _build_store(p_x.mass, params, len(p_x.factor_sizes), "codeword-chunk")
    return DirectCode(params=params, p_x=p_x, _store=store)


def build_affine_code(link_sizes: Sequence[int], params: CodeParams) -> DirectCode:
    """Affine GF(2) code; its p_x is the uniform law on the product alphabet."""
    store = AffineStore(link_sizes, params.n, params.seed, params.message_count)
    return DirectCode(params=params, p_x=JointDistribution(store.link_sizes, store.mass),
                      _store=store)


def _uniform_is_optimal(model: NetworkModel, value: float) -> bool:
    """Whether the uniform product law is an optimum of the entropy bound.

    Needs power-of-2 link alphabets, the exact feasibility check, and a value
    within OPT_TOL of the solved `value`.
    """
    sizes = model.link_alphabet_sizes
    if any(s & (s - 1) for s in sizes):
        return False
    total = model.product_alphabet_size
    uniform = JointDistribution(sizes, np.full(total, 1.0 / total))
    report = check_feasibility_b(uniform, model)
    reached = min(e.entropy_unjammed for e in report.entries)
    return report.passed and reached >= value - OPT_TOL


def build_code_for_bound(model: NetworkModel, sol: SolutionB, params: CodeParams) -> DirectCode:
    """The direct code at a solved entropy bound.

    The i.i.d. ensemble draws from sol.p_x. Only where that build is over the
    message budget and the uniform law is itself an optimum is the affine
    GF(2) ensemble used, whose codewords are pairwise independent and uniform
    rather than mutually independent.
    """
    if params.message_count > MESSAGE_BUDGET and _uniform_is_optimal(model, sol.value):
        return build_affine_code(model.link_alphabet_sizes, params)
    return build_direct_code(sol.p_x, params)


def build_layered_code(p_u: Distribution, kernel: ConditionalKernel,
                       params: CodeParams, link_sizes: Sequence[int]) -> DirectCode:
    """The layered scheme's code: auxiliary codewords drawn i.i.d. from p_u.

    The kernel must be the identity on p_u's support, as `solve_a`'s U = X
    embedding is (its zero-mass letters may have any row); anything else
    raises ValueError. Each auxiliary codeword is then the word sent, so the
    code is a direct code whose p_x is the kernel's image of p_u.
    """
    link_sizes = tuple(int(s) for s in link_sizes)
    if kernel.input_size != p_u.alphabet_size:
        raise ValueError("kernel input alphabet does not match the auxiliary distribution")
    if kernel.output_size != int(np.prod(link_sizes)):
        raise ValueError("kernel output alphabet does not match the link alphabets")
    support = np.flatnonzero(p_u.mass)
    if support[-1] >= kernel.output_size or \
            not np.array_equal(kernel.matrix[support], np.eye(kernel.output_size)[support]):
        raise ValueError("the kernel must be the identity on the auxiliary law's support")
    store = _build_store(p_u.mass, params, 1, "u-codeword-chunk")
    return DirectCode(params=params, p_x=JointDistribution(link_sizes, p_u.mass @ kernel.matrix),
                      _store=store)


@dataclass(frozen=True)
class Transmission:
    """Blocks on the wire: status, message, and per-link symbol rows.

    One block has a message and (C, n) links; a batch of blocks of one status
    has an array of messages and links with the same leading shape.
    """

    status: int
    message: Union[int, np.ndarray]
    links: np.ndarray  # (..., C, n)

    def __post_init__(self):
        zero = np.asarray(self.message) == 0
        if np.count_nonzero(zero) != (zero.size if self.status == INNOCENT else 0):
            raise ValueError("innocent status iff message 0")


@dataclass(frozen=True)
class ReceivedWord:
    """Per-link symbol rows with a per-link erasure flag (all-or-nothing)."""

    links: np.ndarray  # (..., C, n); rows of erased links are ignored
    erased: np.ndarray  # (..., C) bool


@dataclass(frozen=True)
class DecodeResult:
    verdict: str  # "innocent" | "message" | "error"
    message: int = 0

    def __post_init__(self):
        if self.verdict == "message" and self.message < 1:
            raise ValueError("message verdict requires a positive message index")

    def decodes(self, m) -> bool:
        """Whether the verdict is right when message m was sent, 0 being innocent."""
        if m == 0:
            return self.verdict == "innocent"
        return self.verdict == "message" and self.message == m


def encode(code: DirectCode, model: NetworkModel, t: int, m, tx_seed) -> Transmission:
    """Alice's encoder: innocent sampling or codeword lookup.

    `m` and `tx_seed` are scalars for one block, or arrays of one shape for a
    batch of blocks of status `t`; each innocent block draws from
    generator(tx_seed, ·). An active block draws nothing, so it needs no seed.
    """
    if t == INNOCENT:
        if not _in_range(m, 0, 1):
            raise ValueError("innocent transmission must carry message 0")
        codes = inverse_cdf(model.innocent.cdf, streams(tx_seed, "innocent").random(code.params.n))
        return Transmission(INNOCENT, m, indexing.unpack_links(codes, model.link_alphabet_sizes))
    if not _in_range(m, 1, code.message_count + 1):
        raise ValueError(f"message {m} out of range 1..{code.message_count}")
    return Transmission(ACTIVE, m, code.codeword_links(m))


def _agreement_pass(code: DirectCode, allowed: np.ndarray) -> Iterator[Tuple[int, tuple]]:
    """(start, (rows, targets)) per chunk: the codewords that agree with each target.

    allowed[k, t, x] says whether letter x at position t agrees with target
    k. One pass over the code serves every target, in groups of 64: bit b of
    the uint64 mask of group g is target 64g + b, and a codeword stays a
    candidate for a target while that bit survives an AND over its positions,
    taken one position at a time over the rows still alive. The candidate
    (row, target) pairs are drawn at most DECODE_CELLS at a time. Rows are
    0-based within their chunk.
    """
    count = code.message_count
    if not code.materialized and count > DECODE_SCAN_BUDGET:
        raise ResourceBudgetError(f"decoding scans all {count} codewords; over the scan budget")
    targets = len(allowed)
    bits = np.uint64(1) << np.arange(64, dtype=np.uint64)
    masks = [(allowed[g:g + 64] * bits[:min(64, targets - g), None, None]).sum(
        axis=0, dtype=np.uint64) for g in range(0, targets, 64)]

    def agree(block):
        pairs = [(np.empty(0, dtype=np.int64),) * 2]
        for g, mask in enumerate(masks):
            width = min(64, targets - 64 * g)
            step = DECODE_CELLS // width
            acc = np.take(mask[0], block[:, 0])
            alive = np.flatnonzero(acc)
            acc = acc[alive]
            for t in range(1, block.shape[1]):
                acc &= np.take(mask[t], block[alive, t])
                keep = np.flatnonzero(acc)
                alive, acc = alive[keep], acc[keep]
            for lo in range(0, alive.size, step):
                cand, bit = np.nonzero(acc[lo:lo + step, None] & bits[:width])
                pairs.append((alive[lo:lo + step][cand], bit + 64 * g))
        return tuple(np.concatenate(p) for p in zip(*pairs))
    return code.chunks(agree)


def _verdict(listed: int, message: int) -> DecodeResult:
    """None listed is innocent, one is `message`, more is an error."""
    if listed == 0:
        return DecodeResult("innocent")
    if listed == 1:
        return DecodeResult("message", message=message)
    return DecodeResult("error")


@dataclass(frozen=True)
class _RestrictionIndex:
    """Every codeword's restriction to each of S link sets, searchable at once.

    The sets are the minimal ones a list step is asked about (`_listed`).
    Set s restricts product code x at position t to tables[s, x], and packs a
    word's n restrictions with weights[s]. keys holds every message's packed
    restriction plus offsets[s] = s << bits, sorted within each set and the
    sets concatenated, so the whole array is sorted; it is stored in the
    narrowest unsigned dtype that holds the largest offset key. messages
    holds the 1-based message of each key. Equal keys keep no particular
    message order: the messages of one set are distinct, so the first and
    last places of a run longer than one hold two messages whatever that
    order is, and no verdict depends on it.
    """

    tables: np.ndarray    # (S, product alphabet) int64
    weights: np.ndarray   # (S, n) int64
    offsets: np.ndarray   # (S,) int64
    keys: np.ndarray      # (S * N,) unsigned, at most 64 bits
    messages: np.ndarray  # (S * N,) int32

    def search(self, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """[lo, hi) of the keys equal to each target, searched in the keys' dtype."""
        targets = targets.astype(self.keys.dtype)
        return (np.searchsorted(self.keys, targets, side="left"),
                np.searchsorted(self.keys, targets, side="right"))


def _restriction_index(code: DirectCode, sets: tuple) -> Optional[_RestrictionIndex]:
    """The index of a materialised i.i.d. code on a tuple of link sets, cached.

    None when the code streams or is affine, or when the offset keys do not
    fit in 63 bits. One chunk pass folds every set's offset keys into one
    preallocated array; then one sort per set orders them. Beyond its S·N
    keys and int32 messages, the build holds one set's sort order and
    chunk-sized temporaries.
    """
    def build():
        n = code.params.n
        alphas = [math.prod(code.link_sizes[i] for i in links) for links in sets]
        bits = max((a ** n - 1).bit_length() for a in alphas)
        if bits + (len(sets) - 1).bit_length() > 63:
            return None
        tables = np.stack([indexing.restrict_codes(code.link_sizes, links) for links in sets])
        weights = np.stack([indexing.sequence_weights(a, n) for a in alphas])
        offsets = np.arange(len(sets), dtype=np.int64) << bits
        keys = np.empty((len(sets), code.message_count),
                        dtype=np.min_scalar_type((len(sets) << bits) - 1))

        def fold(block):
            return [indexing.fold_sequences(block, table, a) + offset
                    for table, a, offset in zip(tables, alphas, offsets)]
        for start, values in code.chunks(fold):
            for row, part in zip(keys, values):
                row[start:start + part.size] = part
        messages = np.empty(keys.shape, dtype=np.int32)
        for row, message in zip(keys, messages):
            order = np.argsort(row)
            row[:] = row[order]
            message[:] = order
            message += 1
        return _RestrictionIndex(tables, weights, offsets, keys.ravel(), messages.ravel())

    if code.affine is not None or not code.materialized:
        return None
    return code_cached(code, ("restriction-index", sets), build)


def _targets(code: DirectCode, links: np.ndarray, sets: tuple) -> np.ndarray:
    """`_agreement_pass` table for the T·S (word, set) targets of (T, C, n) `links`.

    Target k is word k // S on set k % S: a letter agrees with it at position
    t where the letter's restriction to the set equals the word's there.
    """
    sizes = code.link_sizes
    y = np.stack([indexing.pack_links(links[:, list(jc)], [sizes[i] for i in jc])
                  for jc in sets], axis=1)  # (T, S, n)
    allowed = np.stack([(indexing.restriction_matrix(sizes, jc) > 0)[y[:, s]]
                        for s, jc in enumerate(sets)], axis=1)
    return allowed.reshape(-1, *allowed.shape[2:])


def _listed(code: DirectCode, links: np.ndarray, sets: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """(listed count, smallest listed message) per word of (T, C, n) `links`.

    The one list step of both decoders. A word lists the messages whose
    codewords equal it on one of the link `sets`. Agreement on a set implies
    agreement on each of its subsets, so only the minimal sets, those that
    strictly contain no other set of `sets`, are searched: they list the same
    messages. Its count is exact below two and 2 from there on, which
    already makes the verdict an error; its message is 0 where none is
    listed. A materialised i.i.d. code answers every (word, set) target by
    one search of its restriction index on the minimal sets, and lists the
    first and last message of each run of equal keys; an affine code lists
    at most two messages per set, by one solve each, set by set until the
    word lists two. Any other code is read in one agreement pass, which stops
    once every word has listed two messages. Every message agrees with a word
    on an empty set, so that set lists min(N, 2) messages or more.
    """
    words, c, _ = links.shape  # a one-word (C, n) call raises here
    sets = tuple(s for s in sets if not any(set(t) < set(s) for t in sets))
    index = _restriction_index(code, sets)
    affine = code.affine
    if index is not None:
        x = indexing.pack_links(links, code.link_sizes)
        lo, hi = index.search(
            (index.tables[:, x] * index.weights[:, None]).sum(axis=2) + index.offsets[:, None])
        hit = hi > lo
        listed = np.zeros((2, *lo.shape), dtype=np.int64)
        listed[:, hit] = index.messages[lo[hit]], index.messages[hi[hit] - 1]
        listed = listed.reshape(2 * len(sets), words)
    elif affine is not None:
        listed = np.zeros((2, words), dtype=np.int64)
        for w in range(words):
            x = affine.pack(range(c), links[w])
            found = set()
            for jc in sets:  # lazy: sets are solved only until two messages are listed
                found.update(affine.matches(jc, x, limit=2) if jc else
                             range(1, min(code.message_count, 2) + 1))
                if len(found) > 1:
                    break
            if found:
                listed[:, w] = min(found), max(found)
    else:
        low = np.full(words, np.iinfo(np.int64).max)
        high = np.zeros(words, dtype=np.int64)
        for start, (rows, targets) in _agreement_pass(code, _targets(code, links, sets)):
            word, message = targets // len(sets), start + rows + 1
            np.minimum.at(low, word, message)
            np.maximum.at(high, word, message)
            if (low < high).all():
                break
        listed = np.stack([np.where(high > 0, low, 0), high])
    # listed messages per word, 0 for none: a word lists more than one message
    # iff its smallest and largest differ
    high = listed.max(axis=0)
    low = np.where(listed > 0, listed, high).min(axis=0)
    return (high > 0).astype(np.int64) + (low < high), low


def decode_erasure(code: DirectCode, rx: ReceivedWord,
                   model: NetworkModel) -> List[DecodeResult]:
    """Exact list decoding on the unerased links, the jam set read off the erasures.

    A message is listed where its codeword equals the word on every unerased
    link (`_listed` on that one set): none listed is innocent, one is that
    message, more is an error. A word with every link erased, or more
    erasures than the adversary's budget, is an error.

    Takes a batch of T words, (T, C, n) links and (T, C) erasures, and
    returns one DecodeResult per word, in order. The words that share an
    erasure pattern share one `_listed` call.
    """
    links = np.asarray(rx.links)
    words, c, _ = links.shape  # a one-word (C, n) call raises here
    # each word's erasure pattern as an integer, bit i for link i
    keys = np.asarray(rx.erased, dtype=bool) @ (1 << np.arange(c))
    results = [DecodeResult("error")] * words
    for key in np.unique(keys).tolist():
        unjammed = tuple(i for i in range(c) if not key >> i & 1)
        if not unjammed or len(unjammed) < c - model.adversary_budget:
            continue
        members = np.flatnonzero(keys == key)
        count, message = _listed(code, links[members], (unjammed,))
        for w, k, m in zip(members.tolist(), count.tolist(), message.tolist()):
            results[w] = _verdict(k, m)
    return results


def decode_overwrite(code: DirectCode, rx: ReceivedWord,
                     model: NetworkModel) -> List[DecodeResult]:
    """Erasure-like exhaustive list decoding over every candidate jam set.

    A message is listed where its codeword equals the word on the unjammed
    links of some candidate jam set (`_listed`): none listed is innocent, one
    is that message, more is an error.

    Takes a batch of T words, (T, C, n) links and (T, C) erasures, and
    returns one DecodeResult per word, in order, from one `_listed` call. A
    word with an erased link raises ValueError.
    """
    if np.asarray(rx.erased).any():
        raise ValueError("overwrite decoding expects a fully symbol-valued word")
    count, message = _listed(code, np.asarray(rx.links), model.unjammed_sets)
    return [_verdict(k, m) for k, m in zip(count.tolist(), message.tolist())]


# ---------------------------------------------------------------------------
# Streaming census used by the concentration and spoof-ratio surrogates
# ---------------------------------------------------------------------------

@dataclass
class RestrictionSurvey:
    """One streaming pass over a direct codebook.

    counts_j: histogram of packed restrictions to the jammed links;
    pair_values_sorted: packed (x_J, x_G) pairs over all messages, sorted;
    match_xj / match_g: for messages whose x_J hit a requested target, the
    packed jammed and good-set restrictions.
    """

    counts_j: np.ndarray
    pair_values_sorted: np.ndarray
    match_xj: np.ndarray
    match_g: np.ndarray
    j_space: int
    g_space: int


def survey_restrictions(code: DirectCode, j_links: Sequence[int],
                        g_links: Sequence[int],
                        xj_targets: Optional[np.ndarray] = None) -> RestrictionSurvey:
    """Collect restriction statistics in a single pass over the codebook."""
    j_links = tuple(sorted(int(i) for i in j_links))
    g_links = tuple(sorted(int(i) for i in g_links))
    if set(j_links) & set(g_links):
        raise ValueError("jammed and good link sets must be disjoint")
    n = code.params.n
    sizes = code.link_sizes
    aj = int(np.prod([sizes[i] for i in j_links]))
    ag = int(np.prod([sizes[i] for i in g_links]))
    j_space = aj ** n
    g_space = ag ** n
    if j_space > CENSUS_BUDGET:
        raise ResourceBudgetError("jammed restriction space exceeds the census budget")
    if n * (math.log2(aj) + math.log2(ag)) > 63:
        raise ResourceBudgetError("pair restriction space exceeds 63-bit packing")

    restrict_j = indexing.restrict_codes(sizes, j_links)
    restrict_g = indexing.restrict_codes(sizes, g_links)
    wanted = np.zeros(j_space, dtype=bool)
    if xj_targets is not None:
        targets = np.asarray(xj_targets, dtype=np.int64)
        wanted[targets[(targets >= 0) & (targets < j_space)]] = True

    pair_dtype = np.uint32 if j_space * g_space <= (1 << 32) else np.uint64

    def census(block):
        pj = indexing.fold_sequences(block, restrict_j, aj)
        pg = indexing.fold_sequences(block, restrict_g, ag)
        mask = wanted[pj]
        return pj, (pj * g_space + pg).astype(pair_dtype), pj[mask], pg[mask]

    pair_values = np.empty(code.message_count, dtype=pair_dtype)
    counts = np.zeros(j_space, dtype=np.int64)
    got_xj, got_g = [], []
    for start, (pj, pair, xj, g) in code.chunks(census):
        np.add.at(counts, pj, 1)
        pair_values[start:start + pair.size] = pair
        got_xj.append(xj)
        got_g.append(g)
    pair_values.sort()
    return RestrictionSurvey(
        counts_j=counts,
        pair_values_sorted=pair_values,
        match_xj=np.concatenate(got_xj),
        match_g=np.concatenate(got_g),
        j_space=j_space,
        g_space=g_space,
    )


def pair_membership(survey: RestrictionSurvey, xj_packed: np.ndarray,
                    g_packed: np.ndarray) -> np.ndarray:
    """Whether each (x_J, x_G) pair occurs as some codeword's restriction."""
    query = (np.asarray(xj_packed, dtype=np.int64) * survey.g_space +
             np.asarray(g_packed, dtype=np.int64)).astype(survey.pair_values_sorted.dtype)
    pos = np.searchsorted(survey.pair_values_sorted, query)
    pos[pos == survey.pair_values_sorted.size] = 0
    return survey.pair_values_sorted[pos] == query
