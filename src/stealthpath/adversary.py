"""The eavesdrop-and-jam adversary.

Jam-set selection, the two physical jamming modes (erase a link wholesale or
overwrite its symbols), a small suite of overwrite strategies covering the
qualitatively distinct attacks (noise, innocent mimicry, codebook-aware
spoofing, symmetrization), and the likelihood-ratio detector against exact
n-letter marginals.

Every strategy exposes both `apply` (sampled, for Monte Carlo) and `outcomes`
(the full conditional output law, for the exact oracle; `iid_blocks` serves
both it and the oracle's innocent hypothesis). `apply`, the jamming modes and
the detector take one block or a batch of blocks with leading trial axes; a
batch draws, block for block, what one call per block would draw.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import indexing
from .codec import (
    DirectCode,
    ReceivedWord,
    ResourceBudgetError,
    Transmission,
    code_cached,
)
from .probkit import Distribution, inverse_cdf, typical_rows
from .ratesolver import NetworkModel
from .rng import streams

# Outcomes a strategy's `outcomes` enumerates at most before it refuses.
OUTCOME_BUDGET = 1 << 20


@dataclass(frozen=True)
class JamSet:
    """A sorted subset of link indices the adversary controls."""

    links: tuple

    def __post_init__(self):
        links = tuple(sorted(int(i) for i in self.links))
        if len(set(links)) != len(links) or any(i < 0 for i in links):
            raise ValueError("jam set must be distinct non-negative link indices")
        object.__setattr__(self, "links", links)

    def validate(self, model: NetworkModel) -> "JamSet":
        if len(self.links) > model.adversary_budget and not model.allow_symmetrizable:
            raise ValueError(f"jam set {self.links} exceeds budget {model.adversary_budget}")
        if any(i >= model.link_count for i in self.links):
            raise ValueError("jam set references a nonexistent link")
        return self

    def complement(self, link_count: int) -> tuple:
        return tuple(i for i in range(link_count) if i not in self.links)


def erasure_jam(tx: Transmission, j: JamSet) -> ReceivedWord:
    """Erase the jammed links wholesale; pass the rest through verbatim."""
    erased = np.zeros(tx.links.shape[:-1], dtype=bool)
    erased[..., list(j.links)] = True
    links = tx.links.copy()
    links[erased] = 0  # erased rows carry no information
    return ReceivedWord(links=links, erased=erased)


class JammingStrategy:
    """Conditional law of the overwritten symbols given the observed block.

    `apply` draws one output per block of x_j, (..., |j|, n), from
    generator(seed, ·) of that block's seed (`seed` has the leading shape);
    `outcomes` enumerates the full conditional distribution of one block as
    (probability, replacement rows) pairs for the exact oracle, and raises
    ResourceBudgetError above OUTCOME_BUDGET outcomes.

    Both are asked only about a jam set that has links: `overwrite_jam` and
    the oracle pass the empty set's blocks through without a strategy.
    """

    id: str = ""
    params_schema: dict = {}

    def apply(self, x_j: np.ndarray, j: JamSet, model: NetworkModel,
              code: Optional[DirectCode], seed: int) -> np.ndarray:
        raise NotImplementedError

    def outcomes(self, x_j: np.ndarray, j: JamSet, model: NetworkModel,
                 code: Optional[DirectCode]) -> List[Tuple[float, np.ndarray]]:
        raise NotImplementedError

    def _direct(self, code) -> DirectCode:
        """`code`, which this strategy reads codewords from; it must be given."""
        if code is None:
            raise ValueError(f"strategy {self.id!r} needs a codebook handle")
        return code


def _jam_marginal(model: NetworkModel, j: JamSet) -> Distribution:
    """The innocent law on the jammed links."""
    mass = model.innocent_marginal(j.links)
    return Distribution(mass.size, mass)


def _sub_sizes(model: NetworkModel, j: JamSet) -> list:
    return [model.link_alphabet_sizes[i] for i in j.links]


class Passthrough(JammingStrategy):
    """Leaves the observed symbols untouched."""

    id = "passthrough"

    def apply(self, x_j, j, model, code, seed):
        return x_j.copy()

    def outcomes(self, x_j, j, model, code):
        return [(1.0, x_j.copy())]


class UniformRandom(JammingStrategy):
    """Replaces the jammed links with i.i.d. uniform symbols."""

    id = "uniform-random"

    def apply(self, x_j, j, model, code, seed):
        draws = streams(seed, "uniform-jam")
        sizes = _sub_sizes(model, j)
        return np.stack([draws.integers(s, x_j.shape[-1]) for s in sizes], axis=-2)

    def outcomes(self, x_j, j, model, code):
        sizes = _sub_sizes(model, j)
        n = x_j.shape[1]
        aj = int(np.prod(sizes))
        if aj ** n > OUTCOME_BUDGET:
            raise ResourceBudgetError("uniform-jam outcome space exceeds the budget")
        prob = 1.0 / aj ** n
        out = []
        for combo in itertools.product(range(aj), repeat=n):
            out.append((prob, indexing.unpack_links(np.array(combo), sizes)))
        return out


class ResampleInnocent(JammingStrategy):
    """Replaces the jammed links with fresh i.i.d. innocent-marginal symbols."""

    id = "resample-innocent"

    def apply(self, x_j, j, model, code, seed):
        draws = streams(seed, "innocent-jam").random(x_j.shape[-1])
        codes = inverse_cdf(_jam_marginal(model, j).cdf, draws)
        return indexing.unpack_links(codes, _sub_sizes(model, j))

    def outcomes(self, x_j, j, model, code):
        mass = _jam_marginal(model, j).mass
        n = x_j.shape[1]
        if mass.size ** n > OUTCOME_BUDGET:
            raise ResourceBudgetError("innocent-jam outcome space exceeds the budget")
        return list(iid_blocks(mass, _sub_sizes(model, j), n))


def iid_blocks(mass: np.ndarray, sizes: Sequence[int],
               n: int) -> Iterator[Tuple[float, np.ndarray]]:
    """(probability, link rows) of every n-block of i.i.d. letters from `mass`'s
    support, in lexicographic order; the caller bounds the enumeration."""
    for combo in itertools.product(np.flatnonzero(mass), repeat=n):
        yield float(np.prod(mass[list(combo)])), indexing.unpack_links(np.array(combo), sizes)


SPOOF_DRAWS = 4096
SPOOF_CHUNK = 16


def _codeword_restrictions(code: DirectCode, j: JamSet) -> np.ndarray:
    """(N, n) restriction codes of every codeword on the jammed links."""
    restrict = indexing.restrict_codes(code.link_sizes, j.links)
    restrict = restrict.astype(np.min_scalar_type(int(restrict.max())))
    parts = [part for _, part in code.chunks(lambda block: restrict[block])]
    return np.concatenate(parts, axis=0)


class SpoofCodeword(JammingStrategy):
    """Writes the restriction of a uniformly chosen typical-looking codeword.

    Candidate messages are those whose restriction to the jammed links is
    strongly typical for the code's jammed-link marginal; if none qualify the
    choice falls back to all messages. Typicality depends only on a
    restriction's type, so the candidate table judges each distinct type once.
    """

    id = "spoof-codeword"
    params_schema = {"gamma": "typicality slack (default 0.1)"}

    def __init__(self, gamma: float = 0.1):
        self.gamma = float(gamma)

    @staticmethod
    def _jam_mass(code: DirectCode, j: JamSet) -> np.ndarray:
        return code_cached(code, ("codeword-jam-mass", j.links), lambda: (
            indexing.restriction_matrix(code.link_sizes, j.links) @ code.p_x.mass))

    def _candidates(self, code: DirectCode, j: JamSet) -> np.ndarray:
        """Candidate messages, kept in the code's cache.

        One chunk pass keys each codeword by the type of its restriction r,
        its letter counts packed base n+1 (sum_t (n+1)**r(x_t)), and
        `typical_rows` judges one row per distinct type of the chunk. The key
        fits in int64 iff (n+1)**A_J <= 2**63 for A_J jammed letters, the
        63-bit rule of the decoder's restriction index; otherwise every
        codeword's restriction is judged on its own.
        """
        def compute():
            n = code.params.n
            restrict = indexing.restrict_codes(code.link_sizes, j.links)
            mass = self._jam_mass(code, j)
            a = mass.size
            if (n + 1) ** a > 1 << 63:
                restrict = restrict.astype(np.min_scalar_type(a - 1))

                def typical(block):
                    return typical_rows(restrict[block], mass, self.gamma)
            else:
                weights = (n + 1) ** np.arange(a, dtype=np.int64)
                table = weights[restrict]

                def typical(block):
                    keys, inverse = np.unique(indexing.fold_sequences(block, table, 1),
                                              return_inverse=True)
                    counts = (keys[:, None] // weights % (n + 1)).ravel()
                    rows = np.repeat(np.tile(np.arange(a), keys.size), counts)
                    return typical_rows(rows.reshape(keys.size, n), mass, self.gamma)[inverse]
            cand = np.concatenate([np.flatnonzero(hit) + start + 1
                                   for start, hit in code.chunks(typical)])
            return cand if cand.size else np.arange(1, code.message_count + 1)
        return code_cached(code, ("spoof-candidates", self.gamma, j.links), compute)

    def _affine_messages(self, code: DirectCode, j: JamSet, seed) -> np.ndarray:
        """Each block's message on an affine code, from generator(seed, "spoof").

        Uniform draws kept only when typical are uniform over the candidates;
        after SPOOF_DRAWS misses the enumerated list decides. Draws come in
        chunks of SPOOF_CHUNK, SPOOF_CHUNK, then doubling: a block keeps its
        first typical draw, and one that misses them all has used exactly
        SPOOF_DRAWS draws, as one draw at a time would.
        """
        restrict = indexing.restrict_codes(code.link_sizes, j.links)
        mass = self._jam_mass(code, j)
        seeds = np.ravel(seed)
        draws = streams(seeds, "spoof")
        m = np.zeros(seeds.size, dtype=np.int64)
        left = np.arange(seeds.size)          # blocks without a typical draw yet
        drawn = 0
        while drawn < SPOOF_DRAWS and left.size:
            k = min(max(drawn, SPOOF_CHUNK), SPOOF_DRAWS - drawn)
            drawn += k
            ms = draws.integers(code.message_count, k)[left] + 1
            hit = typical_rows(restrict[code.codeword(ms)].reshape(ms.size, -1), mass,
                               self.gamma).reshape(ms.shape)
            found = hit.any(axis=1)
            m[left[found]] = ms[found, hit[found].argmax(axis=1)]
            left = left[~found]
        if left.size:
            cand = self._candidates(code, j)
            m[left] = cand[draws.integers(cand.size, 1)[left, 0]]
        return m.reshape(np.shape(seed))

    def apply(self, x_j, j, model, code, seed):
        code = self._direct(code)
        if code.affine is not None:
            m = self._affine_messages(code, j, seed)
        else:
            cand = self._candidates(code, j)
            m = cand[streams(seed, "spoof").integers(cand.size, 1)[..., 0]]
        return code.codeword_links(m)[..., list(j.links), :]

    def outcomes(self, x_j, j, model, code):
        code = self._direct(code)
        cand = self._candidates(code, j)
        sizes = _sub_sizes(model, j)
        weights: Dict[tuple, float] = {}
        for m in cand:
            key = tuple(code.codeword_links(int(m))[list(j.links)].ravel())
            weights[key] = weights.get(key, 0.0) + 1.0 / cand.size
        n = x_j.shape[1]
        return [(p, np.array(k).reshape(len(sizes), n)) for k, p in sorted(weights.items())]


class SpoofConsistent(JammingStrategy):
    """Writes the codeword restriction that best agrees with the observation."""

    id = "spoof-consistent"

    def _best(self, x_j, j, code) -> int:
        code = self._direct(code)
        if code.affine is not None:
            # A codeword that agrees everywhere is the best; the smallest such
            # one is a coset solve.
            exact = code.affine.matches(j.links, code.affine.pack(j.links, x_j), limit=1)
            if exact:
                return exact[0]
        sub = code_cached(code, ("codeword-restrictions", j.links),
                          lambda: _codeword_restrictions(code, j))
        obs = indexing.pack_links(x_j, [code.link_sizes[i] for i in j.links])
        agreement = (sub == obs[None, :]).sum(axis=1)
        return int(np.argmax(agreement)) + 1  # ties -> smallest message

    def apply(self, x_j, j, model, code, seed):
        blocks = x_j.reshape((-1,) + x_j.shape[-2:])
        m = np.reshape([self._best(x, j, code) for x in blocks], x_j.shape[:-2])
        return code.codeword_links(m)[..., list(j.links), :]

    def outcomes(self, x_j, j, model, code):
        m = self._best(x_j, j, code)
        return [(1.0, code.codeword_links(m)[list(j.links)])]


class Symmetrize(JammingStrategy):
    """Pretends to be the sender: writes a uniformly chosen fake codeword.

    Only meaningful when the jammed links can carry a full codeword image the
    decoder cannot distinguish from the honest half, i.e. |j| >= C/2.
    """

    id = "symmetrize"

    def _check(self, j: JamSet, model: NetworkModel, code) -> DirectCode:
        if 2 * len(j.links) < model.link_count:
            raise ValueError("symmetrization needs |j| >= C/2")
        return self._direct(code)

    def apply(self, x_j, j, model, code, seed):
        code = self._check(j, model, code)
        m = streams(seed, "fake-message").integers(code.message_count, 1)[..., 0] + 1
        return code.codeword_links(m)[..., list(j.links), :]

    def outcomes(self, x_j, j, model, code):
        code = self._check(j, model, code)
        n = code.message_count
        if n > OUTCOME_BUDGET:
            raise ResourceBudgetError("fake-message enumeration exceeds the budget")
        return [(1.0 / n, code.codeword_links(m)[list(j.links)])
                for m in range(1, n + 1)]


_STRATEGY_CLASSES = (Passthrough, UniformRandom, ResampleInnocent,
                     SpoofCodeword, SpoofConsistent, Symmetrize)
STRATEGY_IDS = tuple(cls.id for cls in _STRATEGY_CLASSES)


def get_strategy(strategy_id: str, **params) -> JammingStrategy:
    """Instantiate a registered strategy by id."""
    for cls in _STRATEGY_CLASSES:
        if cls.id == strategy_id:
            return cls(**params)
    raise ValueError(f"unknown jamming strategy {strategy_id!r}; "
                     f"registered: {', '.join(STRATEGY_IDS)}")


def list_strategies() -> List[dict]:
    return [{"id": cls.id, "params": dict(cls.params_schema)} for cls in _STRATEGY_CLASSES]


def overwrite_jam(tx: Transmission, j: JamSet, strategy: JammingStrategy,
                  seed, model: NetworkModel,
                  code: Optional[DirectCode] = None) -> ReceivedWord:
    """Replace the jammed links with the strategy's output; erase nothing.

    A batch of blocks takes an array of seeds of the batch's leading shape.
    """
    links = tx.links.copy()
    if j.links:
        jammed = list(j.links)
        x_j = tx.links[..., jammed, :]
        y_j = strategy.apply(x_j, j, model, code, seed)
        if y_j.shape != x_j.shape:
            raise ValueError(f"strategy {strategy.id!r} returned shape {y_j.shape}, "
                             f"expected {x_j.shape}")
        links[..., jammed, :] = y_j
    return ReceivedWord(links=links, erased=np.zeros(links.shape[:-1], dtype=bool))


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------

def pack_observation(x_j: np.ndarray, sizes: Sequence[int]):
    """Jammed-link blocks (..., |j|, n) -> indices into the n-letter observation space."""
    return indexing.pack_sequences(indexing.pack_links(x_j, sizes), math.prod(sizes))


def optimal_detect(x_j: np.ndarray, sizes: Sequence[int],
                   innocent_marg_n: Distribution,
                   active_marg_n: Distribution):
    """Likelihood-ratio test at threshold 1 against exact n-letter marginals.

    Returns 1 iff the active mass strictly exceeds the innocent mass at the
    observed block, ties breaking toward innocent; an int array of verdicts
    for a batch of blocks.
    """
    if innocent_marg_n.alphabet_size != active_marg_n.alphabet_size:
        raise ValueError("marginal handles disagree on the observation space")
    idx = pack_observation(x_j, sizes)
    verdict = active_marg_n.mass[idx] > innocent_marg_n.mass[idx]
    return verdict.astype(np.int64) if np.ndim(verdict) else int(verdict)
