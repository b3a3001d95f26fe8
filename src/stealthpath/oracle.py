"""Exact brute-force references on tiny instances.

Everything here enumerates: n-letter marginals of what the adversary observes,
exact variational-distance stealth gaps, exhaustive detector optimization,
exact decoder error probabilities, and a grid search over the marginal-matching
polytope. These certify the fast Monte Carlo and solver paths on instances
small enough to enumerate; every operation raises ResourceBudgetError instead
of silently approximating when the state space is too large. Codes of both
schemes are direct codes, so a marginal is one histogram of the codewords,
and an error probability takes its decoder from the jamming; both decoders
list by exact agreement, so it needs no typicality slack.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence, Tuple, Union

import numpy as np

from . import gf2, indexing
from .adversary import JammingStrategy, JamSet, iid_blocks
from .codec import (
    DirectCode,
    ReceivedWord,
    ResourceBudgetError,
    code_cached,
    decode_erasure,
    decode_overwrite,
)
from .probkit import (
    Distribution,
    JointDistribution,
    TypicalityParams,
    entropy_of_mass,
    typical_rows,
    variational_distance,
)
from .ratesolver import (
    NetworkModel,
    SolutionB,
    check_feasibility_b,
    jammed_entropies,
    marginal_system,
    unjammed_matrices,
)

# Enumeration limits: the observation space of an exact marginal and of an
# exhaustive detector; the blocks and messages of an exact error probability;
# the observation points of `brute_force_min_ab` (2^points detectors); the free
# directions of `grid_solve_b`'s polytope.
MARGINAL_BUDGET = 1 << 22
DETECTOR_BUDGET = 1 << 16
ENUMERATION_BUDGET = 1 << 20
BRUTE_FORCE_POINTS = 16
GRID_MAX_DIMENSION = 4
_WORK_BUDGET = 1 << 28
# Elements of the observation sequences the gap partition unpacks at once;
# small enough not to move a run's peak memory.
_BATCH_ELEMENTS = 1 << 15
# Received words an exact error probability hands the decoder per call.
_DECODE_BATCH = 1 << 12


def _jam_space(sizes: Sequence[int], j: JamSet, n: int, budget: int) -> int:
    """Size of j's n-letter observation space, given the link sizes; raises above `budget`."""
    aj = int(np.prod([sizes[i] for i in j.links])) if j.links else 1
    if n * math.log2(max(aj, 2)) > 62:
        raise ResourceBudgetError("observation space exceeds 63-bit indexing")
    space = aj ** n
    if space > budget:
        raise ResourceBudgetError(f"observation space {space} exceeds budget {budget}")
    return space


def exact_innocent_marginal(model: NetworkModel, j: JamSet, n: int) -> Distribution:
    """n-fold product of the innocent marginal on the jammed links."""
    space = _jam_space(model.link_alphabet_sizes, j, n, MARGINAL_BUDGET)
    if not j.links:
        return Distribution(1, np.array([1.0]))
    single = model.innocent_marginal(j.links)
    mass = np.array([1.0])
    for _ in range(n):
        mass = np.kron(mass, single)
    return Distribution(space, mass)


def exact_active_marginal(code: DirectCode, j: JamSet) -> Distribution:
    """What the adversary sees on the jammed links, averaged over all codewords.

    One streaming histogram pass of the codewords' jammed restrictions: O(N n)
    work regardless of the observation space, each chunk added to the one
    histogram in place. The histogram counts in float64 (exact integers below
    2^53) and is divided in place, so it is the only space-sized array besides
    the Distribution's own copy.
    """
    sizes = code.link_sizes
    n = code.params.n
    aj = int(np.prod([sizes[i] for i in j.links])) if j.links else 1
    space = _jam_space(sizes, j, n, MARGINAL_BUDGET)
    count = code.message_count
    if not j.links:
        return Distribution(1, np.array([1.0]))
    if count * n > _WORK_BUDGET:
        raise ResourceBudgetError("marginal enumeration work exceeds the budget")
    restrict = indexing.restrict_codes(sizes, j.links)
    hist = np.zeros(space)
    for _, packed in code.chunks(lambda block: indexing.fold_sequences(block, restrict, aj)):
        np.add.at(hist, packed, 1.0)
    hist /= count
    return Distribution(space, hist)


def cached_active_marginal(code: DirectCode, j: JamSet) -> Distribution:
    """exact_active_marginal(code, j), computed once per jam set of a code.

    The marginal is kept in the code's cache, so a detector and a stealth gap
    on the same code share one enumeration.
    """
    return code_cached(code, ("active-marginal", j.links),
                       lambda: exact_active_marginal(code, j))


def exact_stealth_gap(code: DirectCode, model: NetworkModel, j: JamSet) -> float:
    """Exact variational distance between active and innocent observations.

    An affine code against a uniform innocent marginal on j needs no
    enumeration of the observation space, so MARGINAL_BUDGET does not apply
    to it.
    """
    if code.affine is not None and j.links:
        single = model.innocent_marginal(j.links)
        if np.allclose(single, 1.0 / single.size, rtol=0.0, atol=1e-12):
            return _affine_uniform_gap(code, j)
    active = cached_active_marginal(code, j)
    innocent = exact_innocent_marginal(model, j, code.params.n)
    return variational_distance(active, innocent)


def _affine_uniform_gap(code: DirectCode, j: JamSet) -> float:
    """Variational distance from an affine code's law on j to the uniform law.

    The law is a sum of uniform measures on the images of the dyadic blocks
    of the message range (`AffineStore.restriction_images`). The images are
    nested or disjoint, so each point's mass is the sum of hits along the
    chain of images above it, and the distance is the uniform mass u left
    uncovered: sum over points of max(u - mass, 0).
    """
    images, dim = code.affine.restriction_images(j.links)
    count = code.message_count
    u = 2.0 ** -dim
    parent = [next((b for b in range(a + 1, len(images))
                    if gf2.in_span(images[a][2] ^ images[b][2], images[b][1])), None)
              for a in range(len(images))]
    mass = [0.0] * len(images)
    for a in reversed(range(len(images))):
        up = mass[parent[a]] if parent[a] is not None else 0.0
        mass[a] = images[a][0] / count + up
    region = [1 << len(basis) for _, basis, _ in images]
    covered = 0
    for a, p in enumerate(parent):
        size = 1 << len(images[a][1])
        if p is None:
            covered += size
        else:
            region[p] -= size
    gap = u * ((1 << dim) - covered)
    gap += sum(r * max(u - m, 0.0) for r, m in zip(region, mass))
    return float(gap)


def stealth_gap_partition(code: DirectCode, model: NetworkModel, j: JamSet,
                          tp: TypicalityParams) -> Tuple[float, float]:
    """Split the exact gap into typical and atypical observation contributions.

    The two terms sum to the total gap exactly; typicality is judged against
    the single-letter innocent marginal on the jammed links.
    """
    active = cached_active_marginal(code, j)
    innocent = exact_innocent_marginal(model, j, code.params.n)
    n = code.params.n
    single = model.innocent_marginal(j.links)
    space = active.alphabet_size
    typical = np.empty(space, dtype=bool)
    batch = max(_BATCH_ELEMENTS // n, 1)
    for lo in range(0, space, batch):
        seqs = indexing.unpack_sequences(np.arange(lo, min(lo + batch, space)), single.size, n)
        typical[lo:lo + batch] = typical_rows(seqs, single, tp.gamma)
    diff = 0.5 * np.abs(active.mass - innocent.mass)
    return float(diff[typical].sum()), float(diff[~typical].sum())


def exhaustive_best_detector(code: DirectCode, model: NetworkModel,
                             j: JamSet) -> Tuple[float, float, float]:
    """(alpha, beta, alpha+beta) of the pointwise-optimal deterministic detector."""
    _jam_space(model.link_alphabet_sizes, j, code.params.n, DETECTOR_BUDGET)
    active = cached_active_marginal(code, j)
    innocent = exact_innocent_marginal(model, j, code.params.n)
    flag = active.mass > innocent.mass  # verdict 1 exactly where active dominates
    alpha = float(innocent.mass[flag].sum())
    beta = float(active.mass[~flag].sum())
    return alpha, beta, alpha + beta


def brute_force_min_ab(innocent: Distribution, active: Distribution) -> float:
    """min over ALL deterministic detectors of alpha+beta, by literal enumeration."""
    s = innocent.alphabet_size
    if s != active.alphabet_size:
        raise ValueError("alphabet mismatch")
    if s > BRUTE_FORCE_POINTS:
        raise ResourceBudgetError(f"2^{s} detectors exceed the enumeration budget")
    best = 2.0
    for bits in range(1 << s):
        flag = np.array([(bits >> i) & 1 for i in range(s)], dtype=bool)
        ab = float(innocent.mass[flag].sum()) + float(active.mass[~flag].sum())
        best = min(best, ab)
    return best


# ---------------------------------------------------------------------------
# Exact decoder error probability
# ---------------------------------------------------------------------------

def _innocent_blocks(model: NetworkModel, n: int) -> Iterator[Tuple[float, np.ndarray]]:
    """Every innocent n-block with its probability (zero-mass blocks skipped)."""
    if model.product_alphabet_size ** n > ENUMERATION_BUDGET:
        raise ResourceBudgetError("innocent block enumeration exceeds the budget")
    yield from iid_blocks(model.innocent.mass, model.link_alphabet_sizes, n)


def _received_words(links: np.ndarray, j: JamSet, jamming: Union[str, JammingStrategy],
                    model: NetworkModel, code: DirectCode) -> Iterator[Tuple[float, ReceivedWord]]:
    c = links.shape[0]
    if jamming == "erasure":
        erased = np.zeros(c, dtype=bool)
        erased[list(j.links)] = True
        out = links.copy()
        out[erased] = 0
        yield 1.0, ReceivedWord(links=out, erased=erased)
        return
    strategy = jamming
    if not isinstance(strategy, JammingStrategy):
        raise ValueError("jamming must be 'erasure' or a JammingStrategy instance")
    if not j.links:
        yield 1.0, ReceivedWord(links=links.copy(), erased=np.zeros(c, dtype=bool))
        return
    x_j = links[list(j.links)]
    for p, y_j in strategy.outcomes(x_j, j, model, code):
        out = links.copy()
        out[list(j.links)] = y_j
        yield p, ReceivedWord(links=out, erased=np.zeros(c, dtype=bool))


def exact_error_probability(code: DirectCode, model: NetworkModel, j: JamSet,
                            jamming: Union[str, JammingStrategy]) -> float:
    """Exact error probability, summed over the innocent and active hypotheses."""
    err0, err1 = exact_error_components(code, model, j, jamming)
    return err0 + err1


def exact_error_components(code: DirectCode, model: NetworkModel, j: JamSet,
                           jamming: Union[str, JammingStrategy]) -> Tuple[float, float]:
    """Exact per-hypothesis error probabilities (innocent, active).

    Enumerates message choice and strategy randomness. The jamming picks the
    decoder, whatever built the code: erasure jamming pairs with
    `decode_erasure`, an overwrite strategy with `decode_overwrite`.
    """
    decoder = decode_erasure if jamming == "erasure" else decode_overwrite

    def decode(rx):
        return decoder(code, rx, model)
    n = code.params.n
    # Innocent hypothesis: error whenever the verdict is not "innocent".
    innocent = ((p_block * p_rx, rx) for p_block, links in _innocent_blocks(model, n)
                for p_rx, rx in _received_words(links, j, jamming, model, code))
    err0 = sum((p for p, result in _decoded(innocent, decode) if not result.decodes(0)), 0.0)
    # Active hypothesis: uniform message; error unless that exact message decodes.
    count = code.message_count
    if count > ENUMERATION_BUDGET:
        raise ResourceBudgetError("message enumeration exceeds the budget")
    active = (((p_rx, m), rx) for m in range(1, count + 1)
              for p_rx, rx in _received_words(code.codeword_links(m), j, jamming, model, code))
    err1 = sum((p / count for (p, m), result in _decoded(active, decode)
                if not result.decodes(m)), 0.0)
    return err0, err1


def _decoded(outcomes: Iterator, decode: Callable) -> Iterator:
    """(key, verdict) for each (key, received word) of `outcomes`, in order.

    The words go to `decode` _DECODE_BATCH at a time.
    """
    outcomes = iter(outcomes)
    while batch := list(itertools.islice(outcomes, _DECODE_BATCH)):
        keys, words = zip(*batch)
        rx = ReceivedWord(links=np.stack([w.links for w in words]),
                          erased=np.stack([w.erased for w in words]))
        yield from zip(keys, decode(rx))


# ---------------------------------------------------------------------------
# Grid reference for the entropy-bound optimization
# ---------------------------------------------------------------------------

def grid_solve_b(model: NetworkModel, grid_resolution: float = 1e-2) -> SolutionB:
    """Exhaustive multi-resolution grid over the marginal-matching polytope.

    A slow certified reference for the projected-ascent solver; refuses
    instances whose polytope has more than GRID_MAX_DIMENSION free directions.
    """
    if grid_resolution <= 0:
        raise ValueError("grid_resolution must be positive")
    dim_x = model.product_alphabet_size
    if model.adversary_budget == 0:
        # Only normalization constrains the mass: the uniform law is optimal.
        p = np.full(dim_x, 1.0 / dim_x)
        return SolutionB(feasible=True,
                         p_x=JointDistribution(model.link_alphabet_sizes, p),
                         value=float(np.log2(dim_x)),
                         feasibility_margin=float(np.log2(dim_x)),
                         info={"method": "grid", "dimension": 0})
    m, b = marginal_system(model)
    # Orthonormal nullspace of the constraint matrix.
    _, sv, vt = np.linalg.svd(m)
    rank = int((sv > 1e-10).sum())
    null = vt[rank:].T  # (dim_x, d)
    d = null.shape[1]
    if d > GRID_MAX_DIMENSION:
        raise ResourceBudgetError(
            f"polytope dimension {d} exceeds the grid limit {GRID_MAX_DIMENSION}")
    s_jc = unjammed_matrices(model)
    max_h_jammed = float(jammed_entropies(model).max())
    p0 = model.innocent.mass.copy()  # always satisfies the marginal constraints

    def value_at(t: np.ndarray) -> float:
        p = p0 + null @ t
        if p.min() < -1e-12:
            return -np.inf
        p = np.maximum(p, 0.0)
        return min(entropy_of_mass(s @ p) for s in s_jc)

    # Coarse-to-fine refinement around the incumbent; grids always contain
    # their center so the start (the innocent point) is never lost.
    center = np.zeros(d)
    half = 1.5  # |t| <= ||p - p0||_2 <= sqrt(2) for simplex points
    best_t, best_v = center.copy(), value_at(center)
    points_per_axis = 11
    step = 2 * half / (points_per_axis - 1)
    while True:
        axes = [center[i] + np.linspace(-half, half, points_per_axis) for i in range(d)]
        for combo in itertools.product(*axes):
            v = value_at(np.array(combo))
            if v > best_v:
                best_t, best_v = np.array(combo), v
        if step <= grid_resolution:
            break
        center = best_t
        half = step  # refine one coarse cell around the incumbent
        step = 2 * half / (points_per_axis - 1)

    p = np.maximum(p0 + null @ best_t, 0.0)
    p /= p.sum()
    margin = best_v - max_h_jammed
    report = check_feasibility_b(JointDistribution(model.link_alphabet_sizes, p), model,
                                 tol_marg=1e-6, delta_feas=0.0)
    info = {"method": "grid", "dimension": d, "resolution": grid_resolution}
    if margin <= 0:
        return SolutionB(feasible=False, value=best_v, feasibility_margin=margin,
                         reason="no grid point with positive entropy margin", info=info)
    return SolutionB(feasible=True,
                     p_x=JointDistribution(model.link_alphabet_sizes, p),
                     value=best_v, feasibility_margin=margin, info=info)
