"""Achievable-rate bounds for the multipath stealth problem.

Two bounds are computed for a network with C links and an adversary that can
control any subset of at most Z links:

  * the entropy bound (direct scheme): maximize the worst-case entropy of the
    transmission seen on the unjammed links, subject to every size-<=Z marginal
    matching the innocent distribution;
  * the auxiliary-variable bound (layered scheme): the same game played through
    an auxiliary variable U and a kernel U -> X.

The entropy problem is concave over an affine polytope and is solved by
projected supergradient ascent with multi-start; the starts run in lockstep
as the rows of one array. Projections and the backtracking line search are
batch-first, and each row's arithmetic is the one it would do alone (one gemv
per row, never a gemm), so batching moves no output byte. The auxiliary
bound is never above the entropy bound, as I(U; X_Jc) <= H(X_Jc) for every
kernel, and the U = X embedding of the entropy optimum attains it: `solve_a`
returns that embedding without a search, and refuses an auxiliary alphabet
smaller than the product alphabet.

`SolverConfig` sets only the number of starts and their seed. The rest are
module constants: a solution counts as feasible when every marginal gap is at
most TOL_MARG and its entropy (or information) margin exceeds DELTA_FEAS, and
OPT_TOL is how far below a solved value a candidate law may fall and still be
taken for an optimum.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import indexing
from .probkit import (
    ConditionalKernel,
    Distribution,
    JointDistribution,
    entropy_of_mass,
    entropy_of_rows,
)
from .rng import generator

OPT_TOL = 1e-3
DELTA_FEAS = 1e-3
TOL_MARG = 1e-9

_INV_LN2 = 1.0 / np.log(2.0)
_MASS_FLOOR = 1e-300
# Ascent schedule: iterations per start, stalled iterations before giving
# up, the gain that counts as progress, and the first and smallest steps of
# each backtracking line search.
_MAX_ITERATIONS = 400
_PATIENCE = 20
_IMPROVEMENT_TOL = 1e-8
_INITIAL_STEP = 0.5
_MIN_STEP = 1e-12


@dataclass(frozen=True)
class NetworkModel:
    """C parallel noiseless links, an adversary budget Z, and the innocent law."""

    link_count: int
    adversary_budget: int
    link_alphabet_sizes: tuple
    innocent: JointDistribution
    # Only for the symmetrization negative test; achievability needs Z < C/2.
    allow_symmetrizable: bool = False

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.link_alphabet_sizes)
        object.__setattr__(self, "link_alphabet_sizes", sizes)
        if self.link_count < 1 or len(sizes) != self.link_count:
            raise ValueError("link_alphabet_sizes must list one size per link")
        if self.innocent.factor_sizes != sizes:
            raise ValueError("innocent distribution does not match link alphabets")
        if self.adversary_budget < 0:
            raise ValueError("adversary budget must be non-negative")
        if not self.allow_symmetrizable and not self.adversary_budget * 2 < self.link_count:
            raise ValueError(
                "adversary budget must satisfy Z < C/2 (set allow_symmetrizable to bypass)"
            )

    @property
    def product_alphabet_size(self) -> int:
        return int(np.prod(self.link_alphabet_sizes))

    def jam_family(self) -> tuple:
        """Every link subset of size at most Z, the empty set first."""
        return enumerate_jam_sets(self.link_count, self.adversary_budget)

    @functools.cached_property
    def unjammed_sets(self) -> tuple:
        """The complement of each jam set, in jam-family order."""
        return tuple(tuple(i for i in range(self.link_count) if i not in j)
                     for j in self.jam_family())

    def innocent_marginal(self, links) -> np.ndarray:
        """The innocent law on `links` (S @ innocent.mass), once per tuple; read-only."""
        links = tuple(links)
        if links not in self._innocent_marginals:
            s = indexing.restriction_matrix(self.link_alphabet_sizes, links)
            self._innocent_marginals[links] = mass = s @ self.innocent.mass
            mass.flags.writeable = False
        return self._innocent_marginals[links]

    @functools.cached_property
    def _innocent_marginals(self) -> dict:
        return {}

    @functools.cached_property
    def restrictions(self) -> tuple:
        """(S_J, S_Jc) restriction matrices of each jam set, in jam-family order."""
        sizes = self.link_alphabet_sizes
        pairs = []
        for j, jc in zip(self.jam_family(), self.unjammed_sets):
            s_j = indexing.restriction_matrix(sizes, j)
            s_jc = indexing.restriction_matrix(sizes, jc)
            s_j.flags.writeable = s_jc.flags.writeable = False
            pairs.append((s_j, s_jc))
        return tuple(pairs)


@functools.lru_cache(maxsize=None)
def enumerate_jam_sets(link_count: int, budget: int) -> tuple:
    """All subsets of {0..C-1} with |J| <= Z, ordered by size then lexicographically."""
    if budget < 0 or budget > link_count:
        raise ValueError("budget must lie in [0, link_count]")
    sets = []
    for k in range(budget + 1):
        sets.extend(itertools.combinations(range(link_count), k))
    return tuple(sets)


def cardinality_bound(alphabet_size_of_x: int, jam_family_size: int) -> int:
    """Auxiliary-alphabet size that suffices without losing objective value."""
    if alphabet_size_of_x < 1 or jam_family_size < 1:
        raise ValueError("inputs must be positive")
    return alphabet_size_of_x + 2 * jam_family_size - 1


@dataclass
class SolverConfig:
    """Multi-start settings: the number of starts and the seed of their draws."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


@dataclass
class JamSetReport:
    jam_set: tuple
    marginal_gap: float
    entropy_jammed: float
    entropy_unjammed: float


@dataclass
class FeasibilityReport:
    entries: list
    margin: float
    passed: bool


@dataclass
class SolutionB:
    feasible: bool
    p_x: Optional[JointDistribution] = None
    value: float = 0.0
    feasibility_margin: float = 0.0
    reason: str = ""
    info: dict = field(default_factory=dict)


@dataclass
class SolutionA:
    feasible: bool
    p_u: Optional[Distribution] = None
    kernel: Optional[ConditionalKernel] = None
    value: float = 0.0
    feasibility_margin: float = 0.0
    reason: str = ""
    info: dict = field(default_factory=dict)


@dataclass
class AchievableRate:
    bits: float
    feasible: bool
    clamped: bool = False
    reason: str = ""


def _gemv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for one vector or for each row of a stack, one gemv per row.

    A gemm over the stack would regroup the sums; one gemv per row gives each
    row the bytes of `a @ row`.
    """
    return np.matmul(a, v[..., None])[..., 0]


class _Polytope:
    """{p : M p = b, p >= 0} with exact affine projection and Dykstra rounding.

    Both projections are batch-first: they take one point or a stack of points,
    one per row, and a row's result is bit-identical to projecting it alone.
    """

    def __init__(self, m: np.ndarray, b: np.ndarray):
        self.m = m
        self.b = b
        self.pinv = np.linalg.pinv(m)

    def affine_project(self, v: np.ndarray) -> np.ndarray:
        return v - _gemv(self.pinv, _gemv(self.m, v) - self.b)

    def project(self, v: np.ndarray, iterations: int = 400, tol: float = 1e-13) -> np.ndarray:
        """Euclidean projection via Dykstra's alternating scheme.

        Each row leaves the loop once its own step falls below `tol`; the rest
        carry on, up to `iterations`.
        """
        x = np.array(v, dtype=float, ndmin=2)
        out = np.empty_like(x)
        rows = np.arange(x.shape[0])
        p_inc = np.zeros_like(x)
        q_inc = np.zeros_like(x)
        for _ in range(iterations):
            xp = x + p_inc
            y = self.affine_project(xp)
            p_inc = xp - y
            yq = y + q_inc
            x_new = np.maximum(yq, 0.0)
            q_inc = yq - x_new
            done = np.abs(x_new - x).max(axis=1) < tol
            x = x_new
            if done.any():
                out[rows[done]] = x[done]
                left = ~done
                rows, x, p_inc, q_inc = rows[left], x[left], p_inc[left], q_inc[left]
                if not rows.size:
                    break
        out[rows] = x
        return out if np.ndim(v) == 2 else out[0]


def marginal_system(model: NetworkModel):
    """Equality system pinning every size-<=Z marginal to the innocent one."""
    rows = [np.ones((1, model.product_alphabet_size))]
    rhs = [np.ones(1)]
    for j, (s_j, _) in zip(model.jam_family(), model.restrictions):
        if j:
            rows.append(s_j)
            rhs.append(model.innocent_marginal(j))
    return np.vstack(rows), np.concatenate(rhs)


def unjammed_matrices(model: NetworkModel):
    """Restriction matrices onto the complement of each jam set."""
    return [s_jc for _, s_jc in model.restrictions]


def jammed_entropies(model: NetworkModel) -> np.ndarray:
    """H(X_J) for each J; fixed by the marginal-matching constraints."""
    return np.array([entropy_of_mass(model.innocent_marginal(j)) if j else 0.0
                     for j in model.jam_family()])


def check_feasibility_b(
    p_x: JointDistribution,
    model: NetworkModel,
    tol_marg: float = TOL_MARG,
    delta_feas: float = DELTA_FEAS,
) -> FeasibilityReport:
    """Per-jam-set marginal gaps and entropies for a candidate distribution."""
    if p_x.factor_sizes != model.link_alphabet_sizes:
        raise ValueError("candidate distribution does not match the model alphabets")
    entries = []
    for j, (s_j, s_jc) in zip(model.jam_family(), model.restrictions):
        gap = 0.5 * float(np.abs(s_j @ p_x.mass - model.innocent_marginal(j)).sum())
        entries.append(JamSetReport(
            jam_set=j,
            marginal_gap=gap,
            entropy_jammed=entropy_of_mass(s_j @ p_x.mass),
            entropy_unjammed=entropy_of_mass(s_jc @ p_x.mass),
        ))
    margin = min(e.entropy_unjammed for e in entries) - max(e.entropy_jammed for e in entries)
    passed = all(e.marginal_gap <= tol_marg for e in entries) and margin > delta_feas
    return FeasibilityReport(entries=entries, margin=margin, passed=passed)


def _unjammed_entropies(p: np.ndarray, s_jc: list) -> np.ndarray:
    """H(X_Jc) of each row of p (one column per jam set); a row's minimum is its objective."""
    return np.stack([entropy_of_rows(_gemv(s, p)) for s in s_jc], axis=1)


def _entropy_supergradients(p: np.ndarray, h: np.ndarray, s_jc: list) -> np.ndarray:
    """Per row, average the gradients of all near-active minimum terms (valid supergradient).

    `h` holds the rows' unjammed entropies; each row sums its active terms in
    jam-set order.
    """
    active = h <= h.min(axis=1, keepdims=True) + 1e-9
    g = np.zeros_like(p)
    for s, rows in zip(s_jc, active.T):
        if rows.any():
            q = np.maximum(_gemv(s, p[rows]), _MASS_FLOOR)
            g[rows] += _gemv(s.T, -np.log2(q) - _INV_LN2)
    return g / active.sum(axis=1)[:, None]


def _line_search(x: np.ndarray, g: np.ndarray, f: np.ndarray, poly: _Polytope, s_jc: list):
    """Backtracking search from each row of x along its row of g.

    The steps halve from _INITIAL_STEP while above _MIN_STEP. The candidate
    steps of every row still searching are projected together, in chunks of 1,
    2, 4, ... steps, and each row takes its first step whose min unjammed
    entropy beats its value in `f`.

    Returns a mask of the rows that found a step, their points and unjammed
    entropies (the other rows' entries are undefined), and the number of
    candidates projected.
    """
    steps, step = [], _INITIAL_STEP
    while step > _MIN_STEP:
        steps.append(step)
        step *= 0.5
    steps = np.array(steps)
    count, dim = x.shape
    found = np.zeros(count, dtype=bool)
    new_x = np.empty_like(x)
    new_h = np.empty((count, len(s_jc)))
    rows = np.arange(count)
    lo, width, projected = 0, 1, 0
    while rows.size and lo < steps.size:
        chunk = steps[lo:lo + width]
        cands = poly.project(
            (x[rows, None, :] + chunk[None, :, None] * g[rows, None, :]).reshape(-1, dim))
        projected += len(cands)
        h = _unjammed_entropies(cands, s_jc)
        ok = (h.min(axis=1) > np.repeat(f[rows], chunk.size)).reshape(rows.size, chunk.size)
        hit = ok.any(axis=1)
        pick = np.flatnonzero(hit) * chunk.size + ok.argmax(axis=1)[hit]
        won = rows[hit]
        found[won] = True
        new_x[won] = cands[pick]
        new_h[won] = h[pick]
        rows = rows[~hit]
        lo += width
        width *= 2
    return found, new_x, new_h, projected


def _projected_ascent(starts: np.ndarray, s_jc: list, poly: _Polytope):
    """Maximize the min unjammed entropy over the polytope from every start at once.

    The starts are rows that ascend in lockstep: each round takes one
    supergradient step for every row still running, and a row retires after
    its own _PATIENCE stalled rounds, or _MAX_ITERATIONS rounds in all, as it
    would alone. Returns each row's point and value, the rounds run and the
    number of candidate points projected.
    """
    p = poly.project(starts)
    h = _unjammed_entropies(p, s_jc)
    stall = np.zeros(len(p), dtype=int)
    live = np.arange(len(p))
    rounds = projected = 0
    while live.size and rounds < _MAX_ITERATIONS:
        rounds += 1
        x = p[live]
        f = h[live].min(axis=1)
        g = _entropy_supergradients(x, h[live], s_jc)
        norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None]))[:, 0, 0]
        moving = norm > 0
        g[moving] /= norm[moving, None]
        found, x_new, h_new, n = _line_search(x, g, f, poly, s_jc)
        projected += n
        improvement = np.zeros(live.size)
        improvement[found] = h_new[found].min(axis=1) - f[found]
        p[live[found]] = x_new[found]
        h[live[found]] = h_new[found]
        stall[live] = np.where(improvement < _IMPROVEMENT_TOL, stall[live] + 1, 0)
        live = live[stall[live] < _PATIENCE]
    return p, h.min(axis=1), rounds, projected


def _polish_onto_affine(p: np.ndarray, poly: _Polytope) -> Optional[np.ndarray]:
    """Exact affine projection, then clamp float dust; None if truly infeasible."""
    q = poly.affine_project(p)
    if np.min(q) < -1e-9:
        q = poly.project(p, 2000, tol=1e-15)
        q = poly.affine_project(q)
        if np.min(q) < -1e-9:
            return None
    q = np.maximum(q, 0.0)
    q /= q.sum()
    return q


def solve_b(model: NetworkModel, cfg: Optional[SolverConfig] = None) -> SolutionB:
    """Max-min unjammed entropy over the marginal-matching polytope."""
    cfg = cfg or SolverConfig()
    m, b = marginal_system(model)
    poly = _Polytope(m, b)
    s_jc = unjammed_matrices(model)
    max_h_jammed = float(jammed_entropies(model).max())

    dim = model.product_alphabet_size
    rng = generator(cfg.seed, "solve-b-starts")
    starts = np.vstack([model.innocent.mass]
                       + [rng.dirichlet(np.ones(dim)) for _ in range(cfg.restarts - 1)])
    ps, fs, rounds, projected = _projected_ascent(starts, s_jc, poly)

    best_p, best_f = None, -np.inf
    for p, f in zip(ps, fs.tolist()):
        if f > best_f + 1e-12:
            best_p, best_f = p, f
        elif abs(f - best_f) <= 1e-12 and best_p is not None:
            # Deterministic tie-break: lexicographically smallest mass vector.
            if tuple(np.round(p, 12)) < tuple(np.round(best_p, 12)):
                best_p = p

    polished = _polish_onto_affine(best_p, poly)
    if polished is not None:
        f_pol = float(_unjammed_entropies(polished[None], s_jc).min())
        if f_pol >= best_f - 1e-9:
            best_p, best_f = polished, f_pol

    margin = best_f - max_h_jammed
    info = {"restarts": len(starts), "method": "projected-ascent", "seed": cfg.seed,
            "rounds": rounds, "projections": projected}
    if margin <= DELTA_FEAS:
        return SolutionB(feasible=False, value=best_f, feasibility_margin=margin,
                         reason="no point with entropy margin above delta_feas", info=info)
    report = check_feasibility_b(JointDistribution(model.link_alphabet_sizes, best_p), model)
    if not report.passed:
        return SolutionB(feasible=False, value=best_f, feasibility_margin=report.margin,
                         reason="solver output failed exact feasibility check", info=info)
    return SolutionB(
        feasible=True,
        p_x=JointDistribution(model.link_alphabet_sizes, best_p),
        value=best_f,
        feasibility_margin=margin,
        info=info,
    )


# ---------------------------------------------------------------------------
# Auxiliary-variable problem
# ---------------------------------------------------------------------------

def _mi_terms(q: np.ndarray, s_sub: np.ndarray) -> float:
    """I(U; X_sub) in bits from a joint (u_size, |X|) mass array."""
    qa = q @ s_sub.T
    pu = q.sum(axis=1)
    pa = qa.sum(axis=0)
    nz = qa > 0
    ratio = qa[nz] / (np.outer(pu, pa)[nz])
    return float(np.sum(qa[nz] * np.log2(np.maximum(ratio, _MASS_FLOOR))))


def solve_a(
    model: NetworkModel,
    u_size: Optional[int] = None,
    cfg: Optional[SolverConfig] = None,
) -> SolutionA:
    """Max-min I(U; unjammed links) over (p_u, W), certified feasible.

    I(U; X_Jc) <= H(X_Jc) for every kernel, so `solve_b`'s optimum bounds this
    one and its U = X embedding, zero-padded to u_size letters, attains it.
    That embedding is returned, after a check of its marginals. u_size
    defaults to the cardinality bound; below |X| it raises ValueError.
    """
    cfg = cfg or SolverConfig()
    dim_x = model.product_alphabet_size
    bound = cardinality_bound(dim_x, len(model.jam_family()))
    u_size = bound if u_size is None else u_size
    if u_size < dim_x:
        raise ValueError(f"u_size must be at least |X| = {dim_x}, got {u_size}")

    sol_b = solve_b(model, cfg)
    info = {"u_size": u_size, "cardinality_bound": bound, "method": "embedding",
            "seed": cfg.seed}
    if not sol_b.feasible:
        return SolutionA(feasible=False, reason=sol_b.reason, info=info)

    best_q = np.zeros((u_size, dim_x))
    best_q[np.arange(dim_x), np.arange(dim_x)] = sol_b.p_x.mass
    # The joint's X-marginal must lie in the entropy-bound polytope.
    m_marg, b_marg = marginal_system(model)
    gaps = np.abs(np.tile(m_marg, u_size) @ best_q.reshape(-1) - b_marg)
    if float(gaps.max()) > TOL_MARG:
        return SolutionA(feasible=False,
                         reason=f"marginal residual {gaps.max():.2e} above tol_marg",
                         info=info)
    s_j, s_jc = zip(*model.restrictions)
    value = min(_mi_terms(best_q, s) for s in s_jc)
    pu = best_q.sum(axis=1)
    # A padded letter has no mass; its kernel row is uniform.
    kern = np.where(pu[:, None] > 0, best_q / np.maximum(pu[:, None], _MASS_FLOOR), 1.0 / dim_x)
    return SolutionA(
        feasible=True,
        p_u=Distribution(u_size, pu),
        kernel=ConditionalKernel(u_size, dim_x, kern),
        value=value,
        feasibility_margin=value - max(_mi_terms(best_q, s) for s in s_j),
        info=info,
    )


def achievable_rate(sol: Union[SolutionA, SolutionB], eps: float) -> AchievableRate:
    """A solved bound (`solve_a` or `solve_b`) minus epsilon, clamped at zero."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not sol.feasible:
        return AchievableRate(bits=0.0, feasible=False, clamped=True, reason=sol.reason)
    rate = sol.value - eps
    if rate <= 0:
        return AchievableRate(bits=0.0, feasible=True, clamped=True,
                              reason="bound minus epsilon is non-positive")
    return AchievableRate(bits=rate, feasible=True)
