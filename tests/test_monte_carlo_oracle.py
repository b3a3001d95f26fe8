"""The harness's Monte Carlo rows against the exact oracle, case by case.

Every overwrite strategy on an i.i.d. and an affine direct code, and the
erasure-layered scheme on solve_a's identity kernel, run through
`run_experiment` on a fixed jam set. Each row's error components and detector
frequencies are binomial frequencies over its trials, so each must lie within
a Bonferroni-corrected z bound of the exact probability that `oracle` gives
for the same code; the row's stealth gap is the oracle's exactly.
"""
import json
import math
from statistics import NormalDist

import pytest

from stealthpath import harness, oracle
from stealthpath.adversary import STRATEGY_IDS, JamSet, get_strategy
from stealthpath.codec import CodeParams, build_affine_code
from stealthpath.harness import ExperimentConfig, run_experiment
from stealthpath.ratesolver import SolverConfig

FAST = SolverConfig(restarts=4)
TRIALS = 2000
JAM = JamSet((0,))
GAMMA = 1.0
BITS = 1.0

BIASED_C3 = {"link_count": 3, "adversary_budget": 1, "link_alphabet_sizes": [2, 2, 2],
             "innocent": {"factors": [[0.7, 0.3], [0.6, 0.4], [0.5, 0.5]]}}
UNIFORM_C3 = {**BIASED_C3, "innocent": {"factors": [[0.5, 0.5]] * 3}}
# budget 0 keeps solve_b feasible; allow_symmetrizable admits the jam set {0}
BIASED_C2 = {"link_count": 2, "adversary_budget": 0, "link_alphabet_sizes": [2, 2],
             "innocent": {"factors": [[0.6, 0.4], [0.5, 0.5]]}, "allow_symmetrizable": True}
UNIFORM_C2 = {**BIASED_C2, "innocent": {"factors": [[0.5, 0.5]] * 2}}
# the affine codes are drawn for the uniform law, so they run on uniform models
MODELS = {("iid", False): BIASED_C3, ("iid", True): BIASED_C2,
          ("affine", False): UNIFORM_C3, ("affine", True): UNIFORM_C2}
# n=3 for the two strategies whose exact outcomes enumerate every innocent block
# times every replacement; n=4 (16 messages) for the rest
BLOCKLENGTH = {"uniform-random": 3, "resample-innocent": 3}

DIRECT_CASES = [(ensemble, sid) for ensemble in ("iid", "affine") for sid in STRATEGY_IDS]
LAYERED_CASES = ["identity"]
# four frequencies per row: innocent and active errors, alarms and misses
COMPARISONS = 4 * (len(DIRECT_CASES) + len(LAYERED_CASES))
FAMILY_ALPHA = 1e-3
Z_BOUND = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * COMPARISONS))


def _z(hat: float, p: float, trials: int) -> float:
    """|hat - p| in standard errors of a Binomial(trials, p) frequency, continuity-corrected.

    Where p is 0 or 1 the frequency must equal it.
    """
    miss = max(abs(hat - p) * trials - 0.5, 0.0)
    sd = math.sqrt(trials * p * (1.0 - p))
    return miss / sd if sd > 0 else (0.0 if miss == 0 else math.inf)


def _row_and_code(model: dict, scheme: str, strategy: str, n: int):
    """The one row of a fixed-jam-set run, and the code `run_experiment` built for it."""
    cfg = ExperimentConfig.from_json(json.dumps({
        "schema": 1, "model": model, "scheme": scheme, "gamma": GAMMA,
        "code": {"n": [n], "rate": {"rule": "absolute", "bits": BITS}, "seed": 3},
        "adversary": {"jam_rule": "fixed", "jam_set": list(JAM.links),
                      "strategies": [strategy] if strategy else []},
        "detector": "optimal-oracle", "trials": TRIALS, "master_seed": 11}))
    row, = run_experiment(cfg, FAST)
    assert row.note == ""
    sol = harness.solve_bound(cfg.model, scheme, FAST)
    return row, cfg.model, harness.build_code(cfg.model, scheme, sol, CodeParams(n, BITS, 3))


def _check(row, model, code, jamming):
    exact_errors = oracle.exact_error_components(code, model, JAM, jamming)
    alpha, beta, _ = oracle.exhaustive_best_detector(code, model, JAM)
    hats = (row.err_innocent_hat, row.err_active_hat, row.alpha_hat, row.beta_hat)
    zs = [_z(hat, p, TRIALS) for hat, p in zip(hats, (*exact_errors, alpha, beta))]
    assert max(zs) < Z_BOUND, (hats, exact_errors, (alpha, beta), zs)
    assert row.stealth_gap == oracle.exact_stealth_gap(code, model, JAM)


@pytest.mark.parametrize("ensemble,sid", DIRECT_CASES)
def test_direct_rows_agree_with_the_exact_oracle(ensemble, sid, monkeypatch):
    if ensemble == "affine":
        monkeypatch.setattr(harness, "build_code_for_bound",
                            lambda model, sol, params: build_affine_code(
                                model.link_alphabet_sizes, params))
    model = MODELS[ensemble, sid == "symmetrize"]
    row, model, code = _row_and_code(model, "overwrite-direct", sid, BLOCKLENGTH.get(sid, 4))
    assert code.ensemble == row.ensemble == ensemble.replace("affine", "affine-gf2")
    _check(row, model, code, get_strategy(sid))


@pytest.mark.parametrize("kernel", LAYERED_CASES)
def test_layered_rows_agree_with_the_exact_oracle(kernel):
    row, model, code = _row_and_code(BIASED_C3, "erasure-layered", "", 4)
    _check(row, model, code, "erasure")
