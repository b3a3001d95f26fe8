import hashlib

import numpy as np
import pytest

from stealthpath.probkit import Distribution, JointDistribution, entropy
from stealthpath.ratesolver import (
    NetworkModel,
    SolutionB,
    SolverConfig,
    achievable_rate,
    cardinality_bound,
    check_feasibility_b,
    enumerate_jam_sets,
    marginal_system,
    solve_a,
    solve_b,
)
from stealthpath.ratesolver import _Polytope

H2_03 = 0.8812908992306927
FAST = SolverConfig(restarts=4)


def uniform_bits_model(c=3, z=1):
    inn = JointDistribution.from_factors([Distribution.uniform(2)] * c)
    return NetworkModel(c, z, (2,) * c, inn)


def bern_model(p, c=3, z=1):
    inn = JointDistribution.from_factors([Distribution.bernoulli(p)] * c)
    return NetworkModel(c, z, (2,) * c, inn)


def test_model_validation():
    inn = JointDistribution.from_factors([Distribution.uniform(2)] * 2)
    with pytest.raises(ValueError):
        NetworkModel(2, 1, (2, 2), inn)  # Z >= C/2
    NetworkModel(2, 1, (2, 2), inn, allow_symmetrizable=True)
    with pytest.raises(ValueError):
        NetworkModel(3, 1, (2, 2), inn)
    with pytest.raises(ValueError):
        NetworkModel(2, -1, (2, 2), inn, allow_symmetrizable=True)


def test_jam_family_includes_empty_set():
    fam = enumerate_jam_sets(3, 1)
    assert fam == ((), (0,), (1,), (2,))
    fam2 = enumerate_jam_sets(4, 2)
    assert len(fam2) == 1 + 4 + 6
    assert fam2[0] == ()


def test_model_jam_set_table():
    model = uniform_bits_model()
    assert model.unjammed_sets == ((0, 1, 2), (1, 2), (0, 2), (0, 1))
    s_j, s_jc = model.restrictions[1]
    assert s_j.shape == (2, 8) and s_jc.shape == (4, 8)
    assert not s_j.flags.writeable and not s_jc.flags.writeable


def test_cardinality_bound_values():
    assert cardinality_bound(2, 1) == 3
    assert cardinality_bound(8, 4) == 15
    with pytest.raises(ValueError):
        cardinality_bound(0, 1)


def test_feasibility_report_uniform_innocent():
    model = uniform_bits_model()
    report = check_feasibility_b(model.innocent, model)
    assert report.passed
    assert report.margin == pytest.approx(1.0, abs=1e-9)
    gaps = [e.marginal_gap for e in report.entries]
    assert max(gaps) < 1e-12


def test_feasibility_report_detects_mismatch():
    model = uniform_bits_model()
    skew = JointDistribution.from_factors(
        [Distribution.bernoulli(0.2)] + [Distribution.uniform(2)] * 2)
    report = check_feasibility_b(skew, model)
    assert not report.passed
    assert any(e.marginal_gap > 0.1 for e in report.entries)


def test_restarts_below_one_raise():
    for restarts in (0, -3):
        with pytest.raises(ValueError, match="restarts"):
            SolverConfig(restarts=restarts)


def test_solve_b_uniform_bits():
    sol = solve_b(uniform_bits_model(), FAST)
    assert sol.feasible
    assert 0 < sol.info["rounds"] <= 400 and sol.info["projections"] > 0
    assert sol.value == pytest.approx(2.0, abs=5e-3)
    assert sol.feasibility_margin > 0.9


def test_solve_b_biased_bits():
    sol = solve_b(bern_model(0.3), FAST)
    assert sol.feasible
    # two independent biased bits is the best any unjammed pair can do
    assert sol.value == pytest.approx(2 * H2_03, abs=0.01)


def test_solve_b_output_satisfies_constraints_exactly():
    sol = solve_b(bern_model(0.3), FAST)
    report = check_feasibility_b(sol.p_x, sol_model := bern_model(0.3))
    assert report.passed
    assert max(e.marginal_gap for e in report.entries) <= 1e-9


def test_solve_b_deterministic():
    a = solve_b(bern_model(0.4), FAST)
    b = solve_b(bern_model(0.4), FAST)
    np.testing.assert_array_equal(a.p_x.mass, b.p_x.mass)


def test_solve_b_infeasible_degenerate_innocent():
    # point-mass innocent: every unjammed entropy is 0, no positive margin
    inn = JointDistribution.from_factors([Distribution.point_mass(2, 0)] * 3)
    model = NetworkModel(3, 1, (2, 2, 2), inn)
    sol = solve_b(model, FAST)
    assert not sol.feasible
    assert sol.reason


def test_solve_a_uniform_matches_entropy_bound():
    sol = solve_a(uniform_bits_model(), cfg=SolverConfig(restarts=2))
    assert sol.feasible
    assert sol.info["method"] == "embedding"
    assert sol.value >= 2.0 - 1e-3
    assert sol.feasibility_margin > 0.5
    assert sol.p_u.alphabet_size == cardinality_bound(8, 4)


def test_solve_a_never_below_solve_b():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        model = bern_model(float(rng.uniform(0.25, 0.75)))
        sb = solve_b(model, FAST)
        sa = solve_a(model, cfg=SolverConfig(restarts=2))
        assert sa.feasible and sb.feasible
        assert sa.value >= sb.value - 1e-3


def test_solve_a_marginals_match_innocent():
    model = bern_model(0.35)
    sol = solve_a(model, cfg=SolverConfig(restarts=2))
    # induced X-distribution must reproduce every size-<=Z innocent marginal
    p_x = sol.p_u.mass @ sol.kernel.matrix
    joint = JointDistribution((2, 2, 2), p_x)
    report = check_feasibility_b(joint, model)
    assert max(e.marginal_gap for e in report.entries) <= 1e-8


def test_achievable_rate_rules():
    sol = solve_b(uniform_bits_model(), FAST)
    r = achievable_rate(sol, eps=0.2)
    assert r.feasible and not r.clamped
    assert r.bits == pytest.approx(1.8, abs=5e-3)
    clamped = achievable_rate(sol, eps=5.0)
    assert clamped.clamped and clamped.bits == 0.0
    infeasible = achievable_rate(SolutionB(feasible=False, reason="no margin"), eps=0.2)
    assert not infeasible.feasible and infeasible.reason == "no margin"
    with pytest.raises(ValueError):
        achievable_rate(sol, eps=-1.0)


def _model(factors, z=1):
    inn = JointDistribution.from_factors(factors)
    return NetworkModel(len(factors), z, tuple(f.alphabet_size for f in factors), inn)


_U, _B = Distribution.uniform(2), Distribution.bernoulli
GOLDEN_MODELS = {
    "uniform-bits": _model([_U] * 3),
    "bern-0.3": _model([_B(0.3)] * 3),
    "mixed-bias": _model([_B(0.2), _B(0.4), _U]),
    "ternary-first": _model([Distribution(3, [0.5, 0.3, 0.2]), _U, _B(0.3)]),
    "c4-z1": _model([_B(0.4)] * 4),
    "c5-z2": _model([_U] * 5, z=2),
}
# SHA-256 of p_x's bytes and repr(value) at seed 3. A change to the solver that
# moves any of these moves every i.i.d. codebook drawn from the solved law.
# One start and seven starts pin the lockstep ascent at a batch of one row and
# at an odd batch whose rows retire at different rounds.
GOLDEN_B = {
    ("uniform-bits", 1): "75b3c74bd9a625144bd85dc1d2ac646e4a95e5e6a49a2f52d89ff19f9caf05a9",
    ("uniform-bits", 4): "d73049e7dc3e4059b98a410614a6350f2b0f17c3e0e24b5207ac5a4782cddb63",
    ("uniform-bits", 7): "d73049e7dc3e4059b98a410614a6350f2b0f17c3e0e24b5207ac5a4782cddb63",
    ("uniform-bits", 32): "ed708662ed7a6260979079ec5d330c6f95b3ef34f5f045baad07f37b23412ad7",
    ("bern-0.3", 1): "eab5a5e6101f7a7236d7806c303bbc1587ab539dabed724b60b697980307fc14",
    ("bern-0.3", 4): "951cd06f10b892a0e3756abdf7e8f7ec7ac15add6b857f02b103ca8f37b2b306",
    ("bern-0.3", 7): "951cd06f10b892a0e3756abdf7e8f7ec7ac15add6b857f02b103ca8f37b2b306",
    ("bern-0.3", 32): "bd2f811ba9eb7b9007b2ef188d0a542705a9f455a45aff8a512f0b777955dec8",
    ("mixed-bias", 1): "646bcc444724ac46342d2e6ae2a14e6faf39cc2df427563da52b1c91e90aa889",
    ("mixed-bias", 4): "9f22e3011d4f7c166a9ad0d08e1e90734c2e9e7182b0f30c4e30aa2c94cc8086",
    ("mixed-bias", 7): "9f22e3011d4f7c166a9ad0d08e1e90734c2e9e7182b0f30c4e30aa2c94cc8086",
    ("mixed-bias", 32): "eb133d8f63c04ba5858addcbf989bc1da2e204f806add79963999d1bdaf7f5b2",
    ("ternary-first", 1): "455fb50b0c59468f65a61811f8ddb80899afb7e1c8e7b1c51ddf17182d8797b2",
    ("ternary-first", 4): "b37a401105482afb17df2a8f1d7aebf9d2c46fa0feef867dfdc9442959822a41",
    ("ternary-first", 7): "23dd89105d3c9a98afb08f9a02254a68196d645841b9d393798077026de3c87f",
    ("ternary-first", 32): "23dd89105d3c9a98afb08f9a02254a68196d645841b9d393798077026de3c87f",
    ("c4-z1", 1): "9965f66dd8fe70baeb0461ae5c8b11a2a0cc5c24bb4d508989eadb266b4d67c8",
    ("c4-z1", 4): "1feb1c54e51c12b381ce19fbd66a6fd8f2f8be2fe1f5400894131c72c737f024",
    ("c4-z1", 7): "2e60e87ddae42189e47eabfbb86d05f9aad23d239a0f3c2bf0ad9559e7e3a489",
    ("c4-z1", 32): "56efd84b782aefc064997c05a6bdcf57368fc8fed5cd1f446aba31232eb08c38",
    ("c5-z2", 1): "79951d68efa822461abb6d2feeae03aa65c53ff9b07b248231a8ffe7ad15c6ca",
    ("c5-z2", 4): "4486333ac512e0e967213cab0e6219f6f5f1fcea391e124ccd195d08adafd694",
    ("c5-z2", 7): "4486333ac512e0e967213cab0e6219f6f5f1fcea391e124ccd195d08adafd694",
    ("c5-z2", 32): "eb7500e9a6edefd3be479149628d1d0cb4f78eca583778ac87e2916dffad13a6",
}
# SHA-256 of p_u's and the kernel's bytes and repr(value), restarts=2, seed 3:
# the U = X embedding of solve_b's law at that setting.
GOLDEN_A = {
    "mixed-bias": "c2984626743b6171b8cb4598bea6c93c505466d7a9fbd6a5cea529fbf5a08756",
    "ternary-first": "0366d830ebf17c7fc8a0e79cbb2abc17a2f10c1696a5a0cc7aa25d6a1007b16b",
}


def _sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,restarts", sorted(GOLDEN_B))
def test_solve_b_bytes_are_pinned(name, restarts):
    sol = solve_b(GOLDEN_MODELS[name], SolverConfig(restarts=restarts, seed=3))
    assert _sha256(sol.p_x.mass, sol.value) == GOLDEN_B[name, restarts]


@pytest.mark.parametrize("name", sorted(GOLDEN_A))
def test_solve_a_bytes_are_pinned(name):
    sol = solve_a(GOLDEN_MODELS[name], cfg=SolverConfig(restarts=2, seed=3))
    assert _sha256(sol.p_u.mass, sol.kernel.matrix, sol.value) == GOLDEN_A[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_solve_a_is_the_embedding_of_solve_b(name):
    model, cfg = GOLDEN_MODELS[name], SolverConfig(restarts=2, seed=3)
    sol_b = solve_b(model, cfg)
    dim = model.product_alphabet_size
    # the default u_size (the cardinality bound) pads; u_size = |X| does not
    for u_size in (None, dim):
        sol_a = solve_a(model, u_size=u_size, cfg=cfg)
        assert sol_a.feasible and sol_a.info["method"] == "embedding"
        assert sol_a.p_u.alphabet_size == (u_size or sol_a.info["cardinality_bound"])
        assert sol_a.p_u.mass[:dim].tobytes() == sol_b.p_x.mass.tobytes()
        assert not sol_a.p_u.mass[dim:].any()
        np.testing.assert_array_equal(sol_a.kernel.matrix[:dim], np.eye(dim))
        assert abs(sol_a.value - sol_b.value) <= 1e-12


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_innocent_marginal_is_the_restricted_product(name):
    # the bytes of the S @ mass product the solver and the oracle computed
    # inline, kept once per tuple of links and read-only
    from stealthpath import indexing
    model = GOLDEN_MODELS[name]
    sets = [*model.jam_family(), tuple(range(model.link_count))]
    restrictions = [s_j for s_j, _ in model.restrictions] + [None]
    for links, s_j in zip(sets, restrictions):
        got = model.innocent_marginal(links)
        want = indexing.restriction_matrix(model.link_alphabet_sizes, links) @ \
            model.innocent.mass
        assert got.tobytes() == want.tobytes()
        if s_j is not None:
            assert got.tobytes() == (s_j @ model.innocent.mass).tobytes()
        assert model.innocent_marginal(list(links)) is got
        assert not got.flags.writeable


def test_solve_a_returns_solve_b_infeasibility():
    inn = JointDistribution.from_factors([Distribution.point_mass(2, 0)] * 3)
    model = NetworkModel(3, 1, (2, 2, 2), inn)
    sol = solve_a(model, cfg=FAST)
    assert not sol.feasible and sol.reason == solve_b(model, FAST).reason


def test_solve_a_refuses_u_smaller_than_x():
    for u_size in (4, 7):
        with pytest.raises(ValueError, match=r"\|X\| = 8"):
            solve_a(uniform_bits_model(), u_size=u_size, cfg=SolverConfig(restarts=1))


def test_batched_projection_matches_row_by_row():
    model = GOLDEN_MODELS["c4-z1"]
    poly = _Polytope(*marginal_system(model))
    rng = np.random.default_rng(5)
    dim = model.product_alphabet_size
    rows = np.vstack([model.innocent.mass,               # feasible: done at once
                      rng.dirichlet(np.ones(dim), size=5),
                      3.0 * rng.standard_normal((3, dim))])  # far outside
    for v in (rows, rows + 1.0):
        np.testing.assert_array_equal(poly.affine_project(v),
                                      [poly.affine_project(row) for row in v])
    # The default call, _polish_onto_affine's call, and a cap of 3 iterations.
    for iterations, tol in ((400, 1e-13), (2000, 1e-15), (3, 1e-13)):
        batch = poly.project(rows, iterations, tol)
        for i, row in enumerate(rows):
            alone = poly.project(row, iterations, tol)
            assert alone.shape == (dim,) and batch[i].tobytes() == alone.tobytes()
    # Rows converge at different iterations: at a cap of 3 some have converged
    # and some have reached the cap.
    converged = [np.array_equal(a, b) for a, b in zip(poly.project(rows, 3), poly.project(rows))]
    assert any(converged) and not all(converged)
