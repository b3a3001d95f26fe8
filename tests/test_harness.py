import hashlib
import json

import pytest

from stealthpath.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    MetricsRow,
    export,
    model_from_config,
    rate_rule_resolve,
    rows_from_json,
    run_experiment,
)
from stealthpath.ratesolver import NetworkModel, SolverConfig, solve_b

FAST = SolverConfig(restarts=4)


def base_config(**overrides):
    obj = {
        "schema": 1,
        "model": {
            "link_count": 3,
            "adversary_budget": 1,
            "link_alphabet_sizes": [2, 2, 2],
            "innocent": {"factors": [[0.5, 0.5]] * 3},
        },
        "scheme": "overwrite-direct",
        "code": {"n": [8], "rate": {"rule": "absolute", "bits": 1.0}, "seed": 2},
        "adversary": {"jam_rule": "worst-over-family",
                      "strategies": ["passthrough"]},
        "detector": "none",
        "trials": 40,
        "master_seed": 9,
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_config_parse_and_validation():
    cfg = ExperimentConfig.from_json(base_config())
    assert cfg.scheme == "overwrite-direct"
    assert cfg.blocklengths == (8,)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(base_config(schema=2))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(base_config(trials=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(base_config(scheme="bogus"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(base_config(scheme="layered-under-overwrite"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(base_config(
            adversary={"jam_rule": "worst-over-family", "strategies": ["bogus"]}))


@pytest.mark.parametrize("adversary", [{"jam_rule": "fixed", "jam_set": [0]},
                                       {"jam_rule": "worst-over-family"}])
def test_symmetrize_on_a_jam_set_below_half_the_links_is_a_config_error(adversary):
    # C=3: a one-link jam set cannot carry a fake codeword's image
    with pytest.raises(ConfigError, match="C/2"):
        ExperimentConfig.from_json(base_config(
            adversary={**adversary, "strategies": ["symmetrize"]}))
    # the empty set calls no strategy
    ExperimentConfig.from_json(base_config(
        adversary={"jam_rule": "fixed", "jam_set": [], "strategies": ["symmetrize"]}))


def test_model_from_config_mass_form():
    model = model_from_config({
        "link_count": 2, "adversary_budget": 0,
        "link_alphabet_sizes": [2, 2],
        "innocent": {"mass": [0.25, 0.25, 0.25, 0.25]}})
    assert model.product_alphabet_size == 4


def test_rate_rule_resolve():
    model = model_from_config({
        "link_count": 3, "adversary_budget": 1,
        "link_alphabet_sizes": [2, 2, 2],
        "innocent": {"factors": [[0.5, 0.5]] * 3}})
    assert rate_rule_resolve({"rule": "absolute", "bits": 1.0}, model,
                             "overwrite-direct") == 1.0
    bits = rate_rule_resolve({"rule": "bound-minus-epsilon", "epsilon": 0.2},
                             model, "overwrite-direct", FAST)
    assert bits == pytest.approx(1.8, abs=5e-3)


def test_rate_rule_infeasible_model_gives_failure_row():
    cfg = ExperimentConfig.from_json(base_config(
        model={"link_count": 3, "adversary_budget": 1,
               "link_alphabet_sizes": [2, 2, 2],
               "innocent": {"factors": [[1.0, 0.0]] * 3}},
        code={"n": [4], "rate": {"rule": "bound-minus-epsilon", "epsilon": 0.2},
              "seed": 2}))
    rows = run_experiment(cfg, FAST)
    assert len(rows) == 1
    assert rows[0].note.startswith("failed:")
    assert "infeasible" in rows[0].note
    assert rows[0].ensemble == ""


def test_run_experiment_deterministic_csv(tmp_path):
    cfg = ExperimentConfig.from_json(base_config())
    paths = []
    for i in (0, 1):
        rows = run_experiment(cfg, FAST)
        p = tmp_path / f"out{i}.csv"
        export(rows, "csv", str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_rows_record_their_ensemble(tmp_path):
    small = ExperimentConfig.from_json(base_config())
    # 2^40.8 messages: over the i.i.d. message budget, so affine
    large = ExperimentConfig.from_json(base_config(
        code={"n": [24], "rate": {"rule": "absolute", "bits": 1.7}, "seed": 7},
        adversary={"jam_rule": "fixed", "jam_set": [0], "strategies": ["passthrough"]},
        trials=20))
    rows = run_experiment(small, FAST) + run_experiment(large, FAST)
    assert [row.ensemble for row in rows] == ["iid", "affine-gf2"]
    assert rows[1].note == "" and rows[1].stealth_gap < 1e-3
    export(rows, "csv", str(tmp_path / "rows.csv"))
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert lines[0].endswith(",ensemble,note")
    assert [line.split(",")[-2] for line in lines[1:]] == ["iid", "affine-gf2"]
    export(rows, "json", str(tmp_path / "rows.json"))
    back = rows_from_json((tmp_path / "rows.json").read_text())
    assert [row.ensemble for row in back] == ["iid", "affine-gf2"]


def test_run_experiment_low_rate_reliability():
    cfg = ExperimentConfig.from_json(base_config(
        code={"n": [16], "rate": {"rule": "absolute", "bits": 0.5}, "seed": 2}))
    row = run_experiment(cfg, FAST)[0]
    assert row.note == ""
    assert 0.0 <= row.err_innocent_hat <= 1.0
    assert 0.0 <= row.err_active_hat <= 1.0
    assert row.p_err_hat == pytest.approx(row.err_innocent_hat + row.err_active_hat)
    # passthrough on an innocent-matched codebook decodes reliably at low rate
    assert row.p_err_hat <= 0.1


def test_run_experiment_high_rate_stealth_and_detector():
    # rate above the jammed entropy: the active marginal blends into innocent
    cfg = ExperimentConfig.from_json(base_config(
        code={"n": [8], "rate": {"rule": "absolute", "bits": 1.5}, "seed": 2},
        adversary={"jam_rule": "fixed", "jam_set": [0],
                   "strategies": ["passthrough"]},
        detector="optimal-oracle", trials=200))
    row = run_experiment(cfg, FAST)[0]
    assert row.note == ""
    assert row.stealth_gap is not None and row.stealth_gap <= 0.2
    # even the optimal detector is near-blind on a small-gap code
    assert row.alpha_hat + row.beta_hat >= 1.0 - row.stealth_gap - 0.15


def test_worst_over_family_matches_fixed_runs():
    worst_cfg = ExperimentConfig.from_json(base_config())
    worst = run_experiment(worst_cfg, FAST)[0]
    per_j = []
    for j in ([], [0], [1], [2]):
        cfg = ExperimentConfig.from_json(base_config(
            adversary={"jam_rule": "fixed", "jam_set": j,
                       "strategies": ["passthrough"]}))
        per_j.append(run_experiment(cfg, FAST)[0].p_err_hat)
    assert worst.p_err_hat == pytest.approx(max(per_j))


def test_erasure_scheme_runs():
    cfg = ExperimentConfig.from_json(base_config(
        scheme="erasure-layered", gamma=0.6,
        code={"n": [16], "rate": {"rule": "absolute", "bits": 0.5}, "seed": 2},
        adversary={"jam_rule": "worst-over-family"}))
    rows = run_experiment(cfg, SolverConfig(restarts=2))
    assert rows[0].note == ""
    assert rows[0].scheme == "erasure-layered"
    assert rows[0].p_err_hat <= 2.0


def test_export_csv_header_and_empty(tmp_path):
    p = tmp_path / "empty.csv"
    export([], "csv", str(p))
    lines = p.read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS + ("note",))]


def test_export_json_round_trip(tmp_path):
    row = MetricsRow(scheme="overwrite-direct", n=8, rate_bits=1.0, gamma=0.1,
                     jam_rule="fixed", jam_set="0", strategy="passthrough",
                     trials=10, p_err_hat=0.1, p_err_ci=0.05, alpha_hat=0.2,
                     beta_hat=0.7, ab_ci=0.1, stealth_gap=0.25,
                     err_innocent_hat=0.04, err_active_hat=0.06, note="")
    p = tmp_path / "rows.json"
    export([row], "json", str(p))
    back = rows_from_json(p.read_text())
    assert back == [row]


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export([], "xml", str(tmp_path / "x"))


def test_ci_rule_of_three_at_extremes():
    from stealthpath.harness import _ci_halfwidth
    assert _ci_halfwidth(0.0, 100) == pytest.approx(0.03)
    assert _ci_halfwidth(1.0, 100) == pytest.approx(0.03)
    assert _ci_halfwidth(0.5, 100) == pytest.approx(1.96 * 0.05, abs=1e-12)


def two_by_two_config():
    """Two blocklengths by two strategies at a solved rate, with the oracle detector."""
    return ExperimentConfig.from_json(base_config(
        code={"n": [6, 8], "rate": {"rule": "bound-minus-epsilon", "epsilon": 0.5},
              "seed": 2},
        adversary={"jam_rule": "worst-over-family",
                   "strategies": ["spoof-codeword", "spoof-consistent"]},
        detector="optimal-oracle", trials=30))


def test_one_bound_solve_per_run(monkeypatch):
    from stealthpath import harness
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_b(*args, **kwargs)
    monkeypatch.setattr(harness, "solve_b", counting)
    rows = run_experiment(two_by_two_config(), FAST)
    assert len(rows) == 4 and all(row.note == "" for row in rows)
    assert len(calls) == 1


def test_each_trial_block_is_encoded_once_for_every_jam_set(monkeypatch):
    from stealthpath import harness
    encodes, jam_keys = [], []
    encode, derive_seed = harness.encode, harness.derive_seed

    def counting_encode(*args, **kwargs):
        encodes.append(args[2])
        return encode(*args, **kwargs)

    def recording_derive_seed(seed, label, *indices):
        if label == "jam":
            jam_keys.append(indices)  # (sweep, hypothesis, trial, *jammed links)
        return derive_seed(seed, label, *indices)
    monkeypatch.setattr(harness, "encode", counting_encode)
    monkeypatch.setattr(harness, "derive_seed", recording_derive_seed)
    trials = harness.TRIAL_BLOCK + 1
    cfg = ExperimentConfig.from_json(base_config(
        code={"n": [6, 8], "rate": {"rule": "absolute", "bits": 1.0}, "seed": 2},
        adversary={"jam_rule": "worst-over-family", "strategies": ["resample-innocent"]},
        trials=trials))
    rows = run_experiment(cfg, FAST)
    assert len(rows) == 2 and all(row.note == "" for row in rows)
    # sweep points x blocks x hypotheses, although the family has four jam sets
    assert encodes == [0, 1] * 2 * 2
    # one key per (sweep point, hypothesis, trial) of each of the three singletons
    assert len(jam_keys) == 2 * 2 * trials * 3
    assert all(len(key) == 4 for key in jam_keys)


def test_two_by_two_csv_bytes_are_pinned(tmp_path):
    # the bytes with every solve, code and marginal computed afresh per sweep
    # point; sharing them within a run must not move one
    path = tmp_path / "rows.csv"
    export(run_experiment(two_by_two_config(), FAST), "csv", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "ca8a0a7e9afff1c4aef385e6a256d1fea02a0d5f76c799f35b68c0f6c3517f2f"


def test_erasure_layered_csv_bytes_are_pinned(tmp_path):
    # the bytes with a sampler per module; the shared probkit one must not
    # move one. A biased innocent law gives the auxiliary codewords and the
    # innocent blocks non-uniform masses.
    cfg = ExperimentConfig.from_json(base_config(
        model={"link_count": 3, "adversary_budget": 1, "link_alphabet_sizes": [2, 2, 2],
               "innocent": {"factors": [[0.7, 0.3]] * 3}},
        scheme="erasure-layered", gamma=0.6,
        code={"n": [6, 8], "rate": {"rule": "absolute", "bits": 0.5}, "seed": 2},
        adversary={"jam_rule": "fixed", "jam_set": [0]},
        detector="optimal-oracle", trials=30))
    path = tmp_path / "rows.csv"
    export(run_experiment(cfg, SolverConfig(restarts=2)), "csv", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "4603cc05b33425ecdf8e66fdfd4e5910d4927d94ba4b14543cf9da3093c4592d"


@pytest.mark.parametrize("seed,digest", [
    (1, "247c63b5e607eb2ff390175d1e9fca578b207ee81563032a7e234c471a28c92f"),
    (3, "79798e6e417cd0a9b94cdd18492f22817f2f653c74dadaf3947131a2a61ba996"),
])
def test_erasure_layered_at_gamma_one_is_pinned(seed, digest, tmp_path):
    # uniform bits at n=7, the bound less 0.3 and gamma = 1.0, which no
    # decoder reads: about 3,800 codewords over the 2^14 words of two
    # unerased links, so codewords often agree with one another there
    cfg = ExperimentConfig.from_json(base_config(
        scheme="erasure-layered", gamma=1.0,
        code={"n": 7, "rate": {"rule": "bound-minus-epsilon", "epsilon": 0.3}, "seed": 7},
        adversary={"jam_rule": "worst-over-family"}, detector="optimal-oracle",
        trials=130, master_seed=seed))
    assert _csv_digest(run_experiment(cfg, SolverConfig(restarts=2)), tmp_path) == digest


@pytest.mark.parametrize("seed,digest", [
    (1, "d93eb4ed3e163e8907a93a0bd4a9bc28b01e508d742c0f8653122d1287b4e79f"),
    (3, "c8babeae0e621dd598a17b64b63166b41b7663959340ae0d384f24b504c01639"),
])
def test_overwrite_at_the_bound_less_three_tenths_is_pinned(seed, digest, tmp_path):
    # uniform bits at n=10, the bound less 0.3, two strategies over the jam
    # family with the oracle detector and the default solver: the list step
    # both decoders share must not move one verdict
    cfg = ExperimentConfig.from_json(base_config(
        gamma=0.1,
        code={"n": [10], "rate": {"rule": "bound-minus-epsilon", "epsilon": 0.3}, "seed": 7},
        adversary={"jam_rule": "worst-over-family",
                   "strategies": ["resample-innocent", "spoof-codeword"]},
        detector="optimal-oracle", trials=500, master_seed=seed))
    assert _csv_digest(run_experiment(cfg), tmp_path) == digest


def test_invalid_fixed_jam_set_gives_failure_row():
    cfg = ExperimentConfig.from_json(base_config(
        adversary={"jam_rule": "fixed", "jam_set": [5], "strategies": ["passthrough"]}))
    rows = run_experiment(cfg, FAST)
    assert len(rows) == 1
    assert rows[0].note == "failed: jam set references a nonexistent link"


def test_value_error_in_a_decoder_propagates(monkeypatch):
    from stealthpath import harness

    def broken(code, rx, model):
        raise ValueError("decoder bug")
    monkeypatch.setattr(harness, "decode_overwrite", broken)
    with pytest.raises(ValueError, match="decoder bug"):
        run_experiment(ExperimentConfig.from_json(base_config()), FAST)


def test_one_decode_call_per_block_and_jam_set(monkeypatch):
    # 257 trials are two blocks; C=3, Z=1 gives four jam sets; each call
    # decodes both hypotheses' words of its block
    from stealthpath import codec, harness
    sizes = []

    def counted(code, rx, model):
        sizes.append(len(rx.links))
        return codec.decode_overwrite(code, rx, model)
    monkeypatch.setattr(harness, "decode_overwrite", counted)
    run_experiment(ExperimentConfig.from_json(base_config(trials=257)), FAST)
    assert sizes == [512] * 4 + [2] * 4


# Monte Carlo rows pinned at the per-trial loop, before trials ran in blocks:
# batching must not move one byte. SHA-256 of the CSV of each config.
BIASED_C3 = {"link_count": 3, "adversary_budget": 1, "link_alphabet_sizes": [2, 2, 2],
             "innocent": {"factors": [[0.7, 0.3], [0.6, 0.4], [0.5, 0.5]]}}
TERNARY_C3 = {"link_count": 3, "adversary_budget": 1, "link_alphabet_sizes": [3, 2, 2],
              "innocent": {"factors": [[0.5, 0.3, 0.2], [0.5, 0.5], [0.6, 0.4]]}}
# budget 0 keeps solve_b feasible; allow_symmetrizable admits the jam set {0}
SYMMETRIZABLE_C2 = {"link_count": 2, "adversary_budget": 0, "link_alphabet_sizes": [2, 2],
                    "innocent": {"factors": [[0.5, 0.5]] * 2}, "allow_symmetrizable": True}
# trial counts 1, TRIAL_BLOCK and TRIAL_BLOCK + 1
EDGE_TRIALS = (1, 256, 257)


def _direct_config(model, strategies, n=8, bits=1.0, trials=40, **adversary):
    return base_config(
        model=model,
        code={"n": [n], "rate": {"rule": "absolute", "bits": bits}, "seed": 2},
        adversary={"jam_rule": "worst-over-family", **adversary, "strategies": strategies},
        detector="optimal-oracle", trials=trials)


GOLDEN_CONFIGS = {
    **{sid: _direct_config(BIASED_C3, [sid])
       for sid in ("passthrough", "uniform-random", "resample-innocent",
                   "spoof-codeword", "spoof-consistent")},
    "symmetrize-c2": _direct_config(SYMMETRIZABLE_C2, ["symmetrize"], n=6, bits=0.5,
                                    trials=60, jam_rule="fixed", jam_set=[0]),
    # 2^40.8 messages: the affine ensemble, whose spoof-codeword draws until typical
    "affine": _direct_config(
        {**BIASED_C3, "innocent": {"factors": [[0.5, 0.5]] * 3}},
        ["uniform-random", "resample-innocent", "spoof-codeword", "spoof-consistent"],
        n=24, bits=1.7, trials=20, jam_rule="fixed", jam_set=[0]),
    **{f"ternary-{t}": _direct_config(
        TERNARY_C3, ["uniform-random", "resample-innocent", "spoof-codeword"], n=6,
        trials=t) for t in EDGE_TRIALS},
}
GOLDEN_DIGESTS = {
    "passthrough": "251e3c868c7ce74456b4d696f5006bfbab8305ca3592128ee98a4d0a2a3c052a",
    "uniform-random": "e41e73edb46e179d4bc9ad4ba998e451204d7395361add8c6ef48a190aec1806",
    "resample-innocent": "dec72050e8947cda2ebb8156697afd5aff764c613d959cda9d7720bb8fdb100e",
    "spoof-codeword": "aa96135d602b6d145cf4929e91bca0c95f0f89ff70473b067394df296534f91b",
    "spoof-consistent": "f438fefcc7b96f8f2c49008895b24720f2dc07c421d07ee7d2ea40ca2838f1d0",
    "symmetrize-c2": "dd2c269a5defa9e09645cc7782d60f2254aa329890b35f9fcc09812822e17dc4",
    "affine": "b2e6b96f7538e8f4c945a34e0652d171bf5a037d3521675c74fc4cc74a9ea69a",
    "ternary-1": "5b21a39ac67e2f5f5ac64bd82cf382a01c35fbc7757644550f7f79a369f95521",
    "ternary-256": "c66f501ee162e1311e502e1a28589e91ebcda63e967b60d72ef9c0f89e6b3128",
    "ternary-257": "9c02332a5a13e0d01bf118316bc299157a6b1e96a836d66edbb15812c9a97b20",
}


def _csv_digest(rows, tmp_path) -> str:
    path = tmp_path / "rows.csv"
    export(rows, "csv", str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_monte_carlo_rows_are_pinned(name, tmp_path):
    rows = run_experiment(ExperimentConfig.from_json(GOLDEN_CONFIGS[name]), FAST)
    assert all(row.note == "" for row in rows)
    assert _csv_digest(rows, tmp_path) == GOLDEN_DIGESTS[name]


def test_edge_trials_straddle_a_block():
    from stealthpath.harness import TRIAL_BLOCK
    assert EDGE_TRIALS == (1, TRIAL_BLOCK, TRIAL_BLOCK + 1)
