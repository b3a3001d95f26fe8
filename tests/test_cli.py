import json

import pytest

from stealthpath.cli import main


def write_config(tmp_path, obj):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(obj))
    return str(p)


def model_obj():
    return {"link_count": 3, "adversary_budget": 1,
            "link_alphabet_sizes": [2, 2, 2],
            "innocent": {"factors": [[0.5, 0.5]] * 3}}


def test_attack_list(capsys):
    assert main(["attack", "--list"]) == 0
    out = capsys.readouterr().out
    ids = [s["id"] for s in json.loads(out)]
    assert "passthrough" in ids and "symmetrize" in ids


def test_solve_command(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct", "epsilon": 0.5})
    assert main(["solve", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"]
    assert payload["value"] == pytest.approx(2.0, abs=5e-3)
    assert payload["rate_bits"] == pytest.approx(1.5, abs=5e-3)


def test_oracle_stealth_gap(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": 3, "rate_bits": 1.0, "seed": 4},
                                  "jam_set": [0]})
    assert main(["oracle", "stealth-gap", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["stealth_gap"] <= 1.0


def test_oracle_stealth_gap_of_the_empty_jam_set_at_n_64(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": 64, "rate_bits": 0.2}, "jam_set": []})
    assert main(["oracle", "stealth-gap", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 64 and payload["stealth_gap"] == 0.0


def test_oracle_detector_identity(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": 3, "rate_bits": 1.0, "seed": 4},
                                  "jam_set": [1]})
    assert main(["oracle", "detector", "--config", cfg]) == 0
    det = json.loads(capsys.readouterr().out)
    assert main(["oracle", "stealth-gap", "--config", cfg]) == 0
    gap = json.loads(capsys.readouterr().out)
    assert det["alpha_plus_beta"] == pytest.approx(1.0 - gap["stealth_gap"], abs=1e-12)


def test_simulate_writes_csv(tmp_path):
    cfg = write_config(tmp_path, {
        "schema": 1, "model": model_obj(), "scheme": "overwrite-direct",
        "code": {"n": [6], "rate": {"rule": "absolute", "bits": 1.0}, "seed": 2},
        "adversary": {"jam_rule": "fixed", "jam_set": [0],
                      "strategies": ["passthrough"]},
        "trials": 10, "master_seed": 3})
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scheme,n,rate_bits,gamma,jam_rule,jam_set")
    assert len(lines) == 2


def test_stealth_scan(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": [2, 3], "rate_bits": 1.0, "seed": 4}})
    assert main(["stealth-scan", "--config", cfg]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6  # two blocklengths x three singleton jam sets
    assert all(0.0 <= r["stealth_gap"] <= 1.0 for r in rows)


def test_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 1
    missing = str(tmp_path / "nope.json")
    assert main(["solve", "--config", missing]) == 1
    cfg = write_config(tmp_path, {"schema": 7, "model": model_obj()})
    assert main(["solve", "--config", cfg]) == 1
    capsys.readouterr()
    # a malformed config is an `error:` line naming the field, not a traceback
    no_model = write_config(tmp_path, {"schema": 1, "scheme": "overwrite-direct"})
    for command in ("solve", "simulate"):
        assert main([command, "--config", no_model]) == 1
        assert capsys.readouterr().err == 'error: config has no "model"\n'
    no_budget = {k: v for k, v in model_obj().items() if k != "adversary_budget"}
    cfg = write_config(tmp_path, {"schema": 1, "model": no_budget})
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err == 'error: model has no "adversary_budget"\n'
    two_ns = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                     "code": {"n": [3, 4], "rate_bits": 1.0}})
    assert main(["oracle", "stealth-gap", "--config", two_ns]) == 1
    assert capsys.readouterr().err.startswith('error: "code.n" must be one integer')
    # a list where one number belongs, and one number where a list belongs
    malformed = [
        ("oracle", {"code": {"n": 3, "rate_bits": [1, 2]}, "jam_set": [0]},
         'error: "code.rate_bits" must be one number, got [1, 2]\n'),
        ("solve", {"model": {**model_obj(), "link_alphabet_sizes": 2}},
         'error: "model.link_alphabet_sizes" must be a list of integers, got 2\n'),
        ("simulate", {"gamma": [0.1]}, 'error: "gamma" must be one number, got [0.1]\n'),
        # a gamma no decoder reads is still refused where it is not positive
        *[("simulate", {"scheme": scheme, "gamma": gamma}, "error: gamma must be positive\n")
          for scheme in ("erasure-layered", "overwrite-direct")
          for gamma in (0, -0.5, float("nan"))],
        # a section that is not an object, and a list that is not a list
        ("simulate", {"adversary": 5}, 'error: "adversary" must be an object, got 5\n'),
        ("simulate", {"code": 5}, 'error: "code" must be an object, got 5\n'),
        ("stealth-scan", {"code": 5}, 'error: "code" must be an object, got 5\n'),
        ("oracle", {"code": 5, "jam_set": [0]}, 'error: "code" must be an object, got 5\n'),
        ("simulate", {"code": {"rate": 5}}, 'error: "code.rate" must be an object, got 5\n'),
        ("simulate", {"adversary": {"strategies": 5}},
         'error: "adversary.strategies" must be a list, got 5\n'),
        ("simulate", {"adversary": {"strategies": "passthrough"}},
         'error: "adversary.strategies" must be a list, got \'passthrough\'\n'),
        ("simulate", {"model": {**model_obj(), "innocent": {"factors": 3}}},
         'error: "model.innocent.factors" must be a list, got 3\n'),
        ("simulate", {"model": {**model_obj(), "innocent": 5}},
         'error: "model.innocent" must be an object, got 5\n'),
        ("solve", {"model": {**model_obj(), "innocent": 5}},
         'error: "model.innocent" must be an object, got 5\n'),
        ("solve", {"model": 5}, 'error: "model" must be an object, got 5\n'),
        # an unknown scheme, a factor that is not a list of numbers, and a
        # string that no number field can read
        *[(command, {"scheme": "overwrite"}, 'error: "scheme" must be one of '
           "erasure-layered, overwrite-direct, got 'overwrite'\n")
          for command in ("solve", "oracle", "stealth-scan", "simulate")],
        ("simulate", {"model": {**model_obj(), "innocent": {"factors": [3, 3, 3]}}},
         'error: "model.innocent.factors" must be a list of lists of numbers, '
         'got [3, 3, 3]\n'),
        ("solve", {"model": {**model_obj(), "innocent": {"factors": [["x", 1]]}}},
         'error: "model.innocent.factors" must be a list of lists of numbers, '
         "got [['x', 1]]\n"),
        ("simulate", {"trials": "x"}, 'error: "trials" must be one integer, got \'x\'\n'),
        ("simulate", {"trials": float("inf")}, 'error: "trials" must be one integer, got inf\n'),
        ("simulate", {"code": {"rate": {"rule": "absolute", "bits": "x"}}},
         'error: "code.rate.bits" must be one number, got \'x\'\n'),
        # JSON's NaN reads as a float: a law of NaN masses is refused
        ("solve", {"model": {**model_obj(), "innocent": {
            "factors": [[float("nan")] * 2] + [[0.5, 0.5]] * 2}}},
         "error: probability mass must be finite, got [nan, nan]\n"),
    ]
    for command, fields, err in malformed:
        cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(), **fields})
        args = ["oracle", "stealth-gap"] if command == "oracle" else [command]
        assert main([*args, "--config", cfg]) == 1
        assert capsys.readouterr().err == err


def test_simulate_seed_zero_overrides_master_seed(tmp_path):
    def rows(master_seed, *flags):
        cfg = write_config(tmp_path, {
            "schema": 1, "model": model_obj(), "scheme": "overwrite-direct",
            "code": {"n": [6], "rate": {"rule": "absolute", "bits": 1.5}, "seed": 2},
            "adversary": {"jam_rule": "fixed", "jam_set": [0],
                          "strategies": ["uniform-random"]},
            "trials": 40, "master_seed": master_seed})
        out = tmp_path / "rows.json"
        assert main([*flags, "simulate", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        return json.loads(out.read_text())

    seed5, seed0 = rows(5), rows(0)
    assert seed5 != seed0  # the master seed moves the Monte Carlo estimates
    assert rows(5, "--seed", "0") == seed0
    assert rows(0, "--seed", "5") == seed5


def _count_solve_b(monkeypatch):
    """Record the seed of every solve_b call, wherever the CLI makes it."""
    from stealthpath import cli, harness
    from stealthpath.ratesolver import solve_b
    seeds = []

    def counting(model, cfg=None):
        seeds.append(cfg.seed if cfg is not None else 0)
        return solve_b(model, cfg)
    for module in (cli, harness):
        monkeypatch.setattr(module, "solve_b", counting)
    return seeds


def test_stealth_scan_solves_once_with_the_seed(tmp_path, capsys, monkeypatch):
    seeds = _count_solve_b(monkeypatch)
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": [2, 3], "rate_bits": 1.0, "seed": 4}})
    assert main(["--seed", "5", "stealth-scan", "--config", cfg]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 6
    assert seeds == [5]


def test_oracle_solves_with_the_seed(tmp_path, capsys, monkeypatch):
    seeds = _count_solve_b(monkeypatch)
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": 3, "rate_bits": 1.0, "seed": 4},
                                  "jam_set": [0]})
    assert main(["--seed", "3", "oracle", "stealth-gap", "--config", cfg]) == 0
    assert main(["oracle", "stealth-gap", "--config", cfg]) == 0
    assert seeds == [3, 0]


@pytest.mark.parametrize("scheme,solver", [("overwrite-direct", "solve_b"),
                                           ("erasure-layered", "solve_a")])
def test_solve_command_solves_once(scheme, solver, tmp_path, monkeypatch, capsys):
    from stealthpath import cli, ratesolver
    real, calls = getattr(ratesolver, solver), []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    # both bindings: a rate taken from the model would solve in ratesolver again
    monkeypatch.setattr(ratesolver, solver, spy)
    monkeypatch.setattr(cli, solver, spy)
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": scheme, "epsilon": 0.5})
    assert main(["solve", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rate_bits"] == pytest.approx(1.5, abs=1e-9) and payload["rate_feasible"]
    assert len(calls) == 1


@pytest.mark.parametrize("op", ["stealth-gap", "detector"])
@pytest.mark.parametrize("jam_set", [[5], [0, 1]])
def test_oracle_rejects_a_jam_set_outside_the_family(op, jam_set, tmp_path, capsys):
    # link 5 does not exist on three links; {0, 1} exceeds the budget Z = 1
    cfg = write_config(tmp_path, {"schema": 1, "model": model_obj(),
                                  "scheme": "overwrite-direct",
                                  "code": {"n": 3, "rate_bits": 1.0, "seed": 4},
                                  "jam_set": jam_set})
    assert main(["oracle", op, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: jam set")


@pytest.mark.parametrize("scheme,jamming,message", [
    ("overwrite-direct", None, "erasure jamming uses the layered scheme"),
    ("erasure-layered", "passthrough", "overwrite strategies use the direct scheme"),
])
def test_oracle_error_refuses_a_jamming_of_the_other_scheme(scheme, jamming, message,
                                                             tmp_path, capsys):
    # the scheme fixes the decoder; erasure jamming (the default) needs the
    # layered scheme, an overwrite strategy the direct one
    obj = {"schema": 1, "model": model_obj(), "scheme": scheme,
           "code": {"n": 3, "rate_bits": 1.0, "seed": 4}, "jam_set": [0]}
    if jamming:
        obj["jamming"] = jamming
    assert main(["oracle", "error", "--config", write_config(tmp_path, obj)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("scheme,jamming", [("erasure-layered", None),
                                            ("overwrite-direct", "passthrough")])
def test_oracle_error_runs_a_jamming_of_the_scheme(scheme, jamming, tmp_path, capsys):
    obj = {"schema": 1, "model": model_obj(), "scheme": scheme,
           "code": {"n": 3, "rate_bits": 1.0, "seed": 4}, "jam_set": [0]}
    if jamming:
        obj["jamming"] = jamming
    assert main(["oracle", "error", "--config", write_config(tmp_path, obj)]) == 0
    assert 0.0 <= json.loads(capsys.readouterr().out)["p_err"] <= 2.0
