"""Command-line entry point.

Subcommands: solve (rate bounds), simulate (Monte Carlo sweeps), attack
(strategy registry), oracle (exact tiny-instance references), stealth-scan
(exact stealth gaps across blocklengths). Exit codes: 0 success, 1 validation
error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness, oracle
from .adversary import JamSet, get_strategy, list_strategies
from .codec import CodeParams, ResourceBudgetError
from .harness import (ConfigError, ExperimentConfig, config_blocklengths, config_field,
                      model_from_config, parse_config)
from .ratesolver import SolverConfig, achievable_rate, solve_a, solve_b

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _load_config(path: str):
    """The config at `path` and its model."""
    with open(path) as fh:
        obj = parse_config(fh.read())
    return obj, model_from_config(obj["model"])


def _seed(args) -> int:
    """--seed, or 0 when omitted (simulate alone keeps the config's master_seed)."""
    return 0 if args.seed is None else args.seed


def _emit(payload, out: str):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    obj, model = _load_config(args.config)
    cfg = SolverConfig(seed=_seed(args))
    scheme = obj["scheme"]
    if scheme == "overwrite-direct":
        sol = solve_b(model, cfg)
        payload = {"bound": "overwrite", "feasible": sol.feasible, "value": sol.value,
                   "feasibility_margin": sol.feasibility_margin, "reason": sol.reason,
                   "p_x": sol.p_x.mass.tolist() if sol.p_x is not None else None}
    else:
        sol = solve_a(model, cfg=cfg)
        payload = {"bound": "erasure", "feasible": sol.feasible, "value": sol.value,
                   "feasibility_margin": sol.feasibility_margin, "reason": sol.reason,
                   "p_u": sol.p_u.mass.tolist() if sol.p_u is not None else None,
                   "kernel": sol.kernel.matrix.tolist() if sol.kernel is not None else None}
    if "epsilon" in obj:
        rate = achievable_rate(sol, config_field(obj, "epsilon", float))
        payload["rate_bits"] = rate.bits
        payload["rate_feasible"] = rate.feasible
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    rows = harness.run_experiment(cfg)
    if args.out:
        harness.export(rows, args.format, args.out)
    else:
        for row in rows:
            print(row)
    return EXIT_OK


def _cmd_attack(args) -> int:
    if args.list:
        _emit(list_strategies(), args.out)
        return EXIT_OK
    print("use --list to enumerate registered strategies", file=sys.stderr)
    return EXIT_VALIDATION


def _codes_from_config(obj: dict, model, seed: int, ns):
    """The config's code at each blocklength in `ns`, built lazily from one solve.

    `seed` seeds the solver and, where the config names none, the code.
    """
    code = config_field(obj, "code", dict, {})
    rate = config_field(code, "code.rate_bits", float, 1.0)
    code_seed = config_field(code, "code.seed", int, seed)
    params = [CodeParams(n=n, rate=rate, seed=code_seed) for n in ns]
    scheme = obj["scheme"]
    sol = harness.solve_bound(model, scheme, SolverConfig(seed=seed))
    for p in params:
        yield harness.build_code(model, scheme, sol, p)


def _cmd_oracle(args) -> int:
    obj, model = _load_config(args.config)
    sub = args.oracle_op
    if sub == "grid-solve":
        sol = oracle.grid_solve_b(model, config_field(obj, "resolution", float, 1e-2))
        _emit({"feasible": sol.feasible, "value": sol.value,
               "feasibility_margin": sol.feasibility_margin,
               "info": sol.info}, args.out)
        return EXIT_OK
    j = JamSet(config_field(obj, "jam_set", tuple, ())).validate(model)
    n = config_field(config_field(obj, "code", dict, {}), "code.n", int, 4)
    code, = _codes_from_config(obj, model, _seed(args), [n])
    if sub == "stealth-gap":
        gap = oracle.exact_stealth_gap(code, model, j)
        _emit({"jam_set": list(j.links), "stealth_gap": gap,
               "n": code.params.n, "messages": code.message_count}, args.out)
    elif sub == "detector":
        alpha, beta, ab = oracle.exhaustive_best_detector(code, model, j)
        _emit({"jam_set": list(j.links), "alpha": alpha, "beta": beta,
               "alpha_plus_beta": ab}, args.out)
    elif sub == "error":
        # the config's scheme fixes the decoder, so the jamming must match it
        jamming = obj.get("jamming", "erasure")
        if (jamming == "erasure") != (obj["scheme"] == "erasure-layered"):
            raise ConfigError("erasure jamming uses the layered scheme" if jamming == "erasure"
                              else "overwrite strategies use the direct scheme")
        if jamming != "erasure":
            jamming = get_strategy(jamming)
        p = oracle.exact_error_probability(code, model, j, jamming)
        _emit({"jam_set": list(j.links), "p_err": p}, args.out)
    else:
        raise ConfigError(f"unknown oracle operation {sub!r}")
    return EXIT_OK


def _cmd_stealth_scan(args) -> int:
    obj, model = _load_config(args.config)
    ns = config_blocklengths(config_field(obj, "code", dict, {}), [2, 4])
    rows = []
    for code in _codes_from_config(obj, model, _seed(args), ns):
        for j in model.jam_family():
            if not j:
                continue
            gap = oracle.exact_stealth_gap(code, model, JamSet(j))
            rows.append({"n": code.params.n, "jam_set": list(j), "stealth_gap": gap})
    _emit(rows, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stealthpath")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulate: overrides the config's master_seed; "
                             "solve, oracle, stealth-scan: solver and code seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute achievable-rate bounds")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("attack", help="jamming strategy registry")
    p.add_argument("--list", action="store_true")
    p.add_argument("--out", default="")

    p = sub.add_parser("oracle", help="exact tiny-instance references")
    p.add_argument("oracle_op",
                   choices=("stealth-gap", "detector", "error", "grid-solve"))
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")

    p = sub.add_parser("stealth-scan", help="exact stealth gaps across blocklengths")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")
    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "attack": _cmd_attack,
    "oracle": _cmd_oracle,
    "stealth-scan": _cmd_stealth_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceBudgetError, OSError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
