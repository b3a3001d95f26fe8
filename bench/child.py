"""One set-up or one run of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py setup <spec.json>
    python3 bench/child.py run <spec.json> <out_dir> [--trace <spans.jsonl>]

`run.py` starts this with `src/` on PYTHONPATH and the BLAS thread cap in the
environment, and times the whole process from the outside. `setup` does the
work before a workload's first trial; `run` does the whole workload and writes
its outputs into `out_dir`. With `--trace`, timing wrappers are installed
around stealthpath's public functions for the run and the spans are written to
the given file when it ends. The untraced `overwrite-mc` run does not come
here: it is `python -m stealthpath.cli simulate`, as a user would type it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys


def setup(s: dict) -> None:
    """Import, config parse, and the rate solve and code build of the first sweep point."""
    if s["kind"] == "cli":
        import stealthpath.cli  # noqa: F401  (the run goes through the CLI)
    from stealthpath import harness
    from stealthpath.codec import CodeParams, build_direct_code, build_layered_code
    from stealthpath.ratesolver import SolverConfig, solve_a, solve_b
    cfg = harness.ExperimentConfig.from_json(json.dumps(s["experiment"]))
    solver = SolverConfig(**s["solver"])
    rate = harness.rate_rule_resolve(cfg.rate_rule, cfg.model, cfg.scheme, solver)
    params = CodeParams(n=cfg.blocklengths[0], rate=rate, seed=cfg.code_seed)
    if cfg.scheme == "overwrite-direct":
        build_direct_code(solve_b(cfg.model, solver).p_x, params)
    else:
        sol = solve_a(cfg.model, cfg=solver)
        build_layered_code(sol.p_u, sol.kernel, params, cfg.model.link_alphabet_sizes)


def _survey(s: dict, cfg, rate: float, out_dir: str) -> None:
    """One streaming census pass over the experiment's codebook."""
    import numpy as np
    from stealthpath.codec import CodeParams, build_direct_code, survey_restrictions
    from stealthpath.ratesolver import SolverConfig, solve_b
    from stealthpath.rng import generator
    sv, n = s["survey"], cfg.blocklengths[0]
    code = build_direct_code(solve_b(cfg.model, SolverConfig(**s["solver"])).p_x,
                             CodeParams(n=n, rate=rate, seed=cfg.code_seed))
    j_space = int(np.prod([cfg.model.link_alphabet_sizes[i] for i in sv["jammed"]])) ** n
    targets = generator(cfg.master_seed, "bench-survey-targets").choice(
        j_space, size=sv["targets"], replace=False)
    survey = survey_restrictions(code, sv["jammed"], sv["good"], targets)
    with open(os.path.join(out_dir, "survey.csv"), "w") as fh:
        fh.write("messages,materialized,j_space,counted,targets,target_count_sum,matches\n")
        fh.write(f"{code.message_count},{int(code.materialized)},{survey.j_space},"
                 f"{int(survey.counts_j.sum())},{len(targets)},"
                 f"{int(survey.counts_j[targets].sum())},{survey.match_xj.size}\n")


def run(s: dict, out_dir: str) -> int:
    if s["kind"] == "cli":
        from stealthpath import cli
        return cli.main(["simulate", "--config", s["experiment_path"],
                         "--out", os.path.join(out_dir, "rows.csv"), "--format", "csv"])
    from stealthpath import harness
    from stealthpath.ratesolver import SolverConfig
    cfg = harness.ExperimentConfig.from_json(json.dumps(s["experiment"]))
    rows = harness.run_experiment(cfg, SolverConfig(**s["solver"]))
    harness.export(rows, "csv", os.path.join(out_dir, "rows.csv"))
    if "survey" in s:
        _survey(s, cfg, rows[0].rate_bits, out_dir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("spec")
    parser.add_argument("out_dir", nargs="?")
    parser.add_argument("--trace", default="")
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        s = json.load(fh)
    if args.mode == "setup":
        setup(s)
        return 0
    if not args.trace:
        return run(s, args.out_dir)
    from tracing import Tracer  # this file's directory is on sys.path
    tracer = Tracer(run_id=f"{s['workload']}-{s.get('seed')}-{os.getpid()}")
    tracer.install()
    try:
        return run(s, args.out_dir)
    finally:
        tracer.restore()
        tracer.write(args.trace)


if __name__ == "__main__":
    sys.exit(main())
