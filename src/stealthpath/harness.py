"""Experiment orchestration: config ingestion, seeded Monte Carlo sweeps,
metric aggregation, and CSV/JSON export.

A run is fully determined by the config plus the master seed: every trial
derives its randomness as hash(master_seed, label, sweep, hypothesis, trial),
so re-running, reordering, or parallelizing cannot change any number. Trials
run in blocks of at most TRIAL_BLOCK: one encode call per block and
hypothesis, whose transmissions every jam set then detects and jams, with one
decoder call per (block, jam set) on both hypotheses' words that
`DecodeResult.decodes` scores; each call's per-trial streams are those of one
call per trial. Both schemes build a `DirectCode`; the scheme picks the
jamming and the decoder: `erasure_jam` and `decode_erasure` for
erasure-layered, `overwrite_jam` and `decode_overwrite` for overwrite-direct.
Both decoders list by exact agreement, so a config's `gamma` reaches the
rows and no decoder.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import oracle
from .adversary import (
    JamSet,
    STRATEGY_IDS,
    erasure_jam,
    get_strategy,
    optimal_detect,
    overwrite_jam,
)
from .codec import (
    CodeParams,
    DirectCode,
    ReceivedWord,
    ResourceBudgetError,
    build_code_for_bound,
    build_layered_code,
    decode_erasure,
    decode_overwrite,
    encode,
)
from .probkit import Distribution, JointDistribution
from .ratesolver import NetworkModel, SolverConfig, achievable_rate, solve_a, solve_b
from .rng import derive_seed

SCHEMES = ("erasure-layered", "overwrite-direct")
# Trials per block of the Monte Carlo loop.
TRIAL_BLOCK = 256
CSV_COLUMNS = ("scheme", "n", "rate_bits", "gamma", "jam_rule", "jam_set",
               "strategy", "trials", "p_err_hat", "p_err_ci", "alpha_hat",
               "beta_hat", "ab_ci", "stealth_gap", "ensemble")


class ConfigError(ValueError):
    """The experiment config is structurally invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: NetworkModel
    scheme: str
    blocklengths: tuple
    rate_rule: dict          # {"rule": "absolute", "bits": x} or
                             # {"rule": "bound-minus-epsilon", "epsilon": e}
    gamma: float             # a CSV column; no decoder reads it
    jam_rule: str            # "fixed" | "worst-over-family"
    jam_set: tuple           # used when jam_rule == "fixed"
    strategies: tuple        # overwrite strategy ids; ("",) for erasure
    detector: str            # "optimal-oracle" | "none"
    trials: int
    master_seed: int
    code_seed: int

    def __post_init__(self):
        _check_scheme(self.scheme)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.gamma > 0:
            raise ConfigError("gamma must be positive")
        if not self.blocklengths:
            raise ConfigError("at least one blocklength is required")
        if self.jam_rule not in ("fixed", "worst-over-family"):
            raise ConfigError(f"unknown jam rule {self.jam_rule!r}")
        rule = self.rate_rule.get("rule")
        if rule == "absolute":
            if not config_field(self.rate_rule, "code.rate.bits", float, 0) > 0:
                raise ConfigError("absolute rate rule needs positive bits")
        elif rule == "bound-minus-epsilon":
            if not config_field(self.rate_rule, "code.rate.epsilon", float, 0) > 0:
                raise ConfigError("bound-minus-epsilon rule needs positive epsilon")
        else:
            raise ConfigError(f"unknown rate rule {rule!r}")
        for sid in self.strategies:
            if sid and sid not in STRATEGY_IDS:
                raise ConfigError(f"unknown strategy id {sid!r}")
        sets = [self.jam_set] if self.jam_rule == "fixed" else self.model.jam_family()
        if "symmetrize" in self.strategies and \
                any(0 < 2 * len(j) < self.model.link_count for j in sets):
            raise ConfigError("symmetrize needs every nonempty jam set to hold >= C/2 links")
        if self.detector not in ("optimal-oracle", "none"):
            raise ConfigError(f"unknown detector {self.detector!r}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = parse_config(text)
        model = model_from_config(obj["model"])
        scheme = obj["scheme"]
        code = config_field(obj, "code", dict, {})
        adversary = config_field(obj, "adversary", dict, {})
        strategies = tuple(config_field(adversary, "adversary.strategies", list, [])) or \
            (("",) if scheme == "erasure-layered" else ("passthrough",))
        return cls(
            model=model,
            scheme=scheme,
            blocklengths=config_blocklengths(code, [8]),
            rate_rule=dict(config_field(code, "code.rate", dict,
                                        {"rule": "absolute", "bits": 1.0})),
            gamma=config_field(obj, "gamma", float, 0.1),
            jam_rule=adversary.get("jam_rule", "worst-over-family"),
            jam_set=config_field(adversary, "adversary.jam_set", tuple, ()),
            strategies=strategies,
            detector=obj.get("detector", "none"),
            trials=config_field(obj, "trials", int, 10_000),
            master_seed=config_field(obj, "master_seed", int, 0),
            code_seed=config_field(code, "code.seed", int, 0),
        )


_KINDS = {int: "one integer", float: "one number", tuple: "a list of integers",
          list: "a list", dict: "an object"}


def config_field(obj: dict, name: str, kind=int, default=None):
    """Field `name` (dotted from the config's root) of `obj`, read as `kind`.

    `kind` is int, float, tuple (of ints), list, dict or None (as it is); a
    list or tuple is never read from a string. A missing field takes
    `default`; with no default, or a value `kind` cannot take (a non-numeric
    string for a number included), it is a ConfigError naming the field.
    """
    where, _, key = name.rpartition(".")
    if not isinstance(obj, dict) or key not in obj:
        if default is None:
            raise ConfigError(f'{where or "config"} has no "{key}"')
        value = default
    else:
        value = obj[key]
    try:
        if kind in (list, tuple, dict) and \
                not isinstance(value, dict if kind is dict else (list, tuple)):
            raise TypeError
        if kind is tuple:
            return tuple(int(v) for v in value)
        return value if kind in (None, list, dict) else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f'"{name}" must be {_KINDS[kind]}, got {value!r}') from None


def config_blocklengths(code: dict, default: list) -> tuple:
    """The blocklengths of a config's `code` section: "n", one integer or a list."""
    one = isinstance(code.get("n", default), int)
    ns = config_field(code, "code.n", int if one else tuple, default)
    return (ns,) if one else ns


def parse_config(text: str) -> dict:
    """The JSON object of a schema-1 config, which must name its model.

    Its "scheme", "overwrite-direct" where it names none, must be in SCHEMES.
    """
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("schema") != 1:
        raise ConfigError('config must declare "schema": 1')
    config_field(obj, "model", dict)
    _check_scheme(obj.setdefault("scheme", "overwrite-direct"))
    return obj


def _check_scheme(scheme) -> None:
    if scheme not in SCHEMES:
        raise ConfigError(f'"scheme" must be one of {", ".join(SCHEMES)}, got {scheme!r}')


def model_from_config(obj: dict) -> NetworkModel:
    link_count = config_field(obj, "model.link_count")
    budget = config_field(obj, "model.adversary_budget")
    sizes = config_field(obj, "model.link_alphabet_sizes", tuple)
    inn = config_field(obj, "model.innocent", dict)
    if "factors" in inn:
        factors = config_field(inn, "model.innocent.factors", list)
        try:
            if not all(isinstance(f, list) for f in factors):
                raise TypeError
            masses = [np.array([float(p) for p in f]) for f in factors]
        except (TypeError, ValueError):
            raise ConfigError('"model.innocent.factors" must be a list of lists of numbers, '
                              f'got {factors!r}') from None
        innocent = JointDistribution.from_factors([Distribution(m.size, m) for m in masses])
    else:
        mass = config_field(inn, "model.innocent.mass", None)
        innocent = JointDistribution(sizes, np.array(mass, dtype=float))
    return NetworkModel(
        link_count=link_count,
        adversary_budget=budget,
        link_alphabet_sizes=sizes,
        innocent=innocent,
        allow_symmetrizable=bool(obj.get("allow_symmetrizable", False)),
    )


@dataclass
class MetricsRow:
    scheme: str
    n: int
    rate_bits: float
    gamma: float
    jam_rule: str
    jam_set: str
    strategy: str
    trials: int
    p_err_hat: float
    p_err_ci: float
    alpha_hat: float
    beta_hat: float
    ab_ci: float
    stealth_gap: Optional[float]
    err_innocent_hat: float = 0.0
    err_active_hat: float = 0.0
    note: str = ""
    # "iid" or "affine-gf2"; empty on a failure row, which built no code
    ensemble: str = "iid"


def _ci_halfwidth(p_hat: float, trials: int) -> float:
    """95% binomial half-width; rule-of-three at the degenerate frequencies."""
    if trials < 1 or math.isnan(p_hat):
        return float("nan")
    if p_hat <= 0.0 or p_hat >= 1.0:
        return 3.0 / trials
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / trials)


def solve_bound(model: NetworkModel, scheme: str, cfg: Optional[SolverConfig]):
    """The bound behind a scheme's rate and code: solve_b for the direct scheme."""
    if scheme == "overwrite-direct":
        sol = solve_b(model, cfg)
    else:
        sol = solve_a(model, cfg=cfg)
    if not sol.feasible:
        raise ConfigError(f"infeasible: {sol.reason}")
    return sol


def _rate(rule: dict, solved: Callable) -> float:
    """Bits per use of a rate rule; `solved()` gives the bound, if the rule needs it."""
    if rule["rule"] == "absolute":
        return float(rule["bits"])
    rate = achievable_rate(solved(), float(rule["epsilon"]))
    if rate.clamped:
        raise ConfigError(rate.reason)
    return rate.bits


def rate_rule_resolve(rule: dict, model: NetworkModel, scheme: str,
                      cfg: Optional[SolverConfig] = None) -> float:
    """Turn a rate rule into bits per use; may invoke the rate solvers."""
    return _rate(rule, lambda: solve_bound(model, scheme, cfg))


def _once(compute: Callable) -> Callable:
    """A call of `compute` made on first use; a failure that becomes a row recurs."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((compute(), None))
            except (ConfigError, ResourceBudgetError) as exc:
                memo.append((None, exc))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value
    return get


@dataclass(frozen=True)
class _Blocklength:
    """What the sweep points of one blocklength share."""

    rate: float
    code: DirectCode
    jam_sets: List[JamSet]
    stealth_gap: Optional[float]
    note: str


def build_code(model: NetworkModel, scheme: str, sol, params: CodeParams) -> DirectCode:
    """The scheme's code at its solved bound (`solve_bound`)."""
    if scheme == "overwrite-direct":
        return build_code_for_bound(model, sol, params)
    return build_layered_code(sol.p_u, sol.kernel, params, model.link_alphabet_sizes)


def _build(cfg: ExperimentConfig, n: int, solved: Callable) -> _Blocklength:
    rate = _rate(cfg.rate_rule, solved)
    try:
        params = CodeParams(n=n, rate=rate, seed=cfg.code_seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    code = build_code(cfg.model, cfg.scheme, solved(), params)
    jam_sets = _candidate_jam_sets(cfg)
    gap: Optional[float] = None
    note = ""
    try:
        gap = max(oracle.exact_stealth_gap(code, cfg.model, j)
                  for j in jam_sets if j.links) if \
            any(j.links for j in jam_sets) else 0.0
    except ResourceBudgetError:
        note = "stealth gap outside oracle budget"
    return _Blocklength(rate, code, jam_sets, gap, note)


def _candidate_jam_sets(cfg: ExperimentConfig) -> List[JamSet]:
    if cfg.jam_rule == "fixed":
        try:
            return [JamSet(cfg.jam_set).validate(cfg.model)]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return [JamSet(j) for j in cfg.model.jam_family()]


def run_experiment(cfg: ExperimentConfig,
                   solver_cfg: Optional[SolverConfig] = None) -> List[MetricsRow]:
    """One MetricsRow per (blocklength, strategy) sweep point.

    The bound is solved once per run and the code built once per blocklength;
    only the current blocklength's code and its caches are kept.
    """
    solved = _once(lambda: solve_bound(cfg.model, cfg.scheme, solver_cfg))
    rows: List[MetricsRow] = []
    built, built_n = None, None
    sweep_points = [(n, sid) for n in cfg.blocklengths for sid in cfg.strategies]
    for sweep, (n, strategy_id) in enumerate(sweep_points):
        if n != built_n:  # the previous code is freed before the lazy build runs
            built, built_n = _once(lambda n=n: _build(cfg, n, solved)), n
        try:
            rows.append(_run_sweep_point(cfg, sweep, built(), strategy_id))
        except (ConfigError, ResourceBudgetError) as exc:
            nan = float("nan")
            rows.append(MetricsRow(
                scheme=cfg.scheme, n=n, rate_bits=nan, gamma=cfg.gamma,
                jam_rule=cfg.jam_rule, jam_set="", strategy=strategy_id,
                trials=cfg.trials, p_err_hat=nan, p_err_ci=nan, alpha_hat=nan,
                beta_hat=nan, ab_ci=nan, stealth_gap=None,
                note=f"failed: {exc}", ensemble=""))
    return rows


def _detector(cfg: ExperimentConfig, code: DirectCode, j: JamSet) -> Optional[Callable]:
    """The oracle detector on j's links, or None without one (or outside its budget)."""
    if cfg.detector != "optimal-oracle" or not j.links:
        return None
    try:
        act_n = oracle.cached_active_marginal(code, j)
        inn_n = oracle.exact_innocent_marginal(cfg.model, j, code.params.n)
    except ResourceBudgetError:
        return None
    sizes = [cfg.model.link_alphabet_sizes[i] for i in j.links]
    return lambda x_j: optimal_detect(x_j, sizes, inn_n, act_n)


def _run_sweep_point(cfg: ExperimentConfig, sweep: int, built: _Blocklength,
                     strategy_id: str) -> MetricsRow:
    """One pass over the trials: each block is encoded once and read by every jam set."""
    model, code, jam_sets = cfg.model, built.code, built.jam_sets
    erasure = cfg.scheme == "erasure-layered"
    decode = decode_erasure if erasure else decode_overwrite
    strategy = get_strategy(strategy_id) if strategy_id else None
    detectors = [_detector(cfg, code, j) for j in jam_sets]
    # [jam set][hypothesis]: wrong decodes, and wrong verdicts (alarms, misses)
    err = [[0, 0] for _ in jam_sets]
    wrong_verdicts = [[0, 0] for _ in jam_sets]
    n_msg = code.message_count
    seed = cfg.master_seed
    for lo in range(0, cfg.trials, TRIAL_BLOCK):
        block = range(lo, min(lo + TRIAL_BLOCK, cfg.trials))
        m = np.array([derive_seed(seed, "message", sweep, t) % n_msg + 1 for t in block],
                     dtype=np.int64)
        # only an innocent block draws, so only it takes trial seeds
        txs = [encode(code, model, 0, 0 * m, [derive_seed(seed, "trial", sweep, 0, t)
                                              for t in block]),
               encode(code, model, 1, m, None)]
        sent = np.concatenate([0 * m, m]).tolist()
        for k, j in enumerate(jam_sets):
            received = []
            for hyp, tx in enumerate(txs):
                if detectors[k] is not None:
                    verdicts = detectors[k](tx.links[:, list(j.links)])
                    wrong_verdicts[k][hyp] += int(np.count_nonzero(verdicts != hyp))
                if erasure:
                    received.append(erasure_jam(tx, j))
                else:  # the empty set calls no strategy, so it needs no jam seeds
                    jam_seeds = [derive_seed(seed, "jam", sweep, hyp, t, *j.links)
                                 for t in block] if j.links else None
                    received.append(overwrite_jam(tx, j, strategy, jam_seeds, model, code))
            # both hypotheses' words in one decode call: innocent first, then active
            rx = ReceivedWord(np.concatenate([r.links for r in received]),
                              np.concatenate([r.erased for r in received]))
            wrong = [not r.decodes(mi) for r, mi in zip(decode(code, rx, model), sent)]
            err[k][0] += sum(wrong[:len(block)])
            err[k][1] += sum(wrong[len(block):])

    trials = cfg.trials
    p_err = [e0 / trials + e1 / trials for e0, e1 in err]
    w = p_err.index(max(p_err))  # first maximum in family order
    err0, err1 = err[w][0] / trials, err[w][1] / trials
    err_ci = math.sqrt(_ci_halfwidth(err0, trials) ** 2 + _ci_halfwidth(err1, trials) ** 2)
    alpha = beta = ab_ci = float("nan")
    if detectors[w] is not None:
        alpha, beta = wrong_verdicts[w][0] / trials, wrong_verdicts[w][1] / trials
        ab_ci = math.sqrt(_ci_halfwidth(alpha, trials) ** 2 +
                          _ci_halfwidth(beta, trials) ** 2)
    return MetricsRow(
        scheme=cfg.scheme,
        n=code.params.n,
        rate_bits=built.rate,
        gamma=cfg.gamma,
        jam_rule=cfg.jam_rule,
        jam_set="|".join(str(i) for i in jam_sets[w].links),
        strategy=strategy_id,
        trials=trials,
        p_err_hat=p_err[w],
        p_err_ci=err_ci,
        alpha_hat=alpha,
        beta_hat=beta,
        ab_ci=ab_ci,
        stealth_gap=built.stealth_gap,
        err_innocent_hat=err0,
        err_active_hat=err1,
        note=built.note,
        ensemble=code.ensemble,
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.12g" % value
    return str(value)


def export(rows: Sequence[MetricsRow], fmt: str, path: str) -> None:
    """Write rows as CSV (fixed column order plus a trailing note) or JSON."""
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS + ("note",))]
        for row in rows:
            cells = [_format_cell(getattr(row, col)) for col in CSV_COLUMNS]
            cells.append(row.note.replace(",", ";"))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = [dataclasses.asdict(row) for row in rows]
        text = json.dumps(payload, indent=2, allow_nan=True) + "\n"
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def rows_from_json(text: str) -> List[MetricsRow]:
    return [MetricsRow(**obj) for obj in json.loads(text)]
