"""Timing wrappers around stealthpath's public functions, and their summary.

A `Tracer` replaces each traced function in every `stealthpath` module
namespace that binds it (the harness, for instance, binds `encode` and
`solve_b` at import), records one span per call, and puts the originals back
on `restore()`. Spans carry an id, the id of the enclosing traced call, the
run's id, and monotonic start and end times; they stay in memory until
`write()`. `probkit` and `indexing` get no spans: their sub-microsecond helpers
would be distorted by a wrapper, so their time counts toward the caller.

`summarize()` turns spans into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _model_key(model):
    return (model.link_count, model.adversary_budget, model.link_alphabet_sizes,
            model.allow_symmetrizable, model.innocent.mass)


def _solver_key(a):
    from stealthpath.ratesolver import SolverConfig
    cfg = a.get("cfg") or SolverConfig()
    return _digest(*_model_key(a["model"]), a.get("u_size"), cfg)


def _code_key(code):
    """Codewords are a function of the ensemble, its mass, the params and seed."""
    if hasattr(code, "p_x"):
        return _digest("direct", code.params, code.p_x.mass)
    return _digest("layered", code.params, code.p_u.mass, code.kernel.matrix)


def _built_code_key(a):
    if "p_x" in a:
        return _digest("direct", a["params"], a["p_x"].mass)
    return _digest("layered", a["params"], a["p_u"].mass, a["kernel"].matrix)


# span name -> [(module, function)], key of the call, work done by the call.
TARGETS = {
    "ratesolver.solve_b": ([("ratesolver", "solve_b")], _solver_key, None),
    "ratesolver.solve_a": ([("ratesolver", "solve_a")], _solver_key, None),
    "codec.build": ([("codec", "build_direct_code"), ("codec", "build_layered_code")],
                    _built_code_key,
                    lambda a, code: code.message_count * code.params.n),
    "codec.encode": ([("codec", "encode")], None, None),
    "codec.decode_overwrite": ([("codec", "decode_overwrite")], None, None),
    "codec.decode_erasure": ([("codec", "decode_erasure")], None, None),
    "codec.survey_restrictions": ([("codec", "survey_restrictions")], None,
                                  lambda a, _: a["code"].message_count),
    "adversary.overwrite_jam": ([("adversary", "overwrite_jam")], None, None),
    "adversary.erasure_jam": ([("adversary", "erasure_jam")], None, None),
    "adversary.optimal_detect": ([("adversary", "optimal_detect")], None, None),
    "oracle.exact_active_marginal": ([("oracle", "exact_active_marginal")],
                                     lambda a: _digest(_code_key(a["code"]), a["j"].links),
                                     None),
    "oracle.exact_innocent_marginal": ([("oracle", "exact_innocent_marginal")], None, None),
    "oracle.exact_stealth_gap": ([("oracle", "exact_stealth_gap")], None, None),
    "rng.derive_seed": ([("rng", "derive_seed")], None, None),
    "harness.run_experiment": ([("harness", "run_experiment")], None, None),
    "cli.main": ([("cli", "main")], None, None),
}
MODULES = ("rng", "probkit", "indexing", "ratesolver", "codec", "adversary", "oracle",
           "harness", "cli")


class Tracer:
    """Records a span per call of each traced function while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, name, fn, key, work):
        sig = inspect.signature(fn) if key or work else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            k = key(bound) if key else None
            stack.append(span_id)
            start = clock()
            result, w = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if work and result is not None:
                    w = work(bound, result)
                spans.append((span_id, parent, name, start, end, k, w))
        return traced

    def install(self) -> None:
        """Patch every stealthpath namespace that binds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for mod in MODULES:
            importlib.import_module(f"stealthpath.{mod}")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "stealthpath" or n.startswith("stealthpath.")]
        for name, (sources, key, work) in TARGETS.items():
            for mod, attr in sources:
                original = getattr(sys.modules[f"stealthpath.{mod}"], attr)
                wrapper = self._wrap(name, original, key, work)
                for ns in namespaces:
                    for binding, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, binding, wrapper)
                            self._patched.append((ns, binding, original))

    def restore(self) -> None:
        for ns, binding, original in reversed(self._patched):
            setattr(ns, binding, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, key, work in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": span_id, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "key": key, "work": work}) + "\n")


def read_spans(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def percentile(values: list, q: float):
    """Nearest-rank percentile, or None unless >= 10 samples lie beyond it."""
    n = len(values)
    if n * (1.0 - q) < 10:
        return None
    return sorted(values)[max(math.ceil(q * n) - 1, 0)]


def summarize(spans: list, metric_names) -> tuple:
    """Per-layer metric values, plus the sample count behind each percentile.

    A metric name is `<span>.<stat>`; a layer a workload never calls reads 0,
    and so does a percentile with too few samples (its count says which).
    """
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    values, samples = {}, {}
    for metric in metric_names:
        span, stat = metric.rsplit(".", 1)
        calls = by_name.get(span, [])
        self_s = sum(s["end_ns"] - s["start_ns"] - child_ns[s["id"]] for s in calls) / 1e9
        if stat == "calls":
            value = len(calls)
        elif stat == "self_s":
            value = self_s
        elif stat in ("p50_us", "p99_us"):
            durations = [(s["end_ns"] - s["start_ns"]) / 1e3 for s in calls]
            samples[metric] = len(durations)
            value = percentile(durations, 0.5 if stat == "p50_us" else 0.99) or 0.0
        elif stat.startswith("calls_per_"):
            keys = {s["key"] for s in calls}
            value = len(calls) / len(keys) if keys else 0.0
        elif stat.endswith("_per_s"):
            work = sum(s["work"] or 0 for s in calls)
            value = work / self_s if self_s > 0 else 0.0
        else:
            raise ValueError(f"no rule computes per-layer metric {metric!r}")
        values[metric] = value
    return values, samples
