#!/usr/bin/env python3
"""stealthpath benchmark: end-to-end and per-layer timings of three workloads.

Run from the root of a checkout (nothing needs installing; `src/` is put on
the children's PYTHONPATH):

    python3 bench/run.py --workload overwrite-mc --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each set-up and each run is a fresh interpreter, one process at a time, with
the BLAS thread cap in its environment. `--trace 0` interleaves set-ups and
untraced runs for `--seconds` and reports the end-to-end metrics as medians;
`--trace 1` adds one traced run and reports the per-layer metrics from its
spans. Every run's outputs are checked against `bench/reference.json`. The
last line of output is one JSON object; the exit code is 1 if any check failed.
`--record-reference` rewrites the reference of the chosen workloads from runs
at the reference seed.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
BLAS_THREADS = 1          # small arrays and Python loops: one thread is steadier
HARD_LIMIT_S = 170.0      # the whole invocation must end within 180 s
CI_MULTIPLE = 2.5         # x the combined 95% half-width: ~4.9 sigma per estimate
RATE_TOL = 1e-6
GAP_TOL = 1e-6
SETUP_SHARE = 0.25        # set-up time per unit of run time in an untraced window


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    log: Path


@dataclass
class Check:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH"))
                                        if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list, root: Path, log: Path, deadline: float) -> Child:
    """Run one child to completion; its own peak RSS comes from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, log)


class Workload:
    """One workload's inputs on disk and the commands that set it up and run it."""

    def __init__(self, name: str, seed: int, root: Path, work: Path, smoke: bool = False):
        self.root, self.work = root, work
        work.mkdir(parents=True, exist_ok=True)
        self.spec = workloads.spec(name, seed, smoke)
        self.spec["seed"] = seed
        if "experiment" in self.spec:
            self.spec["experiment_path"] = str(work / "experiment.json")
            (work / "experiment.json").write_text(json.dumps(self.spec["experiment"], indent=1))
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec, indent=1))
        self._count = 0

    def _child(self, *args) -> list:
        return [sys.executable, str(BENCH_DIR / "child.py"), *args]

    def _next(self, kind: str) -> Path:
        self._count += 1
        return self.work / f"{self._count:03d}-{kind}"

    def setup(self, deadline: float) -> Child:
        return spawn(self._child("setup", str(self.spec_path)), self.root,
                     self._next("setup").with_suffix(".log"), deadline)

    def run(self, deadline: float, spans: Optional[Path] = None):
        """One complete run; returns the child and its output directory."""
        out = self._next("traced" if spans else "run")
        out.mkdir()
        if spans:
            argv = self._child("run", str(self.spec_path), str(out), "--trace", str(spans))
        elif self.spec["kind"] == "cli":
            argv = [sys.executable, "-m", "stealthpath.cli", "simulate", "--config",
                    self.spec["experiment_path"], "--out", str(out / "rows.csv"),
                    "--format", "csv"]
        else:
            argv = self._child("run", str(self.spec_path), str(out))
        return spawn(argv, self.root, out.with_suffix(".log"), deadline), out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _float(cell: str):
    return None if cell == "" else float(cell)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within_ci(got: dict, ref: dict, column: str, ci_column: str) -> bool:
    x, x_ref = _float(got[column]), _float(ref[column])
    if math.isnan(x) or math.isnan(x_ref):
        return math.isnan(x) and math.isnan(x_ref)
    ci = math.hypot(_float(got[ci_column]), _float(ref[ci_column]))
    return abs(x - x_ref) <= CI_MULTIPLE * ci


def _check_rows(check: Check, rows: list, ref_rows: Optional[list]) -> None:
    for i, row in enumerate(rows):
        if row["note"].startswith("failed:"):
            check.fail(f"row {i}: {row['note']}")
            continue
        if ref_rows is None:
            continue
        ref = ref_rows[i]
        bad = [c for c in ("scheme", "n", "gamma", "jam_rule", "strategy", "trials")
               if row[c] != ref[c]]
        if abs(float(row["rate_bits"]) - float(ref["rate_bits"])) > RATE_TOL:
            bad.append("rate_bits")
        gap, gap_ref = _float(row["stealth_gap"]), _float(ref["stealth_gap"])
        if (gap is None) != (gap_ref is None) or (gap is not None and
                                                  abs(gap - gap_ref) > GAP_TOL):
            bad.append("stealth_gap")
        # alpha and beta belong to the worst jam set, which can differ between seeds
        # when error rates tie; they are compared only on the reference's jam set.
        compared = (("p_err_hat", "p_err_ci"),) + (
            (("alpha_hat", "ab_ci"), ("beta_hat", "ab_ci"))
            if row["jam_set"] == ref["jam_set"] else ())
        bad += [c for c, ci in compared if not _within_ci(row, ref, c, ci)]
        if bad:
            check.fail(f"row {i}: {', '.join(bad)} outside the reference")


def _check_survey(check: Check, survey: dict, ref: Optional[dict]) -> None:
    # Uniform codewords: the targets' census total is Poisson-like around its mean.
    mean = int(survey["targets"]) * int(survey["messages"]) / int(survey["j_space"])
    ok = (survey["messages"] == survey["counted"]
          and survey["matches"] == survey["target_count_sum"]
          and abs(int(survey["target_count_sum"]) - mean) <= 5 * math.sqrt(mean)
          and (ref is None or (survey["messages"], survey["materialized"]) ==
               (ref["messages"], ref["materialized"])))
    if not ok:
        check.fail(f"survey: {survey}")


def check_run(wl: Workload, child: Child, out: Path, reference: Optional[dict]) -> Check:
    """Count failed operations in one run's outputs; `reference` None skips value checks."""
    check = Check(attempted=workloads.operations(wl.spec))
    check.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())}
    expected = ["rows.csv"] + (["survey.csv"] if "survey" in wl.spec else [])
    if child.returncode != 0 or any(name not in check.digests for name in expected):
        tail = child.log.read_text(errors="replace")[-2000:]
        check.failed = check.attempted
        check.problems.append(f"child exited {child.returncode}: {tail}")
        return check
    rows = _read_csv(out / "rows.csv")
    ref_rows = reference and reference["rows"]
    if len(rows) != check.attempted - ("survey" in wl.spec):
        check.fail(f"{len(rows)} CSV rows")
    else:
        _check_rows(check, rows, ref_rows)
    if "survey" in wl.spec:
        _check_survey(check, _read_csv(out / "survey.csv")[0],
                      reference and reference["survey"])
    return check


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def metadata(seed: int, root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS, "seed": seed}


def load_benchmark(root: Path) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def next_kind(walls: dict, remaining: float) -> Optional[str]:
    """The next untraced child: "setup", "run", or None when neither fits.

    A set-up is due after each run while set-ups have taken at most SETUP_SHARE
    of the time runs have, so most of the window goes to runs; whichever kind
    is not due is started if the due one no longer fits. A kind fits if its
    slowest time so far does.
    """
    if not walls["setup"]:
        return "setup"
    due_setup = (len(walls["setup"]) <= len(walls["run"])
                 and sum(walls["setup"]) <= SETUP_SHARE * sum(walls["run"]))
    for kind in (("setup", "run") if due_setup else ("run", "setup")):
        if not walls[kind] or max(walls[kind]) <= remaining:
            return kind
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            bench: dict, reference: Optional[dict], hard_deadline: float) -> dict:
    """Set up and run one workload for `seconds`; return metrics and checks."""
    work = root / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl = Workload(name, seed, root, work)
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    ref = reference["workloads"].get(name) if reference else None
    # Warm the bytecode and file caches so the first timed child is not special.
    warm = spawn([sys.executable, "-c", "import stealthpath.cli"], root, work / "warm.log",
                 hard_deadline)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import stealthpath: {warm.log.read_text()[-2000:]}")

    walls = {"setup": [], "run": [], "traced": []}
    cpus = {"setup": [], "run": [], "traced": []}
    rss, checks, run_digests = [], [], []
    spans_path = results_dir / f"{name}-seed{seed}-spans.jsonl"
    spans_path.unlink(missing_ok=True)
    start = time.monotonic()
    i = 0
    while True:
        if trace:  # run, traced, run, run, ...
            kind = "traced" if i == 1 else "run"
            if walls[kind] and time.monotonic() - start + max(walls[kind]) > seconds:
                break
        else:
            kind = next_kind(walls, seconds - (time.monotonic() - start))
            if kind is None:
                break
        if time.monotonic() > hard_deadline:
            break
        if kind == "setup":
            child = wl.setup(hard_deadline)
            if child.returncode != 0:
                check = Check(attempted=1)
                check.fail(f"set-up exited {child.returncode}: "
                           f"{child.log.read_text(errors='replace')[-2000:]}")
                checks.append(check)
        else:
            child, out = wl.run(hard_deadline, spans_path if kind == "traced" else None)
            check = check_run(wl, child, out, ref)
            checks.append(check)
            if kind == "run":
                rss.append(child.rss_mb)
                run_digests.append(check.digests)
            elif run_digests and check.digests != run_digests[0]:
                check.fail("traced outputs differ from the untraced run's")
        walls[kind].append(child.wall_s)
        cpus[kind].append(child.cpu_s)
        i += 1

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    sha = None
    if ref is not None and seed == reference["seed"] and run_digests:
        sha = all(d == ref["sha256"] for d in run_digests)

    if not walls["run"] or (trace and not walls["traced"]):
        raise RuntimeError(f"{name}: out of time before a complete run")
    run_s = statistics.median(walls["run"])
    samples = {}
    if trace:
        names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_s"]
        values, samples = tracing.summarize(tracing.read_spans(spans_path), names) \
            if spans_path.exists() else ({n: 0.0 for n in names}, {})
        values["trace.overhead_s"] = walls["traced"][0] - run_s
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {"run_s": run_s, "setup_s": statistics.median(walls["setup"]),
                  "trials_per_s": workloads.transmissions(wl.spec) / run_s,
                  "peak_rss_mb": statistics.median(rss)}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}

    result = {"workload": name, "trace": int(trace), "meta": metadata(seed, root),
              "metrics": metrics, "percentile_samples": samples, "walls_s": walls, "cpu_s": cpus,
              "peak_rss_mb": rss, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted if attempted else 1.0,
              "csv_sha256_matches_reference": sha,
              "problems": [p for c in checks for p in c.problems]}
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return result


def report(result: dict) -> None:
    w = result["walls_s"]
    print(f"{result['workload']}: seed {result['meta']['seed']}, "
          f"{len(w['setup'])} set-ups, {len(w['run'])} runs, {len(w['traced'])} traced")
    for name, m in result["metrics"].items():
        n = result["percentile_samples"].get(name)
        note = "" if n is None else f"  (n={n})" if m["value"] else f"  (n/a, n={n})"
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':42s} {result['failed_frac']:14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    sha = result["csv_sha256_matches_reference"]
    print(f"  {'csv_sha256':42s} " + ("n/a (not the reference seed)" if sha is None else
                                      "matches the reference" if sha else
                                      "DIFFERS from the reference (a random-stream change)"))
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    print("  meta " + json.dumps(result["meta"]))


def record_reference(root: Path, names) -> None:
    """Rewrite the reference of `names` from untraced runs at the reference seed."""
    seed = workloads.REFERENCE_SEED
    deadline = time.monotonic() + 3600
    ref = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else \
        {"seed": seed, "workloads": {}}
    for name in names:
        wl = Workload(name, seed, root, root / ".bench_work" / f"record-{name}")
        child, out = wl.run(deadline)
        check = check_run(wl, child, out, None)
        if check.failed:
            raise SystemExit(f"{name}: {check.problems}")
        entry = {"sha256": check.digests, "rows": _read_csv(out / "rows.csv")}
        if "survey" in wl.spec:
            entry["survey"] = _read_csv(out / "survey.csv")[0]
        ref["workloads"][name] = entry
        shutil.rmtree(wl.work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stealthpath benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through spawn() so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "stealthpath" / "__init__.py").is_file():
        print("error: run from the root of a stealthpath checkout (src/stealthpath missing)",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.record_reference:
        record_reference(root, names)
        return 0
    bench = load_benchmark(root)
    with open(REFERENCE_PATH) as fh:
        reference = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    hard_deadline = time.monotonic() + HARD_LIMIT_S * len(names)
    results = []
    for name in names:
        try:
            results.append(measure(name, args.seed, seconds, bool(args.trace), root, bench,
                                   reference, hard_deadline))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report(results[-1])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
