"""Tests of the benchmark itself, on smoke-sized workloads.

    PYTHONPATH=src python3 -m pytest -q bench     # from the root of a checkout
"""
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _deadline():
    return time.monotonic() + 120


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_workload_runs_checks_and_traces_identically(name, tmp_path):
    wl = run.Workload(name, workloads.REFERENCE_SEED, ROOT, tmp_path, smoke=True)
    assert wl.setup(_deadline()).returncode == 0
    child, out = wl.run(_deadline())
    check = run.check_run(wl, child, out, None)
    assert check.failed == 0, check.problems
    assert check.attempted == workloads.operations(wl.spec)
    assert child.rss_mb > 10

    spans = tmp_path / "spans.jsonl"
    traced, traced_out = wl.run(_deadline(), spans)
    traced_check = run.check_run(wl, traced, traced_out, None)
    assert traced_check.failed == 0, traced_check.problems
    assert traced_check.digests == check.digests

    bench = run.load_benchmark(ROOT)
    names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_s"]
    values, _ = tracing.summarize(tracing.read_spans(spans), names)
    assert values["ratesolver.solve_b.calls"] >= 1
    assert values["harness.run_experiment.self_s"] > 0
    assert values["codec.build.calls_per_code"] >= 1
    if name == "overwrite-mc":
        assert values["cli.main.self_s"] > 0
        assert values["codec.decode_overwrite.calls"] == workloads.transmissions(wl.spec)


def test_second_seed_passes_the_semantic_checks(tmp_path):
    reference = json.loads(run.REFERENCE_PATH.read_text())
    wl = run.Workload("overwrite-mc", workloads.REFERENCE_SEED + 1, ROOT, tmp_path)
    child, out = wl.run(_deadline())
    check = run.check_run(wl, child, out, reference["workloads"]["overwrite-mc"])
    assert check.failed == 0, check.problems
    assert check.digests != reference["workloads"]["overwrite-mc"]["sha256"]


def test_tracer_installs_in_every_namespace_and_restores():
    from stealthpath import codec, harness, rng
    from stealthpath.harness import ExperimentConfig
    originals = (codec.encode, harness.encode, rng.derive_seed, harness.derive_seed)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert harness.encode is codec.encode is not originals[0]
        assert harness.derive_seed is rng.derive_seed is not originals[2]
        with pytest.raises(RuntimeError):
            tracer.install()
        cfg = ExperimentConfig.from_json(json.dumps(
            workloads.spec("overwrite-mc", 3, smoke=True)["experiment"]))
        harness.run_experiment(ExperimentConfig(**{**cfg.__dict__, "trials": 2}))
    finally:
        tracer.restore()
    assert (codec.encode, harness.encode, rng.derive_seed, harness.derive_seed) == originals
    spans = {s[0]: s for s in tracer.spans}
    encodes = [s for s in tracer.spans if s[2] == "codec.encode"]
    assert encodes and all(spans[s[1]][2] == "harness.run_experiment" for s in encodes)
    assert all(s[3] <= s[4] for s in tracer.spans)


def test_failing_sweep_point_counts_in_failed_frac(tmp_path):
    wl = run.Workload("overwrite-mc", workloads.REFERENCE_SEED, ROOT, tmp_path, smoke=True)
    # n=400 asks for 2^680 codewords: the harness writes a "failed:" row.
    wl.spec["experiment"]["code"]["n"] = [6, 400]
    (tmp_path / "experiment.json").write_text(json.dumps(wl.spec["experiment"]))
    child, out = wl.run(_deadline())
    check = run.check_run(wl, child, out, None)
    assert check.attempted == 4
    assert check.failed == 2, check.problems
    assert all("failed:" in p for p in check.problems)


def test_percentile_needs_ten_samples_beyond_it():
    assert tracing.percentile(list(range(19)), 0.5) is None
    assert tracing.percentile(list(range(20)), 0.5) == 9
    assert tracing.percentile(list(range(999)), 0.99) is None
    assert tracing.percentile(list(range(1000)), 0.99) == 989


def test_window_goes_mostly_to_runs():
    walls = {"setup": [], "run": [], "traced": []}
    assert run.next_kind(walls, 40.0) == "setup"
    walls["setup"].append(2.0)
    assert run.next_kind(walls, 38.0) == "run"
    walls["run"].append(4.0)
    assert run.next_kind(walls, 34.0) == "run"      # 2 s of set-up > a quarter of 4 s
    walls["run"].append(4.0)
    assert run.next_kind(walls, 30.0) == "setup"
    assert run.next_kind(walls, 3.0) == "setup"     # no run fits: set-ups fill the window
    assert run.next_kind(walls, 1.0) is None
