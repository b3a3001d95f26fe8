"""The benchmark's three workloads and the inputs they derive from a seed.

Every workload uses the C=3, Z=1 uniform-bits model of the acceptance
suite (criteria 6, 7 and 12). The workload seed becomes the config's
`master_seed`; the codebook seed is fixed, so the code, its rate and its
stealth gap are the same for every workload seed and only the Monte Carlo draws
change. NOTES.md records why each workload exists and how it was sized.
"""
from __future__ import annotations

import math

REFERENCE_SEED = 1
CODE_SEED = 7

UNIFORM_BITS_C3Z1 = {
    "link_count": 3,
    "adversary_budget": 1,
    "link_alphabet_sizes": [2, 2, 2],
    "innocent": {"factors": [[0.5, 0.5]] * 3},
}

SOLVE_A_RESTARTS = 2     # the acceptance suite's solver setting

NAMES = ("overwrite-mc", "erasure-layered", "streaming-overwrite")


def _experiment(scheme, n, epsilon, adversary, detector, trials, seed, gamma=0.1):
    return {
        "schema": 1,
        "model": UNIFORM_BITS_C3Z1,
        "scheme": scheme,
        "code": {"n": n if isinstance(n, list) else [n],
                 "rate": {"rule": "bound-minus-epsilon", "epsilon": epsilon},
                 "seed": CODE_SEED},
        "gamma": gamma,
        "adversary": adversary,
        "detector": detector,
        "trials": trials,
        "master_seed": seed,
    }


def spec(name: str, seed: int, smoke: bool = False) -> dict:
    """Everything a child process needs to set up or run workload `name`.

    `smoke` shrinks the workload to a few seconds for the benchmark's tests.
    """
    if name == "overwrite-mc":
        adversary = {"jam_rule": "worst-over-family",
                     "strategies": ["resample-innocent", "spoof-codeword"]}
        return {"workload": name, "kind": "cli", "solver": {},
                "experiment": _experiment("overwrite-direct", 6 if smoke else 10, 0.3,
                                          adversary, "optimal-oracle",
                                          20 if smoke else 500, seed)}
    if name == "erasure-layered":
        return {"workload": name, "kind": "harness",
                "solver": {"restarts": SOLVE_A_RESTARTS},
                "experiment": _experiment("erasure-layered", 4 if smoke else 7, 0.3,
                                          {"jam_rule": "worst-over-family"},
                                          "optimal-oracle", 10 if smoke else 130, seed,
                                          gamma=1.0)}
    if name == "streaming-overwrite":
        adversary = {"jam_rule": "fixed", "jam_set": [0],
                     "strategies": ["resample-innocent"]}
        return {"workload": name, "kind": "harness", "solver": {},
                "experiment": _experiment("overwrite-direct", 6 if smoke else 16, 0.72,
                                          adversary, "none", 1, seed),
                "survey": {"jammed": [0], "good": [1, 2],
                           "targets": 20 if smoke else 1000}}
    raise ValueError(f"unknown workload {name!r}")


def operations(s: dict) -> int:
    """Checked operations per run: CSV rows and survey passes."""
    exp = s["experiment"]
    rows = len(exp["code"]["n"]) * len(exp["adversary"].get("strategies", [""]))
    return rows + (1 if "survey" in s else 0)


def transmissions(s: dict) -> int:
    """Monte Carlo transmissions per run: sweep points x jam sets x trials x 2."""
    exp = s["experiment"]
    model = exp["model"]
    if exp["adversary"]["jam_rule"] == "fixed":
        jam_sets = 1
    else:
        jam_sets = sum(math.comb(model["link_count"], k)
                       for k in range(model["adversary_budget"] + 1))
    sweep = len(exp["code"]["n"]) * len(exp["adversary"].get("strategies", [""]))
    return sweep * jam_sets * exp["trials"] * 2
