"""Stealthy multipath communication simulator.

A library and CLI for studying reliable, hard-to-detect communication over C
parallel links when an adversary can observe and jam any subset of at most Z
of them: rate-bound solvers, random-coding codebooks with exact-agreement
list decoders, a jamming-strategy suite with detectors, exact brute-force
oracles for tiny instances, and a seeded Monte Carlo experiment harness.
"""

from .probkit import (
    ConditionalKernel,
    Distribution,
    JointDistribution,
    SymbolSequence,
    TypicalityParams,
    entropy,
    mutual_information,
    variational_distance,
)
from .ratesolver import (
    AchievableRate,
    NetworkModel,
    SolverConfig,
    SolutionA,
    SolutionB,
    achievable_rate,
    cardinality_bound,
    check_feasibility_b,
    enumerate_jam_sets,
    solve_a,
    solve_b,
)
from .codec import (
    CodeParams,
    DecodeResult,
    DirectCode,
    ReceivedWord,
    ResourceBudgetError,
    Transmission,
    build_direct_code,
    build_layered_code,
    decode_erasure,
    decode_overwrite,
    encode,
)
from .adversary import (
    JamSet,
    erasure_jam,
    get_strategy,
    list_strategies,
    optimal_detect,
    overwrite_jam,
)
from .harness import ExperimentConfig, MetricsRow, export, run_experiment

__version__ = "0.1.0"
