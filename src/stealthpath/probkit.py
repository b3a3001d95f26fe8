"""Finite-alphabet probability primitives.

Distributions, marginals, information measures (base-2 throughout), variational
distance, strong typicality, and inverse-CDF sampling from caller-supplied
uniform draws. All containers are immutable after construction and all
operations are pure.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


# Construction tolerances: reject real bugs, forgive float dust.
SUM_TOL = 1e-9
MASS_TOL = 1e-12
# typical_rows: cells per block of rows, in its count table and in its symbol copy.
TYPICAL_BLOCK_CELLS = 1 << 18


def _validated_mass(mass, expected_len: int) -> np.ndarray:
    arr = np.array(mass, dtype=float)
    if arr.ndim != 1 or arr.size != expected_len:
        raise ValueError(f"mass must be a length-{expected_len} vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"probability mass must be finite, got {arr.tolist()}")
    if np.any(arr < -MASS_TOL):
        raise ValueError("negative probability mass")
    np.maximum(arr, 0.0, out=arr)
    total = arr.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"mass sums to {total!r}, not 1 within {SUM_TOL}")
    arr /= total
    arr.flags.writeable = False
    return arr


def _frozen_cumsum(mass: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(mass, axis=-1)
    cdf.flags.writeable = False
    return cdf


@dataclass(frozen=True)
class Distribution:
    """Probability mass function over {0, ..., alphabet_size - 1}."""

    alphabet_size: int
    mass: np.ndarray

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        object.__setattr__(self, "mass", _validated_mass(self.mass, self.alphabet_size))

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative mass, the table `inverse_cdf` draws from."""
        return _frozen_cumsum(self.mass)

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        return cls(size, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, size: int, symbol: int) -> "Distribution":
        m = np.zeros(size)
        m[symbol] = 1.0
        return cls(size, m)

    @classmethod
    def bernoulli(cls, p: float) -> "Distribution":
        return cls(2, np.array([1.0 - p, p]))

    def to_json(self) -> str:
        return json.dumps({"alphabet_size": self.alphabet_size, "mass": self.mass.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "Distribution":
        obj = json.loads(text)
        return cls(int(obj["alphabet_size"]), obj["mass"])


@dataclass(frozen=True)
class JointDistribution:
    """PMF over a product alphabet, mass stored row-major (component 0 slowest)."""

    factor_sizes: tuple
    mass: np.ndarray

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.factor_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("factor_sizes must be positive integers")
        object.__setattr__(self, "factor_sizes", sizes)
        total = int(np.prod(sizes))
        object.__setattr__(self, "mass", _validated_mass(self.mass, total))

    @property
    def component_count(self) -> int:
        return len(self.factor_sizes)

    @property
    def alphabet_size(self) -> int:
        return int(np.prod(self.factor_sizes))

    def grid(self) -> np.ndarray:
        return self.mass.reshape(self.factor_sizes)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative mass over the packed product alphabet."""
        return _frozen_cumsum(self.mass)

    @classmethod
    def from_factors(cls, factors: Sequence[Distribution]) -> "JointDistribution":
        """Independent product of single-letter distributions."""
        mass = np.array([1.0])
        for f in factors:
            mass = np.kron(mass, f.mass)
        return cls(tuple(f.alphabet_size for f in factors), mass)

    def as_distribution(self) -> Distribution:
        return Distribution(self.alphabet_size, self.mass)

    def to_json(self) -> str:
        return json.dumps({
            "alphabet_size": self.alphabet_size,
            "factor_sizes": list(self.factor_sizes),
            "mass": self.mass.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        obj = json.loads(text)
        return cls(tuple(obj["factor_sizes"]), obj["mass"])


@dataclass(frozen=True)
class ConditionalKernel:
    """Row-stochastic kernel: one output Distribution per input symbol."""

    input_size: int
    output_size: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (self.input_size, self.output_size):
            raise ValueError(f"kernel matrix must be {self.input_size}x{self.output_size}")
        rows = [_validated_mass(mat[i], self.output_size) for i in range(self.input_size)]
        mat = np.vstack(rows)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def identity(cls, size: int) -> "ConditionalKernel":
        return cls(size, size, np.eye(size))

    @classmethod
    def constant(cls, input_size: int, row: Distribution) -> "ConditionalKernel":
        return cls(input_size, row.alphabet_size, np.tile(row.mass, (input_size, 1)))


@dataclass(frozen=True)
class TypicalityParams:
    """Slack for strong typicality tests."""

    gamma: float = 0.1

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class SymbolSequence:
    """Length-n vector of alphabet indices."""

    symbols: np.ndarray

    def __post_init__(self):
        arr = np.array(self.symbols, dtype=np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("symbols must be a non-empty 1-D vector")
        if np.any(arr < 0):
            raise ValueError("symbol indices must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    @property
    def n(self) -> int:
        return self.symbols.size


def entropy(d: Distribution) -> float:
    """Shannon entropy in bits, with 0 log 0 := 0."""
    return entropy_of_mass(d.mass)


def entropy_of_mass(mass: np.ndarray) -> float:
    """Entropy of a raw (already valid) mass vector; solver hot path."""
    p = mass[mass > 0]
    return float(-(p * np.log2(p)).sum())


def entropy_of_rows(mass: np.ndarray) -> np.ndarray:
    """`entropy_of_mass` of each row of a 2-D array, bit for bit.

    Zeros are dropped before the sum, as there: numpy's pairwise summation
    groups the terms of a row of 8 or more differently when they are kept. So
    rows are summed in groups that share their count of positive entries.
    """
    positive = mass > 0
    if positive.all():
        return -(mass * np.log2(mass)).sum(axis=1)
    counts = positive.sum(axis=1)
    out = np.empty(mass.shape[0])
    for c in np.unique(counts):
        rows = np.flatnonzero(counts == c)
        p = mass[rows][positive[rows]].reshape(rows.size, c)
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def marginalize(j: JointDistribution, keep: Iterable[int]) -> Distribution:
    """Sum out every component not in `keep` (kept components in ascending order)."""
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= j.component_count for k in keep):
        raise ValueError(f"keep indices out of range for {j.component_count} components")
    if not keep:
        return Distribution(1, np.array([1.0]))
    drop = tuple(i for i in range(j.component_count) if i not in keep)
    grid = j.grid()
    if drop:
        grid = grid.sum(axis=drop)
    return Distribution(int(np.prod([j.factor_sizes[k] for k in keep])), grid.reshape(-1))


def mutual_information(j: JointDistribution, part_a: Iterable[int], part_b: Iterable[int]) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B) in bits, clamped to be non-negative."""
    a = set(int(i) for i in part_a)
    b = set(int(i) for i in part_b)
    if a & b:
        raise ValueError("part_a and part_b must be disjoint")
    mi = entropy(marginalize(j, a)) + entropy(marginalize(j, b)) - entropy(marginalize(j, a | b))
    if mi < -1e-10:
        raise ValueError(f"mutual information evaluated to {mi}, below numerical floor")
    return max(mi, 0.0)


def variational_distance(p: Distribution, q: Distribution) -> float:
    if p.alphabet_size != q.alphabet_size:
        raise ValueError("alphabet size mismatch")
    return 0.5 * float(np.abs(p.mass - q.mass).sum())


def typical_rows(seqs: np.ndarray, mass: np.ndarray, gamma: float) -> np.ndarray:
    """Strong typicality of each row of a (rows, n) array of symbol indices.

    A row passes iff no zero-mass letter occurs in it and the L1 distance of
    its type from `mass` is at most gamma. Symbols must lie in [0, mass.size).
    Rows holding a zero-mass letter are rejected first, by one gather; the
    count table is built only for the rest, in blocks of rows whose count
    table and int64 symbol copy each hold at most TYPICAL_BLOCK_CELLS cells.
    """
    rows, n = seqs.shape
    a = mass.size
    out = (mass > 0)[seqs].all(axis=1)
    survivors = np.flatnonzero(out)
    step = max(TYPICAL_BLOCK_CELLS // max(a, n), 1)
    for lo in range(0, survivors.size, step):
        idx = survivors[lo:lo + step]
        flat = (np.arange(idx.size, dtype=np.int64)[:, None] * a + seqs[idx]).ravel()
        counts = np.bincount(flat, minlength=idx.size * a).reshape(idx.size, a)
        dev = counts / n
        del counts
        dev -= mass
        np.abs(dev, out=dev)
        out[idx] = dev.sum(axis=1) <= gamma
    return out


def is_strongly_typical(s: SymbolSequence, d: Distribution, tp: TypicalityParams) -> bool:
    """Zero-mass symbols must not occur and total type deviation must be <= gamma."""
    if s.symbols.max() >= d.alphabet_size:
        return False
    return bool(typical_rows(s.symbols[None, :], d.mass, tp.gamma)[0])


def inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest k with cdf[..., k] > u, clipped to A - 1, for A = cdf.shape[-1].

    `cdf` is one cumulative mass vector, or per-position rows (say
    cdf_rows[symbols]) broadcast against `u`. The result counts the entries of
    cdf[..., :A-1] that are <= u, in the smallest unsigned dtype that holds
    A - 1, by one comparison per letter.
    """
    last = cdf.shape[-1] - 1
    dtype = np.min_scalar_type(last)
    out = np.zeros(np.broadcast_shapes(cdf.shape[:-1], np.shape(u)), dtype=dtype)
    for k in range(last):
        out += u >= cdf[..., k]
    return out
