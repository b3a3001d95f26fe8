"""Linear algebra over GF(2) for the affine codebook ensemble.

A vector is a Python int whose bit q is entry q; a matrix is a numpy 0/1
array. The affine ensemble needs three operations: apply a fixed matrix to
many vectors (`LinearMap`), solve a fixed system for many right-hand sides
(`solve_system`), and walk the elements of a coset in increasing integer order
(`reduced_basis`, `coset_min`, `coset_elements`).
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def to_int(bits: np.ndarray) -> int:
    """0/1 vector -> int with bit q equal to entry q."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class LinearMap:
    """x -> M·x for a fixed 0/1 matrix M, by one 256-entry table per input byte."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.uint8)
        cols = [to_int(matrix[:, q]) for q in range(matrix.shape[1])]
        cols += [0] * (-len(cols) % 8)
        self._tables = []
        for p in range(0, len(cols), 8):
            table = [0] * 256
            for v in range(1, 256):
                low = (v & -v).bit_length() - 1
                table[v] = table[v & (v - 1)] ^ cols[p + low]
            self._tables.append(table)

    def __call__(self, x: int) -> int:
        y = 0
        for table in self._tables:
            y ^= table[x & 0xFF]
            x >>= 8
        return y


def solve_system(a: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Gauss-Jordan elimination of the D x K system a·b = y.

    Returns (solve, null). `solve` is a (K + D - r) x D matrix, r = rank(a):
    its first K rows map y to the solution whose free entries are 0, its last
    D - r rows to a syndrome that is zero iff the system is consistent. `null`
    is a basis of {b : a·b = 0}.
    """
    d, k = a.shape
    aug = np.concatenate([np.asarray(a, dtype=np.uint8) & 1,
                          np.eye(d, dtype=np.uint8)], axis=1)
    pivots: List[int] = []
    for col in range(k):
        r = len(pivots)
        if r == d:
            break
        hits = np.nonzero(aug[r:, col])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            aug[[r, p]] = aug[[p, r]]
        others = aug[:, col].astype(bool)
        others[r] = False
        aug[others] ^= aug[r]
        pivots.append(col)
    r = len(pivots)
    solve = np.zeros((k + d - r, d), dtype=np.uint8)
    solve[pivots] = aug[:r, k:]
    solve[k:] = aug[r:, k:]
    pivot_set = set(pivots)
    null = []
    for f in range(k):
        if f in pivot_set:
            continue
        v = 1 << f
        for i, col in enumerate(pivots):
            if aug[i, f]:
                v |= 1 << col
        null.append(v)
    return solve, null


def reduced_basis(vectors: Sequence[int]) -> List[int]:
    """A basis of span(vectors) in which no vector holds another's top bit.

    Sorted by top bit. The elements of a coset x + span then sort in integer
    order exactly as their coordinates, read as a binary number, do.
    """
    basis = {}
    for v in vectors:
        for top in sorted(basis, reverse=True):
            if v >> top & 1:
                v ^= basis[top]
        if v:
            basis[v.bit_length() - 1] = v
    tops = sorted(basis)
    for top in tops:
        for other in tops:
            if other != top and basis[other] >> top & 1:
                basis[other] ^= basis[top]
    return [basis[t] for t in tops]


def coset_min(x: int, basis: Sequence[int]) -> int:
    """Smallest element of x + span(basis) for a `reduced_basis`."""
    for v in basis:
        if x >> (v.bit_length() - 1) & 1:
            x ^= v
    return x


def in_span(x: int, basis: Sequence[int]) -> bool:
    return coset_min(x, basis) == 0


def coset_elements(x: int, basis: Sequence[int], below: int, limit: int) -> List[int]:
    """Ascending elements of x + span(basis) that are < `below`, at most `limit`.

    Each step doubles the list with the next basis vector, whose top bit puts
    every new element above every old one, so the walk stops as soon as the
    list is long enough or the next half starts at or above `below`.
    """
    found = [coset_min(x, basis)]
    for v in basis:
        if len(found) >= limit or found[0] ^ v >= below:
            break
        found += [e ^ v for e in found]
    return [e for e in found if e < below][:limit]
