"""Mixed-radix packing for product alphabets and n-letter sequence spaces.

Conventions used everywhere in this package:
  * a network symbol over C links is packed row-major with link 0 as the most
    significant digit: code = sum_i sym_i * prod_{k>i} size_k;
  * restrictions to a link subset keep the links in ascending index order;
  * an n-letter sequence over alphabet A is packed base-A with position 0 as
    the most significant digit.

The radix tables behind these packings are computed once per alphabet and
shared read-only.
"""
from __future__ import annotations

import functools
from typing import Sequence, Tuple

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=256)
def _radix(sizes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Strides and sizes of a product alphabet, as (C, 1) int64 columns."""
    sz = np.array(sizes, dtype=np.int64)
    st = np.ones_like(sz)
    st[:-1] = np.cumprod(sz[::-1])[::-1][1:]
    return _frozen(st[:, None]), _frozen(sz[:, None])


@functools.lru_cache(maxsize=256)
def sequence_weights(alphabet_size: int, n: int) -> np.ndarray:
    """Base-A place values of an n-letter sequence, most significant first (read-only)."""
    return _frozen(alphabet_size ** np.arange(n - 1, -1, -1, dtype=np.int64))


def strides(sizes: Sequence[int]) -> np.ndarray:
    """Row-major strides for a product alphabet (read-only)."""
    return _radix(tuple(map(int, sizes)))[0][:, 0]


def pack_links(link_symbols: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(..., C, n) per-link symbols -> (..., n) product codes."""
    st, _ = _radix(tuple(map(int, sizes)))
    return (np.asarray(link_symbols, dtype=np.int64) * st).sum(axis=-2)


def unpack_links(codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(..., n) product codes -> (..., C, n) per-link symbols."""
    st, sz = _radix(tuple(map(int, sizes)))
    return (np.asarray(codes, dtype=np.int64)[..., None, :] // st) % sz


def link_digit(codes: np.ndarray, sizes: Sequence[int], link: int) -> np.ndarray:
    """Extract one link's symbols from product codes."""
    st = strides(sizes)
    return (np.asarray(codes, dtype=np.int64) // st[link]) % int(sizes[link])


def restrict_codes(sizes: Sequence[int], links: Sequence[int]) -> np.ndarray:
    """Map every full product code to its packed restriction on `links`."""
    links = sorted(links)
    total = int(np.prod(sizes))
    codes = np.arange(total, dtype=np.int64)
    if not links:
        return np.zeros(total, dtype=np.int64)
    sub_sizes = [int(sizes[i]) for i in links]
    sub_st = strides(sub_sizes)
    out = np.zeros(total, dtype=np.int64)
    for pos, link in enumerate(links):
        out += link_digit(codes, sizes, link) * sub_st[pos]
    return out


def restriction_matrix(sizes: Sequence[int], links: Sequence[int]) -> np.ndarray:
    """0/1 matrix S with S[restricted_code, full_code] = 1."""
    links = sorted(links)
    sub_total = int(np.prod([sizes[i] for i in links])) if links else 1
    total = int(np.prod(sizes))
    s = np.zeros((sub_total, total))
    s[restrict_codes(sizes, links), np.arange(total)] = 1.0
    return s


def pack_sequences(seqs: np.ndarray, alphabet_size: int) -> np.ndarray:
    """(..., n) sequences over an alphabet -> (...) packed integers (int64).

    Caller must ensure alphabet_size**n fits in 63 bits.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    n = seqs.shape[-1]
    if n * np.log2(alphabet_size) > 63:
        raise ValueError("sequence space exceeds 63-bit packing")
    return seqs @ sequence_weights(int(alphabet_size), n)


def fold_sequences(block: np.ndarray, table: np.ndarray, alphabet_size: int) -> np.ndarray:
    """(rows, n) symbols -> (rows,) int64 packed sequences of table[symbol].

    Equals pack_sequences(table[block], alphabet_size), folded one position at
    a time (acc = acc * a + table[block[:, t]]), so no (rows, n) int64 copy
    of the block is made. Every symbol must index `table` (the gathers clip
    rather than check, which lets them write into one reused buffer), and
    every partial acc * a + table[x] must fit in int64: for a table of letters
    below a, that is a**n <= 2**63. With a = 1 the fold is a sum of table
    entries (a type key, for a table of powers).
    """
    table = np.asarray(table, dtype=np.int64)
    acc = np.take(table, block[:, 0], mode="clip")
    column = np.empty_like(acc)
    for t in range(1, block.shape[1]):
        acc *= alphabet_size
        acc += np.take(table, block[:, t], out=column, mode="clip")
    return acc


def unpack_sequences(codes: np.ndarray, alphabet_size: int, n: int) -> np.ndarray:
    """Inverse of pack_sequences: (m,) packed integers -> (m, n) sequences."""
    weights = sequence_weights(int(alphabet_size), int(n))
    return np.asarray(codes, dtype=np.int64)[:, None] // weights % alphabet_size


def unpack_sequence(code: int, alphabet_size: int, n: int) -> np.ndarray:
    """Inverse of pack_sequences for a single code."""
    return unpack_sequences(np.array([code]), alphabet_size, n)[0]
