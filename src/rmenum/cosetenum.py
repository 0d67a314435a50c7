"""Exhaustive coset weight distributions by Gray-code sweeps.

A coset f + R(r,m) is walked by enumerating the codewords of R(r,m). One
engine, _gray_histograms, serves every sweep in the package. R(r,m)
contains the all-ones word, so f + R(r,m) is f + R' together with its
complement, where R' is the span of the dim - 1 non-constant basis tables;
the engine sweeps only R' and folds each histogram by complement,
hist[w] = h'[w] + h'[n - w]. The span of the low (at most 16) tables of R'
is laid out once as a packed numpy block of words in reflected Gray order,
and the Gray sequence over the high tables is cut into segments, each
adding one XOR offset to the representatives. Representatives are swept
in chunks of whole blocks, popcounted in numpy, and histogrammed by a
single bincount per chunk. A batch call amortises one sweep over many
representatives, which is how the product-sum recursion consumes whole
families of cosets at once; the brute-force oracle is the same sweep of
the zero representative. With jobs workers, the segments are split into
contiguous ranges, one per worker, and the histograms summed.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from math import comb

import numpy as np

from .boolfn import Anf, TruthTable, monomial_table, truth_table_from_anf
from .wenum import WeightEnumerator

DEFAULT_CAP = 1 << 30
# Swept tables spanned by the in-memory block; the rest index segments.
# Representatives are chunked so that no more words than one full block
# (2**_LOW_BITS) are popcounted at once.
_LOW_BITS = 16


def rm_dimension(r: int, m: int) -> int:
    return sum(comb(m, d) for d in range(r + 1))


def rm_basis_masks(r: int, m: int) -> list[int]:
    """Monomial masks of degree <= r, by degree then lexicographic order."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r} m={m}")
    masks = []
    for d in range(r + 1):
        for combo in itertools.combinations(range(1, m + 1), d):
            masks.append(sum(1 << (i - 1) for i in combo))
    return masks


def _rep_bits(rep, m: int) -> int:
    if isinstance(rep, TruthTable):
        if rep.m != m:
            raise ValueError("representative has wrong variable count")
        return rep.bits
    if isinstance(rep, Anf):
        if rep.m != m:
            raise ValueError("representative has wrong variable count")
        return truth_table_from_anf(rep).bits
    bits = int(rep)
    if not 0 <= bits < 1 << (1 << m):
        raise ValueError("representative wider than the code length")
    return bits


def _pack(words, lanes: int) -> np.ndarray:
    buf = b"".join(w.to_bytes(lanes * 8, "little") for w in words)
    return np.frombuffer(buf, dtype="<u8").reshape(len(words), lanes)


def _segments(r: int, m: int) -> int:
    """Gray segments of a full sweep of R(r,m): its dim - 1 swept tables past the block."""
    return 1 << max(0, rm_dimension(r, m) - 1 - _LOW_BITS)


def _gray_histograms(rep_bits: list[int], r: int, m: int, lo: int, hi: int) -> np.ndarray:
    """Weight histograms of each rep + R(r,m) over Gray segments lo..hi-1.

    Returns an int64 array of shape (len(rep_bits), 2**m + 1). Only the
    non-constant basis tables are swept (rm_basis_masks puts the all-ones
    table, mask 0, first); each swept word also stands for its complement,
    so the histograms are folded as hists + hists[:, ::-1] and count
    2**dim words per rep over a full sweep. Segment s covers the low block
    XORed with the high tables selected by the bits of gray(s); a full
    sweep is segments 0.._segments(r, m)-1, and any split of that range
    sums to the same histograms.
    """
    n = 1 << m
    lanes = max(1, n // 64)
    tables = _pack([monomial_table(mask, m) for mask in rm_basis_masks(r, m)[1:]], lanes)
    nlow = min(len(tables), _LOW_BITS)
    # reflected Gray order: the block so far, then its mirror XOR the next table
    low = np.zeros((1 << nlow, lanes), dtype="<u8")
    for i in range(nlow):
        low[1 << i : 2 << i] = low[(1 << i) - 1 :: -1] ^ tables[i]
    high = tables[nlow:]
    reps = _pack(rep_bits, lanes)
    chunk = 1 << (_LOW_BITS - nlow)
    hists = np.zeros((len(rep_bits), n + 1), dtype=np.int64)
    for seg in range(lo, hi):
        gray = seg ^ (seg >> 1)
        offset = np.bitwise_xor.reduce(high[[i for i in range(len(high)) if gray >> i & 1]])
        shifted = reps ^ offset
        for c0 in range(0, len(rep_bits), chunk):
            part = shifted[c0 : c0 + chunk]
            words = part[:, None, :] ^ low
            if lanes == 1:
                weights = np.bitwise_count(words[..., 0])
            else:
                weights = np.bitwise_count(words).sum(axis=2, dtype=np.int64)
            if len(part) > 1:
                weights = weights + np.arange(len(part), dtype=np.int64)[:, None] * (n + 1)
            counts = np.bincount(weights.ravel(), minlength=len(part) * (n + 1))
            hists[c0 : c0 + len(part)] += counts.reshape(len(part), n + 1)
    return hists + hists[:, ::-1]


def coset_enumerator(rep, r: int, m: int, cap: int = DEFAULT_CAP) -> WeightEnumerator:
    """W[z; rep + R(r,m)], exact.

    rep may be a TruthTable, an Anf, or raw table bits. The sweep visits
    2**dim(R(r,m)) codewords and refuses to start past the cap.
    """
    return batch_coset_enumerators([rep], r, m, cap=cap)[0]


def batch_coset_enumerators(
    reps, r: int, m: int, cap: int = DEFAULT_CAP, jobs: int = 1
) -> list[WeightEnumerator]:
    """One Gray sweep of R(r,m) shared by every representative.

    The result list is aligned with reps and identical for any jobs value;
    workers sweep disjoint ranges of Gray segments for every rep.
    """
    n = 1 << m
    return [WeightEnumerator(n, h) for h in coset_histograms(reps, r, m, cap, jobs).tolist()]


def coset_histograms(reps, r: int, m: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> np.ndarray:
    """The sweep of batch_coset_enumerators as int64 rows, one per rep, of 2**m + 1 counts.

    For callers that pack the rows straight into big ints rather than
    building a WeightEnumerator per coset. With jobs > 1 the Gray segments
    are cut into min(jobs, segments) contiguous ranges, one per worker, and
    each worker sweeps its range for every rep; the workers' histograms are
    summed, so each one holds a full len(reps) x (2**m + 1) array. Every
    row must total 2**dim, or ValueError is raised, as it is for jobs < 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    dim = rm_dimension(r, m)
    if 1 << dim > cap:
        raise ValueError(f"2**{dim} codewords exceed the cap of {cap}")
    rep_bits = [_rep_bits(rep, m) for rep in reps]
    if not rep_bits:
        return np.zeros((0, (1 << m) + 1), dtype=np.int64)
    nseg = _segments(r, m)
    jobs = min(jobs, nseg)
    if jobs <= 1:
        hists = _gray_histograms(rep_bits, r, m, 0, nseg)
    else:
        bounds = [nseg * k // jobs for k in range(jobs + 1)]
        sweep = partial(_gray_histograms, rep_bits, r, m)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            hists = sum(pool.map(sweep, bounds[:-1], bounds[1:]))
    if (hists.sum(axis=1) != 1 << dim).any():
        raise ValueError(f"a coset histogram of R({r},{m}) does not total 2**{dim}")
    return hists
