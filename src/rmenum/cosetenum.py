"""Exhaustive coset weight distributions by Gray-code sweeps.

A coset f + R(r,m) is walked by enumerating the codewords of R(r,m). One
engine, _gray_histograms, serves every sweep in the package. R(r,m)
contains the all-ones word, so f + R(r,m) is f + R' together with its
complement, where R' is the span of the dim - 1 non-constant basis tables;
the engine sweeps only R' and folds each histogram by complement,
hist[w] = h'[w] + h'[n - w]. Words are packed numpy rows: 64-bit lanes,
or for m <= 5 one word in the narrowest unsigned dtype that holds it. The
span of the low tables of R' (at most 16, and no more than keep the block
within 512 KB) is laid out once as a block of words by XOR-doubling, and
the Gray sequence over the high tables is cut into segments, each adding
one XOR offset, looked up in the half spans of the high tables, to the
representatives. One loop serves every sweep:
representatives go in groups, and each group sweeps its segments a batch
at a time into buffers reused for every batch. A short sweep groups many
representatives into one batch, whose weights are binned with each
representative's place as the key's high part; a long one takes one
representative's segments a few at a time, and up to m = 7 bins its
weights as byte pairs into a pair histogram whose two marginals give the
row. A batch call amortises one sweep over many representatives, which
is how the product-sum recursion consumes whole families of cosets at
once; callers that build many cosets pass their packed words as one
array. The brute-force oracle is the same sweep of the zero
representative. Every sweep runs in the calling process. A sweep of more
than the fixed DEFAULT_CAP = 2**30 codewords, or of words longer than
2**MAX_M bits, refuses to start.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .boolfn import (
    MAX_M,
    Anf,
    TruthTable,
    monomial_table,
    truth_table_from_anf,
    xor_half_spans,
    xor_span_array,
)
from .wenum import WeightEnumerator

DEFAULT_CAP = 1 << 30
# Swept tables spanned by the in-memory block, at most; the rest index segments.
_LOW_BITS = 16
# Bytes of swept words per batch, the size of the reused word buffer and
# the most one block takes: two full blocks of uint32 words, one of 64-bit
# words, or a group of reps over all the segments of a shorter sweep
# (whose int64 keys fit it too).
_BATCH_BYTES = 1 << 19


def rm_dimension(r: int, m: int) -> int:
    return sum(comb(m, d) for d in range(r + 1))


def capped_dimension(r: int, m: int) -> int:
    """dim R(r,m); ValueError past DEFAULT_CAP codewords, read at call time."""
    dim = rm_dimension(r, m)
    if 1 << dim > DEFAULT_CAP:
        raise ValueError(f"2**{dim} codewords exceed the cap of {DEFAULT_CAP}")
    return dim


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


def _lanes(m: int) -> int:
    """64-bit lanes of one packed word of length 2**m."""
    return max(1, (1 << m) // 64)


def packed_words(words, m: int) -> np.ndarray:
    """Truth tables of 2**m bits (Python ints) as packed words, one row each.

    A row is _lanes(m) little-endian 64-bit lanes, least significant first.
    """
    lanes = _lanes(m)
    buf = b"".join(w.to_bytes(lanes * 8, "little") for w in words)
    return np.frombuffer(buf, dtype="<u8").reshape(len(words), lanes)


def packed_tables(masks, m: int) -> np.ndarray:
    """Truth tables of the monomials masks as packed words, one row each."""
    return packed_words([monomial_table(mask, m) for mask in masks], m)


def _packed_reps(reps, m: int) -> np.ndarray:
    """reps as packed words: an array is checked as given, anything else goes rep by rep.

    An array must be 2-D, of dtype <u8, with one column per 64-bit lane,
    and set no bit at or past 2**m.
    """
    lanes = _lanes(m)
    if not isinstance(reps, np.ndarray):
        return packed_words([_rep_bits(rep, m) for rep in reps], m)
    if reps.ndim != 2 or reps.shape[1] != lanes:
        raise ValueError(
            f"packed words of length 2**{m} need shape (count, {lanes}), got {reps.shape}"
        )
    if reps.dtype != np.dtype("<u8"):
        raise ValueError(f"packed words need dtype <u8, got {reps.dtype}")
    if m < 6 and (reps >> np.uint64(1 << m)).any():
        raise ValueError("representative wider than the code length")
    return reps


def _gray_histograms(reps: np.ndarray, r: int, m: int) -> np.ndarray:
    """Weight histograms of each rep + R(r,m), by one whole Gray sweep.

    reps are packed words, shaped like packed_words' output. Returns an
    int64 array of shape (len(reps), 2**m + 1). Only the non-constant basis
    tables are swept (rm_basis_masks puts the all-ones table, mask 0,
    first); each swept word also stands for its complement, so the
    histograms are folded as hists + hists[:, ::-1] and count 2**dim words
    per rep. The low tables span the block: at most _LOW_BITS of them, and
    no more than keep its words within _BATCH_BYTES, so a block holds 2**16
    words up to m = 6 and 2**6 words of 8 KB at m = 16. Segment s covers
    the block XORed with the high tables selected by the bits of gray(s),
    looked up in their half spans, and the sweep runs over all
    len(high_lo) * len(high_hi) segments.

    Words narrower than 64 bits (m <= 5) are swept in the narrowest
    unsigned dtype that holds them. A batch holds batch =
    _BATCH_BYTES // block.nbytes (at least 1) swept blocks. Reps go in
    groups of as many as sweep all the segments in one batch whose
    words and whose int64 keys each fit _BATCH_BYTES, or one rep, and each
    group sweeps its segments batch at a time into word, popcount and
    weight buffers reused for every batch. So a sweep of few segments takes
    many reps per batch, and a long one takes one rep's segments over many
    batches. A one-rep group up to m = 7, with a block of at least 2 words,
    reads its one-byte weights as uint16 pairs, and one bincount per batch
    over their keys goes into one pair histogram of 256 * (n + 1) keys; the
    rep's row is the sum of its two marginals, taken once per rep. Any
    other group bins int64 keys weight + (n + 1) * (rep's place in the
    group), written over the batch's words; from m = 8 a weight can reach
    256, so weights are int64 there.
    """
    n = 1 << m
    dtype = np.min_scalar_type((1 << min(n, 64)) - 1)
    tables = packed_tables(rm_basis_masks(r, m)[1:], m).astype(dtype)
    lanes = tables.shape[1]
    fit = (_BATCH_BYTES // (lanes * tables.itemsize)).bit_length() - 1
    nlow = min(len(tables), _LOW_BITS, fit)
    # lane-major, so the lanes of a word's popcount are summed as planes
    block = np.ascontiguousarray(xor_span_array(np.zeros(lanes, dtype=dtype), tables[:nlow]).T)
    size = block.shape[1]
    high_lo, high_hi = xor_half_spans(np.zeros(lanes, dtype=dtype), tables[nlow:])
    nseg = len(high_lo) * len(high_hi)
    mask, shift = len(high_lo) - 1, len(high_lo).bit_length() - 1
    batch = max(1, _BATCH_BYTES // block.nbytes)
    # a grouped batch holds at most _BATCH_BYTES of words and of int64 keys
    group = max(1, _BATCH_BYTES // max(block.nbytes, 8 * size) // nseg)
    rows = min(group, len(reps)) * min(batch, nseg)
    # only a one-rep group bins byte pairs: every group when group is 1, else
    # a last group of one rep
    paired = m <= 7 and size > 1 and (group == 1 or len(reps) % group == 1)
    # a batch's int64 keys overwrite its words, which are popcounted by then
    key_bytes = rows * size * 8 if group > 1 or not paired else 0
    raw = np.empty(max(rows * block.nbytes, key_bytes), dtype=np.uint8)
    buf = raw[: rows * block.nbytes].view(dtype).reshape(rows, *block.shape)
    keys = raw[:key_bytes].view(np.int64)
    popcounts = np.empty(buf.shape, dtype=np.uint8)
    if lanes == 1:
        weights = popcounts[:, 0]
    else:
        weights = np.empty((rows, size), dtype=np.uint8 if m <= 7 else np.int64)
    # pair key w + 256 * w' < 256 * (n + 1), with w, w' <= n
    pairs = np.zeros(256 * (n + 1) if paired else 0, dtype=np.int64)
    words = reps.astype(dtype)
    hists = np.zeros((len(reps), n + 1), dtype=np.int64)
    for g0 in range(0, len(words), group):
        part = words[g0 : g0 + group]
        g = len(part)
        for s0 in range(0, nseg, batch):
            seg = np.arange(s0, min(s0 + batch, nseg))
            gray = seg ^ (seg >> 1)
            offsets = high_lo[gray & mask] ^ high_hi[gray >> shift]
            k = g * len(seg)
            np.bitwise_xor((part[:, None] ^ offsets).reshape(k, lanes, 1), block, out=buf[:k])
            np.bitwise_count(buf[:k], out=popcounts[:k])
            if lanes > 1:
                np.sum(popcounts[:k], axis=1, dtype=weights.dtype, out=weights[:k])
            if g == 1 and paired:
                pairs += np.bincount(weights[:k].reshape(-1).view(np.uint16), minlength=len(pairs))
            else:
                # key w + (n + 1) * (rep's place in the group)
                places = np.arange(0, g * (n + 1), n + 1)[:, None]
                np.add(weights[:k].reshape(g, -1), places, out=keys[: k * size].reshape(g, -1))
                counts = np.bincount(keys[: k * size], minlength=g * (n + 1))
                hists[g0 : g0 + g] += counts.reshape(g, n + 1)
        if g == 1 and paired:
            square = pairs.reshape(n + 1, 256)
            hists[g0] = square.sum(axis=1) + square.sum(axis=0)[: n + 1]
            pairs[:] = 0
    return hists + hists[:, ::-1]


def coset_enumerator(rep, r: int, m: int) -> WeightEnumerator:
    """W[z; rep + R(r,m)], exact.

    rep may be a TruthTable, an Anf, or raw table bits. The sweep visits
    2**dim(R(r,m)) codewords and refuses to start past DEFAULT_CAP.
    """
    return batch_coset_enumerators([rep], r, m)[0]


def batch_coset_enumerators(reps, r: int, m: int) -> list[WeightEnumerator]:
    """One Gray sweep of R(r,m) shared by every representative.

    reps is a sequence of TruthTables, Anfs or raw table bits, or one 2-D
    <u8 array of packed words, a row of 64-bit lanes (little-endian, least
    significant lane first) per rep, shaped like packed_words' output; an
    array of the wrong shape or dtype, or with a bit set at or past 2**m,
    raises ValueError before any sweep. The result list is aligned with reps.
    """
    return [WeightEnumerator(1 << m, h) for h in coset_histograms(reps, r, m).tolist()]


def coset_histograms(reps, r: int, m: int) -> np.ndarray:
    """The sweep of batch_coset_enumerators as int64 rows, one per rep, of 2**m + 1 counts.

    reps takes the same forms as in batch_coset_enumerators. For callers
    that pack the rows straight into big ints rather than building a
    WeightEnumerator per coset. ValueError is raised before any rep is
    packed for m outside 0..MAX_M, before any sweep past DEFAULT_CAP, and
    after it unless every row totals 2**dim.
    """
    if not 0 <= m <= MAX_M:
        raise ValueError(f"m={m} out of range 0..{MAX_M}")
    dim = capped_dimension(r, m)
    packed = _packed_reps(reps, m)
    if not len(packed):
        return np.zeros((0, (1 << m) + 1), dtype=np.int64)
    hists = _gray_histograms(packed, r, m)
    if (hists.sum(axis=1) != 1 << dim).any():
        raise ValueError(f"a coset histogram of R({r},{m}) does not total 2**{dim}")
    return hists
