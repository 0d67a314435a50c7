import random
import tracemalloc
from math import comb

import numpy as np
import pytest

from rmenum import cosetenum
from rmenum.boolfn import (
    TruthTable,
    monomial_table,
    parse_anf,
    truth_table_from_anf,
    xor_half_spans,
)
from rmenum.cosetenum import (
    _LOW_BITS,
    batch_coset_enumerators,
    coset_enumerator,
    coset_histograms,
    packed_words,
    rm_basis_masks,
    rm_dimension,
)
from rmenum.gf2 import apply, random_invertible, AffineMap
from rmenum.wenum import WeightEnumerator


def slow_coset_enumerator(rep_bits, r, m):
    # plain subset XOR over the monomial basis, no Gray incrementality
    tables = [monomial_table(mask, m) for mask in rm_basis_masks(r, m)]
    counts = [0] * ((1 << m) + 1)
    for sel in range(1 << len(tables)):
        word = rep_bits
        for i, t in enumerate(tables):
            if (sel >> i) & 1:
                word ^= t
        counts[word.bit_count()] += 1
    return WeightEnumerator(1 << m, counts)


def test_rm_dimension_values():
    assert rm_dimension(1, 3) == 4
    assert rm_dimension(2, 5) == 16
    assert rm_dimension(4, 9) == 256
    assert rm_dimension(3, 3) == 8
    assert rm_dimension(0, 4) == 1


def test_rm_basis_is_degree_filtered():
    masks = rm_basis_masks(2, 4)
    assert len(masks) == rm_dimension(2, 4)
    assert all(mask.bit_count() <= 2 for mask in masks)
    assert masks[0] == 0


def test_full_code_enumerators():
    assert coset_enumerator(0, 1, 3) == WeightEnumerator.from_pairs(
        8, [(0, 1), (4, 14), (8, 1)]
    )
    assert coset_enumerator(0, 0, 3) == WeightEnumerator.from_pairs(8, [(0, 1), (8, 1)])
    # R(2,3) is the even-weight code on 8 points
    want = WeightEnumerator(8, [comb(8, w) if w % 2 == 0 else 0 for w in range(9)])
    assert coset_enumerator(0, 2, 3) == want


def test_bent_coset():
    got = coset_enumerator(parse_anf("12+34", 4), 1, 4)
    assert got == WeightEnumerator.from_pairs(16, [(6, 16), (10, 16)])


def test_matches_slow_reference():
    rng = random.Random(17)
    for r, m in [(1, 3), (2, 4), (1, 4)]:
        for _ in range(5):
            rep = rng.getrandbits(1 << m)
            assert coset_enumerator(rep, r, m) == slow_coset_enumerator(rep, r, m)
    # the sweep engine's edges, against a reference that includes the all-ones
    # table the engine folds in: more representatives than one group (2048
    # for R(1,5)'s 32-word block), R(2,5)'s 15 swept tables (groups of 2
    # reps, here one rep and a group with a one-rep tail), R(0,5) with no
    # swept table, and two 64-bit lanes
    for r, m, count in [(1, 5, 1100), (1, 5, 2100), (2, 5, 1), (2, 5, 3), (0, 5, 3), (1, 7, 1)]:
        reps = [rng.getrandbits(1 << m) for _ in range(count)]
        got = batch_coset_enumerators(reps, r, m)
        assert got == [slow_coset_enumerator(rep, r, m) for rep in reps]


def test_histograms_are_palindromic():
    # every coset of R(r,m) is closed under complement, so hist[w] = hist[n - w]
    rng = random.Random(41)
    for r, m in [(0, 3), (0, 6), (1, 5), (2, 5), (1, 7), (2, 6)]:
        hists = coset_histograms([rng.getrandbits(1 << m) for _ in range(9)], r, m)
        assert (hists == hists[:, ::-1]).all()


def test_engine_matches_slow_reference_at_every_width(monkeypatch):
    # words of 1..8 bits (uint8), 16 (uint16), 32 (uint32), then 1, 2 and 4
    # 64-bit lanes, weights up to 256 at m = 8; one rep, six reps and the
    # all-ones rep. A low block of 3, 5 or 8 tables gives most codes several
    # segments, and batches here hold 3 segments of 2**m = 256 bits (more of
    # narrower words), so reps go alone or in small groups and longer sweeps
    # end on a partial batch
    rng = random.Random(47)
    for m in range(9):
        n = 1 << m
        for r in range(m + 1):
            if rm_dimension(r, m) > 12:
                continue
            reps = [rng.getrandbits(n) for _ in range(5)] + [(1 << n) - 1]
            want = [list(slow_coset_enumerator(rep, r, m).coeffs) for rep in reps]
            for low_bits in (_LOW_BITS, 3, 5, 8):
                with monkeypatch.context() as mp:
                    mp.setattr(cosetenum, "_LOW_BITS", low_bits)
                    mp.setattr(cosetenum, "_BATCH_BYTES", 3 << (low_bits + 5))
                    assert coset_histograms(reps[:1], r, m).tolist() == want[:1]
                    assert coset_histograms(reps, r, m).tolist() == want


@pytest.mark.parametrize("nseg", [2, 4])
@pytest.mark.parametrize("m", [5, 7, 8])
def test_batches_group_reps_and_split_one_rep(monkeypatch, m, nseg):
    # R(1,m) sweeps m tables: a low block of 2**low words and nseg Gray
    # segments. Batches of 3 * nseg + 1 segments of words and of int64 keys
    # take the 7 reps in groups of 3, each group's segments in one batch,
    # and a one-rep tail; batches of nseg - 1 segments of words (at least 1)
    # take each rep alone over two batches or more, summed in one pair
    # histogram up to m = 7 (uint32 words at m = 5, two lanes at m = 7) and
    # as int64 weights at m = 8
    rng = random.Random(59 + m + nseg)
    n = 1 << m
    low = m - (nseg.bit_length() - 1)
    reps = [rng.getrandbits(n) for _ in range(6)] + [(1 << n) - 1]
    want = [list(slow_coset_enumerator(rep, 1, m).coeffs) for rep in reps]
    segments = []

    def half_spans(base, rows):
        lo, hi = xor_half_spans(base, rows)
        segments.append(len(lo) * len(hi))
        return lo, hi

    monkeypatch.setattr(cosetenum, "xor_half_spans", half_spans)
    monkeypatch.setattr(cosetenum, "_LOW_BITS", low)
    words = (1 << low) * max(1, n // 8)
    keys = (1 << low) * 8
    for batch_bytes in ((3 * nseg + 1) * max(words, keys), max(1, nseg - 1) * words):
        monkeypatch.setattr(cosetenum, "_BATCH_BYTES", batch_bytes)
        assert coset_histograms(reps, 1, m).tolist() == want
    assert segments == [nseg, nseg]


def test_histograms_check_their_totals(monkeypatch):
    # a basis table listed twice sweeps every word twice
    masks = cosetenum.rm_basis_masks
    monkeypatch.setattr(cosetenum, "rm_basis_masks", lambda r, m: masks(r, m) + masks(r, m)[-1:])
    with pytest.raises(ValueError, match="does not total 2\\*\\*22"):
        coset_histograms([0, 1], 2, 6)


def test_rep_argument_forms_agree():
    f = parse_anf("123", 4)
    bits = truth_table_from_anf(f).bits
    a = coset_enumerator(f, 2, 4)
    b = coset_enumerator(truth_table_from_anf(f), 2, 4)
    c = coset_enumerator(bits, 2, 4)
    assert a == b == c


def test_batch_matches_singles():
    rng = random.Random(23)
    reps = [rng.getrandbits(32) for _ in range(7)]
    batch = batch_coset_enumerators(reps, 2, 5)
    for rep, got in zip(reps, batch):
        assert got == coset_enumerator(rep, 2, 5)


def test_histograms_are_the_batch_rows():
    rng = random.Random(31)
    reps = [rng.getrandbits(32) for _ in range(5)]
    hists = coset_histograms(reps, 2, 5)
    assert hists.dtype == np.int64 and hists.shape == (5, 33)
    assert [WeightEnumerator(32, h) for h in hists.tolist()] == batch_coset_enumerators(reps, 2, 5)
    assert coset_histograms([], 2, 5).shape == (0, 33)


@pytest.mark.parametrize("nreps", [1, 3])
def test_packed_words_give_the_rows_of_their_ints(nreps):
    # nreps random words and the all-ones word; R(2,6) sweeps 32 segments;
    # R(1,5) packs 32-bit words into one lane and R(1,8) 256-bit words into four
    rng = random.Random(53 + nreps)
    for r, m in [(2, 6), (1, 5), (1, 8)]:
        n = 1 << m
        reps = [rng.getrandbits(n) for _ in range(nreps)] + [(1 << n) - 1]
        packed = packed_words(reps, m)
        want = coset_histograms(reps, r, m)
        assert (coset_histograms(packed, r, m) == want).all()
        got = batch_coset_enumerators(packed, r, m)
        assert got == batch_coset_enumerators(reps, r, m)
        assert [list(enum.coeffs) for enum in got] == want.tolist()
    assert coset_histograms(np.zeros((0, 1), dtype="<u8"), 2, 5).shape == (0, 33)


def test_packed_words_are_checked_before_any_sweep(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran before the packed words were checked")

    monkeypatch.setattr(cosetenum, "_gray_histograms", forbidden)
    good = np.ones((2, 2), dtype="<u8")
    for bad, match in [
        (good[:, :1], "shape"),
        (np.ones((2, 4), dtype="<u8"), "shape"),
        (good[0], "shape"),
        (good.astype(np.int64), "dtype"),
        (good.astype(">u8"), "dtype"),
        (good.astype(np.uint32), "dtype"),
    ]:
        with pytest.raises(ValueError, match=match):
            coset_histograms(bad, 1, 7)
    # a 32-bit word has no bit 32; 64-bit lanes use every bit
    with pytest.raises(ValueError, match="wider than the code length"):
        batch_coset_enumerators(np.array([[1], [1 << 32]], dtype="<u8"), 1, 5)
    with pytest.raises(ValueError, match="wider than the code length"):
        coset_histograms(np.array([[2]], dtype="<u8"), 0, 0)


def test_sweeps_take_no_jobs():
    # every sweep is serial and takes no worker count
    with pytest.raises(TypeError, match="jobs"):
        coset_histograms([0], 2, 5, jobs=1)


@pytest.mark.parametrize("jobs", [0, -1])
def test_coset_histograms_rejects_jobs_below_one(monkeypatch, jobs):
    # values once refused by the jobs check are now refused with the keyword
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran before the keyword was refused")

    monkeypatch.setattr(cosetenum, "_gray_histograms", forbidden)
    for reps in ([0], []):
        with pytest.raises(TypeError, match="jobs"):
            coset_histograms(reps, 2, 5, jobs=jobs)


@pytest.mark.parametrize("m", [-1, 17, 40])
def test_m_past_max_m_is_refused_before_packing(monkeypatch, m):
    # R(0,40) is under the codeword cap (dim 1), but its one 2**40-bit word
    # would be packed into 2**37 bytes
    def forbidden(*args, **kwargs):
        raise AssertionError("reps were packed before the m check")

    monkeypatch.setattr(cosetenum, "_packed_reps", forbidden)
    monkeypatch.setattr(cosetenum, "_gray_histograms", forbidden)
    with pytest.raises(ValueError, match=f"m={m} out of range 0..16"):
        coset_histograms([0], 0, m)
    with pytest.raises(ValueError, match=f"m={m} out of range 0..16"):
        coset_enumerator(0, 0, m)


def test_wide_words_sweep_a_block_within_the_batch_bytes():
    # a block of all 14 swept tables of R(1,14) would hold 2**14 words of
    # 2 KB, 32 MB, and as much again of batch buffer; the block is cut to
    # 2**8 words, 512 KB (_BATCH_BYTES), so the sweep stays within a few MB
    tracemalloc.start()
    try:
        got = coset_enumerator(0, 1, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = 1 << 14
    assert got == WeightEnumerator.from_pairs(n, [(0, 1), (n // 2, 2 * n - 2), (n, 1)])
    assert peak < 8 << 20


def test_affine_invariance():
    # W[z; (f o A) + R(r,m)] = W[z; f + R(r,m)] for affine A
    rng = random.Random(31)
    for _ in range(10):
        m = 4
        f = TruthTable(m, rng.getrandbits(1 << m))
        a = AffineMap(random_invertible(m, rng), rng.getrandbits(m))
        assert coset_enumerator(apply(f, a), 1, m) == coset_enumerator(f, 1, m)


def test_cap_violation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran past the cap")

    sweep = cosetenum._gray_histograms
    monkeypatch.setattr(cosetenum, "_gray_histograms", forbidden)
    # the fixed cap: 2**93 codewords of R(3,8) against 2**30
    with pytest.raises(ValueError, match="2\\*\\*93 codewords exceed the cap of 1073741824"):
        coset_enumerator(0, 3, 8)
    # the cap is read at call time and is inclusive: 2**16 words of R(2,5) run
    # under a cap of 2**16, 2**22 words of R(2,6) do not
    monkeypatch.setattr(cosetenum, "DEFAULT_CAP", 1 << 16)
    with pytest.raises(ValueError, match="2\\*\\*22 codewords exceed the cap of 65536"):
        coset_enumerator(0, 2, 6)
    monkeypatch.setattr(cosetenum, "_gray_histograms", sweep)
    assert coset_enumerator(0, 2, 5).total() == 1 << 16
