"""Weight distributions of R(r,m) assembled from classified cosets.

The identity driving everything: splitting codewords on the top variable
gives W[z; R(r,m)] = sum over p in H^(r)(m-1) of W^2[z; p + R(r-1,m-1)],
and the sum only needs one term per substitution class of p, weighted by
its orbit size. Each coset enumerator in turn splits on the next variable
down as a product-sum over H^(r-1)(m-2):

    W[z; (e + f x) + R(r-1,m-1)] =
        sum_g W[z; e+g + R(r-2,m-2)] * W[z; e+g+f + R(r-2,m-2)]

computed either directly over all g, or ("blocks") with g grouped by the
orbit partition above e so equal factors are fetched instead of recomputed;
then the number of polynomial multiplications per coset drops to the
merged block count. Both run on wenum's Kronecker kernel: each factor is
packed once into a big int with digits as wide as the exact total of the
product-sum (rounded up to whole bytes), the products are summed as ints,
and the sum is unpacked once, so one multiplication is one big-int product.

Unit translations fix e modulo lower degrees and move g only by the
derivatives of e, which span W_e, k = dim W_e (classify's module
docstring). So A_g = W[z; e+g + R(r-2,m-2)] is constant on the cosets of
W_e, and block tables live on V/W_e, V = H^(r-1)(m-2), whose 2**(N-k)
indices stand for one coset each, N = C(m-2, r-1). The product-sum over
g is 2**k times the sum over those indices s, with g+f read at s xor the
index of f's coset.

The product-sum is the XOR autocorrelation of A over GF(2)^N, so Parseval
collapses the whole outer sum over the f of one e:

    sum_f W^2[z; (e + f x) + R(r-1,m-1)] = 2**-N * sum_u Ahat_u**4,

where Ahat is the Walsh-Hadamard transform of A (MacWilliams & Sloane,
ch. 5 and 13). Ahat vanishes off W_e^perp, and on it Ahat is 2**k times
the transform Ahat' of A over V/W_e, so the sum is 2**(4k-N) * sum_u'
Ahat'_u'**4. A is constant on each merged block b of the partition above
e, so Ahat'_u' = sum_b chi_b(u') * A_b, with chi_b the transform of b's
indicator: only a 2**(N-k) x (merged blocks) table of small integers is
transformed. The partition keeps the constant [e o A]_{r-1} of every
stabilizer generator A: over GF(2), x**2 = x, so it is not zero even for
a linear A. Summed over the classes of e in H^(r)(m-2), weighted by size,
this is W[z; R(r,m)] without classifying H^(r)(m-1) at all.
run_pipeline takes that Fourier route for self-classified "blocks" runs,
and the class sum over H^(r)(m-1) for given classes or "direct"; its
docstring says what each route reads and counts, and names its guards:
fixed constants, never arguments.
"""

from __future__ import annotations

import contextlib
import glob
import os
import random
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .boolfn import (
    Anf,
    HomogeneousSpace,
    attach_top,
    decompose_top,
    format_anf,
    truth_table_from_anf,
    xor_half_spans,
    xor_span_array,
)
from .classify import (
    ClassRecord,
    Partition,
    QuotientClassification,
    capped_space,
    ingest_classification,
    merge_by_enumerator,
    quotient_index,
    quotient_leader,
    quotient_partition,
)
from .cosetenum import (
    capped_dimension,
    coset_histograms,
    packed_tables,
    packed_words,
    rm_dimension,
)
from .gf2 import AffineMap, Gf2Matrix, top_image
from .oracle import require_reference
from .wenum import (
    WeightEnumerator,
    _digit_width,
    _header,
    _kronecker_pack,
    _kronecker_unpack,
    _read_headed,
    square,
    write_distribution,
)

FOURIER_LABEL = "big-int multiplications (squarings, Fourier route)"
# Schreier generators drawn per lower class by run_pipeline. Any subgroup of
# a stabilizer gives blocks that refine its orbits, which merge_by_enumerator
# joins back by their count rows, so outputs do not depend on the budget. At
# 12 the raw partitions of every lower class of R(3,6)..R(2,9) (seeds 0-9) and
# R(4,8) (seeds 0-3) equal those at DEFAULT_MAX_GENS; 8 split one of R(4,8)
# into 25 blocks instead of 12 (seed 0).
PIPELINE_MAX_GENS = 12
_SWEEP_CHUNK = 1 << 10


@dataclass
class MulCounter:
    """Multiplications a run performed; label names what was counted."""

    count: int = 0
    label: str = "polynomial multiplications"

    def tick(self, n: int = 1):
        self.count += n


def coset_enum_split(
    e: Anf, f: Anf, r: int, m: int, counter: MulCounter | None = None
) -> WeightEnumerator:
    """W[z; (e + f x_{m+1}) + R(r+1,m+1)] as a product-sum over H^(r+1)(m).

    One Gray sweep of R(r,m) collects the enumerators of every coset
    e + g + R(r,m) at once, its packed words e XOR the XOR-doubling span
    of the monomial tables; the factor at g+f is then a lookup because
    adding f is XOR on packed indices. Each enumerator is packed into one
    big int once, and exactly 2**C(m,r+1) packed products are summed. A
    space past capped_space is refused before its span is built, and so is
    an e over another variable count than m.
    """
    if e.m != m:
        raise ValueError("e has the wrong variable count")
    if not e.is_zero() and not e.is_homogeneous(r + 2):
        raise ValueError("e must be homogeneous of degree r+2")
    if not f.is_zero() and not f.is_homogeneous(r + 1):
        raise ValueError("f must be homogeneous of degree r+1")
    space = capped_space(m, r + 1)
    e_word = packed_words([truth_table_from_anf(e).bits], m)[0]
    hists = coset_histograms(xor_span_array(e_word, packed_tables(space.masks, m)), r, m)
    f_idx = space.index_of(f)
    # every coset totals 2**dim, so the product-sum totals size * 2**(2*dim)
    width = _digit_width(space.size << (2 * rm_dimension(r, m)))
    packed = _kronecker_pack(hists, width)
    acc = 0
    for g in range(space.size):
        acc += packed[g] * packed[g ^ f_idx]
    if counter is not None:
        counter.tick(space.size)
    n = 1 << (m + 1)
    return WeightEnumerator(n, _kronecker_unpack(acc, n, width))


def coset_enum_blocks(
    f: Anf,
    partition: Partition,
    counts: np.ndarray,
    counter: MulCounter | None = None,
) -> WeightEnumerator:
    """Same value as coset_enum_split, using one multiplication per block.

    partition must be the (merged) orbit partition above e = partition.e,
    of V itself or of V/W for W = span(partition.basis), and counts its
    int64 count rows as merge_by_enumerator returns them; all g in a block
    share their factor, so the inner factor of block b is the sum, over the
    g of b, of the factor of the block holding g+f. Over V/W the sum over g
    runs over coset indices s: g+f lies in the coset of s xor the index of
    f, and each s stands for the 2**k members of its coset, k = len(basis).
    The rows are packed into big ints once, the inner sums are accumulated
    packed, and each block costs one big-int product, so the multiplication
    count equals the block count. Misshapen or negative rows raise ValueError.
    """
    nblocks = partition.block_count
    if counts.shape != (nblocks, (1 << partition.m) + 1):
        raise ValueError("need one row of 2**m + 1 counts per block")
    space = HomogeneousSpace(partition.m, partition.d)
    f_idx = quotient_index(partition.basis, space.index_of(f))
    block_of = partition.block_of.astype(np.int64)
    # (b, c, k): k indices g lie in block b with g+f in block c; an index of
    # V/W stands for the 2**len(basis) members of its coset
    keys, ks = np.unique(
        block_of * nblocks + block_of[np.arange(block_of.size) ^ f_idx], return_counts=True
    )
    rows, cols = np.divmod(keys, nblocks)
    pairs = list(zip(rows.tolist(), cols.tolist(), (ks << len(partition.basis)).tolist()))
    totals = [sum(row) for row in counts.tolist()]
    width = _digit_width(sum(totals[b] * k * totals[c] for b, c, k in pairs))
    packed = _kronecker_pack(counts, width)
    inner = [0] * nblocks
    for b, c, k in pairs:
        inner[b] += k * packed[c]
    acc = sum(p * q for p, q in zip(packed, inner))
    if counter is not None:
        counter.tick(nblocks)
    n = 2 << partition.m
    return WeightEnumerator(n, _kronecker_unpack(acc, n, width))


def _class_sum_term(r: int, m: int, tables, rec: ClassRecord):
    """The class-sum term size * W^2[z; rep + R(r+1,m+1)] of a class, and its multiplications.

    With tables None the coset enumerator is the plain product-sum over
    H^(r+1)(m); otherwise the rep must be rebased so that its lower part
    keys a block table, whose count rows coset_enum_blocks packs.
    """
    e, f = decompose_top(rec.rep)
    counter = MulCounter()
    if tables is None:
        enum = coset_enum_split(e, f, r, m, counter=counter)
    elif e in tables:
        enum = coset_enum_blocks(f, *tables[e], counter=counter)
    else:
        raise ValueError(f"representative {format_anf(rec.rep)} was not rebased onto a known form")
    return square(enum).scale(rec.size).coeffs, counter.count


def _checkpoint_path(directory: str, cid: int) -> str:
    return os.path.join(directory, f"class_{cid:05d}.txt")


_CHECKPOINT_KEYS = ("route", "class", "rep", "size")


def _checkpoint_header(cid: int, rec: ClassRecord, route) -> dict[str, str]:
    """The "# key value" lines after "# n" of a checkpoint: no route line when route is None."""
    header = {"class": str(cid), "rep": format_anf(rec.rep), "size": str(rec.size)}
    return header if route is None else {"route": route, **header}


def _check_header(path: str, header: dict, wanted: dict):
    """Raise unless header and wanted agree on every checkpoint key, absent ones included."""
    for key in _CHECKPOINT_KEYS:
        got, want = header.get(key), wanted.get(key)
        if got != want:
            raise ValueError(f"checkpoint {path} header {key!r} is {got!r}, expected {want!r}")


def _check_route(directory: str | None, route):
    """Refuse a checkpoint directory that holds a class file of another route.

    A route of None means the files carry no route line, and a second route
    line is refused. Runs before any classification, so a foreign directory
    costs no work.
    """
    if directory:
        for path in sorted(glob.glob(os.path.join(directory, "class_*.txt"))):
            with open(path) as fh:
                _check_header(path, _header(fh, ("route",)), {"route": route})


def _read_checkpoint(directory: str, cid: int, rec: ClassRecord, n: int, unit_total: int, route):
    """A finished class contribution, or None when the class has no checkpoint.

    The header must be the _checkpoint_header of this class and route, each
    key once, and the total rec.size times unit_total; a file that fails
    either check raises instead of changing the result. One open and one
    parse read both.
    """
    path = _checkpoint_path(directory, cid)
    if not os.path.exists(path):
        return None
    header, dist = _read_headed(path, _CHECKPOINT_KEYS)
    _check_header(path, header, _checkpoint_header(cid, rec, route))
    if dist.n != n:
        raise ValueError(f"checkpoint {path} has length {dist.n}, expected {n}")
    if dist.total() != rec.size * unit_total:
        raise ValueError(
            f"checkpoint {path} totals {dist.total()}, expected {rec.size * unit_total}"
        )
    return dist


def _write_checkpoint(directory: str, cid: int, rec: ClassRecord, term: WeightEnumerator, route):
    """Write term headed by its _checkpoint_header to a temp file, then rename it into place.

    The rename is atomic, so the checkpoint name only ever holds a whole
    file; a temp file left by an interrupted write is never read.
    """
    path = _checkpoint_path(directory, cid)
    comments = [f"{k} {v}" for k, v in _checkpoint_header(cid, rec, route).items()]
    write_distribution(path + ".tmp", term, comments)
    os.replace(path + ".tmp", path)


def _class_order(classes, d: int, m1: int) -> list[ClassRecord]:
    """Classes in checkpoint-id order (packed representative index).

    Raises unless the orbit sizes sum to 2**C(m1,d) and no representative
    repeats: two records of one class would count it twice.
    """
    space = HomogeneousSpace(m1, d)
    total = sum(rec.size for rec in classes)
    if total != space.size:
        raise ValueError(f"orbit sizes sum to {total}, expected 2**{space.nbits}")
    ordered = sorted(classes, key=lambda rec: space.index_of(rec.rep))
    for prev, rec in zip(ordered, ordered[1:]):
        if prev.rep == rec.rep:
            raise ValueError(f"two classes have representative {format_anf(rec.rep)}")
    return ordered


def distribution_from_classes(
    classes,
    contribution,
    n: int,
    finished: dict,
    jobs: int = 1,
    checkpoint: str | None = None,
    counter: MulCounter | None = None,
    route: str | None = None,
) -> WeightEnumerator:
    """Sum of the length-n terms of the ordered classes: finished[cid], else contribution(rec).

    classes is in checkpoint-id order (see _class_order) and finished maps
    the ids of the classes already summed to their terms; contribution(rec)
    returns the coefficients of any other class and the multiplications it
    took, which the counter sees. Each term is exact, so the result is
    identical for every jobs value. With a checkpoint directory every
    computed term is persisted, headed by route unless it is None. jobs < 1
    raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    contributions = dict(finished)
    if checkpoint:
        os.makedirs(checkpoint, exist_ok=True)
    pending = [cid for cid in range(len(classes)) if cid not in contributions]
    parallel = jobs > 1 and len(pending) > 1
    pool_cm = contextlib.nullcontext()
    if parallel:
        # imported here: multiprocessing adds about 1.5 MB to every import
        from concurrent.futures import ProcessPoolExecutor

        pool_cm = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))
    with pool_cm as pool:
        mapper = pool.map if parallel else map
        results = mapper(contribution, [classes[cid] for cid in pending])
        for cid, (coeffs, mults) in zip(pending, results):
            contributions[cid] = WeightEnumerator(n, coeffs)
            if counter is not None:
                counter.tick(mults)
            if checkpoint:
                _write_checkpoint(checkpoint, cid, classes[cid], contributions[cid], route)
    terms = [term.coeffs for term in contributions.values()]
    return WeightEnumerator(n, [sum(col) for col in zip(*terms)])


def rebase_representatives(classes, lookup: QuotientClassification) -> list[ClassRecord]:
    """Rewrite class representatives as e + f x so e is a class representative of lookup.

    Each representative splits as e' + f' x over the top variable; the
    inverse of lookup's transversal at e' is a substitution A of the lower
    variables carrying e' onto the representative of its class. The
    inverses of all the classes come from one walk of lookup's forest. The
    rebased representative is target + ([f' o A] top part) x, an equal-size
    member of the same class, so its coset enumerator is unchanged. A
    representative's transversal is the identity, so a class whose e' is
    already a representative comes back unchanged. Stabilizer gens are
    dropped: they belonged to the old representative.
    """
    splits = [decompose_top(rec.rep) for rec in classes]
    indices = [lookup.space.index_of(e1) for e1, _ in splits]
    _, inverses = lookup._walk((), indices)
    out = []
    for rec, (e1, f1), idx, rows in zip(classes, splits, indices, inverses.tolist()):
        target = lookup.records[int(lookup.class_of[idx])].rep
        a = AffineMap(Gf2Matrix(lookup.m, tuple(rows)), 0)
        if top_image(e1, a) != target:
            raise AssertionError("transversal failed to carry e onto its target")
        out.append(ClassRecord(rep=attach_top(target, top_image(f1, a)), size=rec.size, gens=()))
    return out


def _block_table(rec: ClassRecord, r: int, m0: int):
    """The merged block table above a class of H^(r)(m0): (merged partition, int64 count rows).

    The partition is the quotient_partition of V/W_e, V = H^(r-1)(m0), under
    the rep's stabilizer (singleton blocks when the rep has no gens); a row
    is the weight histogram of rep + g + R(r-2, m0) for the g of its block.
    The least V index of each raw block's least coset is swept, _SWEEP_CHUNK
    of them per sweep, and a chunk's rows are merged before the next is
    swept: the 2**18 singleton blocks above x1x2x3 in 7 variables take 0.75 s
    and 10.6 MB traced.
    """
    r0 = r - 2
    part = quotient_partition(rec.rep, rec.gens, r0, m0)
    # Truth tables are linear in the packed index: a leader's word is the
    # rep's word XOR one entry of each packed half span of the monomial tables.
    rep_word = packed_words([truth_table_from_anf(rec.rep).bits], m0)[0]
    lo, hi = xor_half_spans(rep_word, packed_tables(HomogeneousSpace(m0, r0 + 1).masks, m0))
    mask, shift = len(lo) - 1, len(lo).bit_length() - 1
    leaders = quotient_leader(part.basis, part.first)
    cuts = (leaders[i : i + _SWEEP_CHUNK] for i in range(0, len(leaders), _SWEEP_CHUNK))
    return merge_by_enumerator(
        part, (coset_histograms(lo[s & mask] ^ hi[s >> shift], r0, m0) for s in cuts)
    )


def _walsh_hadamard(table: np.ndarray):
    """Unnormalised Walsh-Hadamard transform of table over axis 0, in place."""
    rows, cols = table.shape
    half = 1
    while half < rows:
        view = table.reshape(-1, 2, half, cols)
        lo, hi = view[:, 0], view[:, 1]
        lo += hi  # a + b
        hi *= -2
        hi += lo  # (a + b) - 2b = a - b
        half *= 2


def _fourier_terms(r: int, m: int):
    """The per-class Fourier term of R(r,m), its run constants bound, and its unit total.

    Refuses a transform indexed past capped_space: block characters, like
    orbit partitions, are indexed by V/W_e, at most N = C(m-2, r-1) bits.
    A class's sum_u Ahat_u**4 totals 2**N * sum_f W^2 = 2**(4N + 4 dim
    R(r-2,m-2)), so its term totals size * unit_total. The digit width
    covers that sum and the result, 2**dim R(r,m); digit_ones has a 1 at
    the foot of every digit.
    """
    nbits, n = capped_space(m - 2, r - 1).nbits, 1 << m
    unit_total = 1 << (3 * nbits + 4 * rm_dimension(r - 2, m - 2))
    width = _digit_width(max(unit_total << nbits, 1 << rm_dimension(r, m)))
    digit_ones = sum(1 << (width * w) for w in range(n + 1))
    return partial(_fourier_distribution, r, m, nbits, width, digit_ones), unit_total


def _fourier_distribution(r, m, nbits, width, digit_ones, rec: ClassRecord):
    """A lower class's term s * 2**-N * sum_u Ahat_u**4 of W[z; R(r,m)], and its squarings.

    The class (rep e, size s) of H^(r)(m-2) builds its own block table over
    V/W_e, k = dim W_e, and Ahat'_u' = sum_b chi_b(u') * A_b as in the
    module docstring: only the 2**(N-k) x (merged blocks) indicator table
    is transformed, and each distinct chi row is formed once. The count
    rows are packed into big ints of _fourier_terms' digit width, so a
    fourth power is two squarings; equal Ahat' are powered once and
    weighted by their count. The term is s * 2**(4k-N) * sum_u'
    Ahat'_u'**4; when N > 4k the N - 4k low bits of every digit must be 0.
    Signed intermediate terms may carry between digits; the power sum has
    proper digits.
    """
    merged, rows = _block_table(rec, r, m - 2)
    size = merged.block_of.size
    # |chi_b(u)| <= 2**(N-k) <= 2**MAX_INDEX_BITS at every butterfly stage
    chi = np.zeros((size, merged.block_count), dtype=np.int32)
    chi[np.arange(size), merged.block_of] = 1
    _walsh_hadamard(chi)
    # Equal rows are found by their bytes: a void view sorts far faster
    # than np.unique(axis=0), which compares column by column.
    keys = chi.view(np.dtype((np.void, chi.shape[1] * chi.itemsize))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    chi_rows = chi[first].tolist()
    del chi, keys
    packed = _kronecker_pack(rows, width)
    hats: dict[int, int] = {}
    for row, count in zip(chi_rows, counts.tolist()):
        hat = sum(c * p for c, p in zip(row, packed) if c)
        hats[hat] = hats.get(hat, 0) + count
    power_sum = 0
    for hat, count in hats.items():
        hat *= hat
        power_sum += count * (hat * hat)
    shift = nbits - 4 * len(merged.basis)
    if power_sum < 0 or (shift > 0 and power_sum & digit_ones * ((1 << shift) - 1)):
        raise ValueError(
            f"Fourier sum of class {format_anf(rec.rep)} is not divisible by 2**{shift}"
        )
    power_sum = power_sum >> shift if shift > 0 else power_sum << -shift
    return _kronecker_unpack(rec.size * power_sum, 1 << m, width), 2 * len(hats)


def run_pipeline(
    r: int,
    m: int,
    classes=None,
    strategy: str = "blocks",
    seed: int = 0,
    jobs: int = 1,
    checkpoint: str | None = None,
    counter: MulCounter | None = None,
) -> WeightEnumerator:
    """Full W[z; R(r,m)] via the doubling recursion, r >= 2.

    Two routes give identical output, both ordered and validated by
    _class_order (sizes sum, no repeated representative) and summed by
    distribution_from_classes with per-class checkpoints and jobs workers:

    * Fourier (strategy "blocks", classes None): classify only H^(r)(m-2)
      and sum size * 2**(4k-N) * sum_u' Ahat'_u'**4 over its classes (see
      the module docstring), each class building its own block table over
      V/W_e. The counter counts big-int squarings, two per distinct
      Ahat'_u', and its label says so (FOURIER_LABEL). A transform indexed
      by H^(r-1)(m-2) past capped_space is refused before any
      classification.
    * Class sum (classes given as a list of ClassRecord or a file path, or
      "direct"): sum size * W^2[z; rep + R(r-1,m-1)] over the classes of
      H^(r)(m-1). "direct" self-classifies without stabilizers and runs
      each plain product-sum; "blocks" rebases representatives onto the
      lower forms before they are ordered, and reads block tables keyed by
      lower representative, built only for pending classes. The counter
      counts polynomial multiplications of the product-sums.

    The fixed PIPELINE_MAX_GENS caps the Schreier generators drawn per class
    of H^(r)(m-2), which orbit partitions read; each costs a pair of half
    action tables per partition. Fewer give finer raw blocks, whose count
    rows are swept in chunks of _SWEEP_CHUNK and merged by their bytes
    (merge_by_enumerator), so distributions, checkpoints and counts do not
    depend on it; 0 would give singleton partitions of V/W_e.
    A run whose sweeps of R(r-2, m-2) cosets pass the fixed
    cosetenum.DEFAULT_CAP is refused before any classification. Both
    "blocks" routes classify H^(r)(m-2) with QuotientClassification.compute,
    which draws no stabilizers, then draw into new records, in ascending
    class id, the generators of only the lower classes that a pending class
    reads: a fresh run draws what classify_quotient(r, m-2, rng,
    PIPELINE_MAX_GENS) would, a fully checkpointed run none. Of that
    classification the Fourier route reads only the records,
    (rep, size) in packed-rep order so that a position is a checkpoint id,
    and those stabilizer_gens(cid, rng, PIPELINE_MAX_GENS) calls, which may
    return no generators; any other source of lower classes must meet the
    same contract. seed seeds those draws and nothing else: the merged
    blocks, and so every output, do not depend on which generators are
    drawn.

    A checkpoint directory whose class files name another route is refused
    before any classification. Every checkpoint of the ordered classes is
    then read and checked, one open per file, before any stabilizer draw
    or block table, so a corrupt directory costs neither.

    The recursion peels two variables, so m >= 3 is required; use the brute
    oracle for anything smaller. The result is checked before it is
    returned against oracle.validate_reference: W_0 = W_n = 1, symmetry,
    total 2**dim R(r,m), minimum weight 2**(m-r) with min_weight_count
    words, and 2**k weight divisibility; a failure raises ValueError.
    """
    if not 2 <= r <= m or m < 3:
        raise ValueError(f"need 2 <= r <= m and m >= 3, got r={r} m={m}")
    if strategy not in ("direct", "blocks"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    m1, m0, r0 = m - 1, m - 2, r - 2
    capped_dimension(r0, m0)
    rng = random.Random(seed)
    fourier = strategy == "blocks" and classes is None
    route = "fourier" if fourier else None
    _check_route(checkpoint, route)
    if fourier:
        contribution, unit_total = _fourier_terms(r, m)
        if counter is not None:
            counter.label = FOURIER_LABEL
    else:
        if isinstance(classes, (str, os.PathLike)):
            classes, _, _ = ingest_classification(classes, expect_d=r, expect_m=m1)
        elif classes is None:
            # "direct" reads only reps and sizes, so it samples no stabilizers.
            classes = QuotientClassification.compute(r, m1).records
        unit_total = 1 << (2 * rm_dimension(r - 1, m1))
    if strategy == "blocks":
        lower = QuotientClassification.compute(r, m0)
        classes = lower.records if fourier else rebase_representatives(classes, lower)
    ordered = _class_order(classes, r, m0 if fourier else m1)
    finished = {}
    if checkpoint:
        for cid, rec in enumerate(ordered):
            term = _read_checkpoint(checkpoint, cid, rec, 1 << m, unit_total, route)
            if term is not None:
                finished[cid] = term
    pending = [cid for cid in range(len(ordered)) if cid not in finished]
    if strategy == "direct":
        contribution = partial(_class_sum_term, r0, m0, None)
    else:
        # A Fourier class reads its own block table, a class-sum class the
        # one of its rebased lower part. Stabilizers are drawn, in ascending
        # lower class id, only for the lower classes that a pending class
        # reads; rebasing needs only transversals.
        if fourier:
            wanted = pending
        else:
            cid_of = {rec.rep: cid for cid, rec in enumerate(lower.records)}
            wanted = {cid_of[decompose_top(ordered[cid].rep)[0]] for cid in pending}
        tables = {}
        for cid in sorted(wanted):
            gens = lower.stabilizer_gens(cid, rng, PIPELINE_MAX_GENS)
            rec = replace(lower.records[cid], gens=gens)
            if fourier:
                ordered[cid] = rec
            else:
                tables[rec.rep] = _block_table(rec, r, m0)
        if not fourier:
            contribution = partial(_class_sum_term, r0, m0, tables)
    dist = distribution_from_classes(
        ordered, contribution, 1 << m, finished, jobs, checkpoint, counter, route
    )
    require_reference(dist, r, m)
    return dist
