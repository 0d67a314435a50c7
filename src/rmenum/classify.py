"""Orbit classification of homogeneous forms and of cosets above a fixed form.

Two group actions live here, both on packed form indices:

  * QuotientClassification.compute partitions H^(d)(m) under GL(m,2)
    acting by g -> [g o A]_d (top-degree part of the substitution), with
    orbit representatives and sizes; classify_quotient adds
    Schreier-derived stabilizer generators for every class, and
    equivalence decides whether two forms are equivalent from the class
    map, with two transversals for the map;
  * quotient_partition partitions V/W_e, V = H^(r+1)(m), under a set of
    stabilizer elements of e, where A sends the coset (e+g) + R(r,m) to
    (e+g') + R(r,m) with g' = [e o A]_{r+1} xor [g o A]_{r+1}.

A unit translation T_i fixes every top part, so it moves g only by the
constant w_i = [e o T_i]_{r+1}, the derivative of e in x_i. W_e is the
span of these constants, k = dim W_e. The linear part M of every
stabilizer element A maps W_e onto itself: the derivative of e o A = e +
(lower terms) along c shows that M carries w_(Mc) to w_c, where w_c is
the degree-(r+1) part of the derivative of e along c. So each element
permutes V/W_e, and
translations act on it as the identity: a partition of V/W_e under the
stabilizer generators alone is the partition of V under the generators and
the translations, coset by coset. V/W_e is indexed by reduced vectors: a
reduced echelon basis of W_e (pivot = top bit) clears the pivot bits of g,
which leaves the least member of g's coset, and dropping the pivot bits
packs it into N - k bits (quotient_index; quotient_leader puts the zeros
back). The basis comes from gf2._echelon, the elimination that
Gf2Matrix.rank and inverse read too. Because x**2 = x over GF(2),
[e o A]_{r+1} is not zero even for a linear stabilizer element, so every
action keeps its constant.

Both actions are affine over GF(2) in the packed coefficient vector, so a
generator splits exactly into two half tables over its N index bits, and
one function, _half_tables, builds them for both actions: lo, the
constant plus the span of the low N // 2 columns, and hi, the span of the
rest, each filled by XOR-doubling over the images of the basis monomials.
It stacks the tables of all of a closure's generators, one intp row per
generator, so the image of g under generator i is lo[i, g % L] ^ hi[i, g
// L] with L = lo.shape[1] (a permutation p of the indices fits with L =
len(p) and a zero column as hi): a generator costs 2**(N//2) + 2**(N -
N//2) entries, never 2**N, closure is array chasing, and every reader
takes the stack's rows in place. The image of a basis monomial is the
product of the map's substituted variable tables (gf2.substituted_tables),
read as an ANF after one Mobius transform; no step walks the 2**m points
of a truth table.

Every table is a permutation of its index space: GL generators and
stabilizer generators, which must be invertible, act bijectively. So the
BFS closure needs no dedup and no sort per level; it keeps the whole
forest in one small array, via, where via[v] is 0 for an index not
reached yet, 1 for a seed and 2 + gi when generator gi first reached v
from the level above. The fresh check and the write touch only that
array, and the class map is written one BFS level at a time in the
narrowest unsigned type that holds the block count. Per index the
closure keeps 1 byte of via plus the class map, 1 byte up to 256 blocks,
and no member list: a block is known by its seed, which is its least
index, and its size. Bijectivity rests on the GL generators and on the
invertibility check of every stabilizer generator in quotient_partition:
the closure's check that the block sizes sum to the space size catches a
table that is not injective only when two colliding images fall into one
take.

A level keeps the range that each generator reached. A generator that is
its own inverse (_is_involution: shift 0 and M @ M = I, read from the
group element, never from its table) skips its own range, since it sends
each of those nodes back to its parent; only a level too large for one
gather over all generators is taken generator by generator, which is
where the skip pays. The transvection of GL(m,2) is one and first
reaches about 45 % of all indices (935,047 of the 2**21 of H^(2)(7)), so
its back-edges are close to a quarter of all the images gathered. A
wrongly flagged table would split blocks yet keep their sizes summing to
the space size, which is why no table is trusted as an involution on its
own.

No class is listed for its Schreier draws either: all of a class's
attempts are drawn up front and only their members read, in one scan of
the class map; a sampler that stops early rewinds the rng and redraws
the attempts it used. The parent of v is the unique preimage of v under
gens[via[v] - 2], one lookup in the half tables of that generator's
inverse. The sampler skips an attempt y -> ys by generator s that
retraces a BFS tree edge (via[ys] == 2 + s), or the reverse edge of an
involution (via[y] == 2 + s): its Schreier element is the identity.
Every other y and ys of the class climbs the forest in one numpy walk,
which builds t_y^T and t_ys^-1 by one gather per step, and every t_y @ s
@ t_ys^-1 is formed at once and deduplicated on packed rows; a Gf2Matrix
and an AffineMap are built only for the generators emitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import numpy as np

from .boolfn import (
    Anf,
    HomogeneousSpace,
    format_anf,
    homogeneous_part,
    mobius_transform,
    parse_anf,
    xor_half_spans,
    xor_span_array,
)
from .gf2 import (
    AffineMap,
    Gf2Matrix,
    _echelon,
    _product_rows,
    _row_products,
    as_affine,
    stabilizer_check,
    substitute,
    substituted_tables,
    top_image,
)
from .wenum import _decimal, _header, _opened

MAX_INDEX_BITS = 25
DEFAULT_MAX_GENS = 64
_SCAN_WINDOW = 1 << 12
# Images gathered per take in _close_orbits. The closures of H^(3)(6) and
# H^(2)(7) together take 56 ms at 2**13, 58 ms at 2**12 and 2**15, and their
# traced peaks are 2.9 and 6.8 MB at 2**13 against 3.5 and 7.4 MB at 2**15;
# R(4,8)'s partitions run in the same time at both. Class-map entries
# scanned per chunk in QuotientClassification._members_at: sampling 64
# generators per class is 3 ms slower at 2**13 than at 2**15.
_GATHER_WINDOW = 1 << 13
_MEMBER_CHUNK = 1 << 15


def capped_space(m: int, d: int) -> HomogeneousSpace:
    """H^(d)(m), refused when its packed indices take more than MAX_INDEX_BITS bits."""
    space = HomogeneousSpace(m, d)
    if space.nbits > MAX_INDEX_BITS:
        raise ValueError(
            f"H^({d})({m}) has 2**{space.nbits} forms, past the cap of 2**{MAX_INDEX_BITS}"
        )
    return space


def gl2_generators(m: int) -> list[Gf2Matrix]:
    """A transvection (x1 <- x1+x2) and a cyclic shift; they generate GL(m,2)."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return [Gf2Matrix.identity(1)]
    transvection = list(Gf2Matrix.identity(m).rows)
    transvection[0] = 0b11
    shift = tuple(1 << ((k + 1) % m) for k in range(m))
    return [Gf2Matrix(m, tuple(transvection)), Gf2Matrix(m, shift)]


def _substitution(a: AffineMap, m: int):
    """image(masks): the ANF indicator of the sum of the monomials masks after substituting a.

    The substituted variable tables are built once; each image is a product
    of them and one Mobius transform.
    """
    subs = substituted_tables(a)
    return lambda masks: mobius_transform(substitute(masks, subs, m), m)


def _half_tables(space: HomogeneousSpace, maps, e: Anf | None = None, basis=()):
    """Stacked half tables (lo, hi) of g -> [e o A]_d xor [g o A]_d over V/W, row i for maps[i].

    V = space and W is the span of basis, a reduced echelon basis (empty
    for V itself), so index s stands for the coset of quotient_leader(basis,
    s). The action is affine in the packed vector: column j holds the
    reduced image of the j-th non-pivot monomial and the constant comes from
    e (zero when e is None). With k = N // 2 for N columns, lo spans the
    constant and columns 0..k-1 and hi the other columns, so the image of g
    under maps[i] is lo[i, g % L] ^ hi[i, g // L] with L = 2**k. All maps
    are spanned side by side (boolfn.xor_half_spans), one XOR per column for
    all, and come back as two intp arrays of one row per map, the index type
    _close_orbits gathers with. No map is checked here: the caller vouches
    that each is invertible and, with e given, fixes e modulo lower degrees
    (quotient_partition runs gf2.stabilizer_check first).
    """
    pivots = {w.bit_length() - 1 for w in basis}
    free = [mask for j, mask in enumerate(space.masks) if j not in pivots]
    consts, cols = [], []
    for a in maps:
        image = _substitution(a, space.m)
        const = 0 if e is None else space.index_of_indicator(image(e.monomials))
        consts.append(quotient_index(basis, const))
        cols.append(
            [quotient_index(basis, space.index_of_indicator(image((mask,)))) for mask in free]
        )
    lo, hi = xor_half_spans(np.array(consts, dtype=np.intp), np.array(cols, dtype=np.intp).T)
    return np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)


def quotient_index(basis, g):
    """Index in V/W of the coset of g, W spanned by a reduced echelon basis (pivots descending).

    Clearing every pivot bit of g gives the least member of its coset;
    dropping the pivot bits then packs it. g is an int or an integer array.
    """
    for w in basis:
        g = g ^ (g >> (w.bit_length() - 1) & 1) * w
    for w in basis:
        pivot = w.bit_length() - 1
        g = (g & ((1 << pivot) - 1)) | (g >> (pivot + 1) << pivot)
    return g


def quotient_leader(basis, s):
    """Least member of the coset of index s in V/W: s with a zero put back at every pivot bit.

    The inverse of quotient_index on reduced vectors, and increasing in s.
    """
    for w in reversed(basis):
        pivot = w.bit_length() - 1
        s = (s & ((1 << pivot) - 1)) | (s >> pivot << (pivot + 1))
    return s


def _next_unassigned(via: np.ndarray, start: int) -> int:
    """Least index >= start not reached yet (via 0), or the space size if none.

    Scans fixed-size windows so no temporary grows with the space.
    """
    size = via.size
    while start < size:
        window = via[start : start + _SCAN_WINDOW] == 0
        k = int(window.argmax())
        if window[k]:
            return start + k
        start += _SCAN_WINDOW
    return size


def _is_involution(a: AffineMap) -> bool:
    """True when a has shift 0 and M @ M = I, so a applied twice is the identity.

    Sufficient, not necessary: a shifted involution (M @ M = I, M b = b, as
    x1 <- x1 + x2 with b = x3 in m = 4) reads False, which only gives up the
    closure's skip. Every map flagged today has shift 0: the GL generators,
    the Schreier elements and the file generators. The induced action on
    form indices is a group action, so a flagged element's table is an
    involution; _close_orbits trusts a flag only from here, never a table.
    """
    rows = a.matrix.rows
    return a.shift == 0 and _product_rows(rows, rows) == Gf2Matrix.identity(a.m).rows


def _level_images(frontier, lo, hi, mask: int, shift: int, skip):
    """Images of frontier under the generator (lo, hi), leaving out the range skip.

    Yields one array per take of at most _GATHER_WINDOW nodes.
    """
    for start, stop in ((0, skip[0]), (skip[1], frontier.size)):
        for part in range(start, stop, _GATHER_WINDOW):
            nodes = frontier[part : min(part + _GATHER_WINDOW, stop)]
            images = lo.take(nodes & mask)
            images ^= hi.take(nodes >> shift)
            yield images


def _close_orbits(tables, size: int, involutive=()):
    """BFS closure over the whole index space; orbits appear in seed order.

    tables is one stacked pair (lo, hi) of intp arrays, one row per
    generator, as _half_tables returns it: the image of v under generator
    gi is lo[gi, v % L] ^ hi[gi, v // L] with L = lo.shape[1], a power of
    two or at least size (then hi is zeros: permutations p_i of the indices
    are the pair (stack of the p_i, one zero column)). involutive flags, per
    generator in order, those that are their own inverse (see
    _is_involution); missing flags read False. Returns (block_of, first,
    sizes, via): the block of each index, each block's least index and
    size, and the BFS forest as one mark per index (0 unreached, 1 seed, 2
    + gi reached by generator gi from the level above). via is uint8
    unless there are more than 254 generators; block_of is the narrowest
    unsigned type that holds the block count, uint8 until a 257th block
    widens it. So the closure keeps 2 bytes per index for up to 254
    generators and 256 blocks, and no member list: block_of is written one
    BFS level at a time, a block's size is the sum of its level sizes, and
    its least index is its seed, since _next_unassigned hands out seeds in
    ascending order and every smaller index already lies in an earlier block.

    A level is one array, gathered generator-major, and the range that
    each generator reached is kept. A level of at most _GATHER_WINDOW
    images in all is gathered for every generator in one pair of takes
    along the rows of the stack. A larger one is gathered generator by
    generator in takes of at most _GATHER_WINDOW nodes, and an involution
    skips its own range there: the image of such a node is its parent,
    already marked (in a small level those images are tested and fail).
    The fresh test and the marks go generator by generator, and for one
    generator the fresh set of a level does not depend on the node order,
    so via, block_of and the sizes are those of the plain closure. Every
    table is a permutation, so one generator's fresh images are distinct
    and only via is read and written per image. The block sizes must sum
    to the space size, but a table that is not injective breaks that sum
    only when two colliding images fall into one take; images that collide
    across takes are each marked once. So bijectivity rests on the
    invertibility check of every generator, never on this sum, just as
    involution flags come from the group elements: a wrongly flagged table
    would split blocks and keep the sum.
    """
    lo, hi = tables
    ngens = len(lo)
    shift = (lo.shape[1] - 1).bit_length()
    mask = (1 << shift) - 1
    flags = list(involutive) + [False] * (ngens - len(involutive))
    via = np.zeros(size, dtype=np.min_scalar_type(ngens + 1))

    def grow(frontier, segments):
        """Mark the fresh images of a level in via; returns them and each generator's range."""
        if frontier.size * ngens <= _GATHER_WINDOW:
            batch = lo.take(frontier & mask, axis=1)
            batch ^= hi.take(frontier >> shift, axis=1)
            per_gen = [(images,) for images in batch]
        else:
            skips = {gi: span for gi, span in segments.items() if flags[gi]}
            per_gen = [
                _level_images(frontier, lo[gi], hi[gi], mask, shift, skips.get(gi, (0, 0)))
                for gi in range(ngens)
            ]
        grown, reached, at = [], {}, 0
        for gi, chunks in enumerate(per_gen):
            begin = at
            for images in chunks:
                vals = images[via[images] == 0]
                if vals.size:
                    via[vals] = 2 + gi
                    grown.append(vals)
                    at += vals.size
            if at > begin:
                reached[gi] = (begin, at)
        return grown, reached

    block_of = np.empty(size, dtype=np.uint8)
    first, sizes = [], []
    seed = _next_unassigned(via, 0)
    while seed < size:
        bid = len(first)
        if bid > np.iinfo(block_of.dtype).max:
            block_of = block_of.astype(np.min_scalar_type(bid))
        via[seed] = 1
        frontier = np.array([seed], dtype=np.intp)
        segments = {}  # generator -> (start, stop) of the nodes it reached in frontier
        count = 0
        while frontier.size:
            block_of[frontier] = bid
            count += frontier.size
            grown, segments = grow(frontier, segments)
            # drop the finished level before joining the next, and the pieces after
            frontier = None
            frontier = np.concatenate(grown) if grown else np.empty(0, dtype=np.intp)
            del grown
        first.append(seed)
        sizes.append(count)
        seed = _next_unassigned(via, seed + 1)
    total = sum(sizes)
    if total != size:
        raise ValueError(f"orbit sizes sum to {total}, not {size}: a table is not a permutation")
    return block_of, np.array(first, dtype=np.uint32), np.array(sizes, dtype=np.int64), via


@dataclass(frozen=True)
class ClassRecord:
    rep: Anf
    size: int
    gens: tuple[AffineMap, ...] = ()


@dataclass
class Partition:
    """Blocks of the packed degree-d indices of V = H^(d)(m) above a fixed form e.

    The blocks are taken modulo W, the span of basis, a reduced echelon
    basis (pivots descending; empty for a partition of V itself): index s
    stands for the coset of quotient_leader(basis, s), and every member of
    a coset lies in its block. block_of[s] is the block of index s and
    first[b] the least index of block b. Blocks are numbered by their least
    index, so first ascends.
    """

    e: Anf
    d: int
    m: int
    block_of: np.ndarray
    first: np.ndarray
    basis: tuple[int, ...] = ()

    @property
    def block_count(self) -> int:
        return len(self.first)


def _translation_basis(e: Anf, space: HomogeneousSpace) -> tuple[int, ...]:
    """Reduced echelon basis of W_e, spanned by the unit-translation constants [e o T_i]_d.

    For e homogeneous of degree d + 1, e(x + e_i) is e plus its derivative
    in x_i, which is of degree d: the monomials of e holding x_i, with x_i
    taken out.
    """
    consts = []
    for i in range(space.m):
        bit = 1 << i
        derivative = Anf(space.m, frozenset(mask ^ bit for mask in e.monomials if mask & bit))
        consts.append(space.index_of(derivative))
    return _echelon(consts)


def quotient_partition(e: Anf, gens, r: int, m: int) -> Partition:
    """Partition of V/W_e, V = H^(r+1)(m), under the group the gens generate.

    e must be homogeneous of degree r+2 (or zero), and every generator must
    be invertible and fix e modulo lower degrees: gf2.stabilizer_check
    tests them all in one pass before _half_tables stacks their pairs of
    half tables over the N - k index bits of V/W_e. Unit translations act
    as the identity on V/W_e, so their orbits come for free (see the module
    docstring); with no gens every index is its own block.
    """
    if e.m != m:
        raise ValueError("e has the wrong variable count")
    space = capped_space(m, r + 1)
    HomogeneousSpace(m, r + 2).index_of(e)  # refuses an e of another degree
    basis = _translation_basis(e, space)
    size = 1 << (space.nbits - len(basis))
    maps = [as_affine(g) for g in gens]
    if maps:
        if not stabilizer_check(e, *maps):
            raise ValueError(f"a generator does not stabilize {format_anf(e)}")
        tables = _half_tables(space, maps, e, basis)
        block_of, first, _, _ = _close_orbits(tables, size, [_is_involution(a) for a in maps])
        block_of = block_of.astype(np.int32)
    else:
        block_of, first = np.arange(size, dtype=np.int32), np.arange(size, dtype=np.uint32)
    return Partition(e=e, d=r + 1, m=m, block_of=block_of, first=first, basis=basis)


def orbit_partition(e: Anf, gens, r: int, m: int) -> Partition:
    """Partition of all H^(r+1)(m) indices under the gens and the unit translations.

    The quotient_partition expanded to V: the block of g is the block of
    its coset, and the least member of a block is the leader of its least
    coset. So passing the GL generators for e = 0 yields the full
    affine-orbit partition. Every generator must pass stabilizer_check.
    """
    quotient = quotient_partition(e, gens, r, m)
    indices = np.arange(HomogeneousSpace(m, r + 1).size, dtype=np.int64)
    return Partition(
        e=e,
        d=r + 1,
        m=m,
        block_of=quotient.block_of[quotient_index(quotient.basis, indices)],
        first=quotient_leader(quotient.basis, quotient.first),
    )


def merge_by_enumerator(partition: Partition, chunks) -> tuple[Partition, np.ndarray]:
    """Union blocks whose count rows (coset weight histograms) are equal.

    chunks yields int64 row arrays aligned with the blocks of partition, cut
    anywhere. One dict across chunks keys rows by their bytes and numbers
    groups by first occurrence; as blocks are numbered by least index, so
    are the merged ones. Returns the merged partition and its int64 rows,
    the distinct polynomials that the product-sums pack into big ints.
    """
    gid, ids = {}, [np.empty(0, dtype=np.int32)]
    for chunk in chunks:
        chunk = np.ascontiguousarray(chunk, dtype=np.int64)
        keys = chunk.view(np.dtype((np.void, chunk.shape[1] * 8))).ravel().tolist()
        ids.append(np.array([gid.setdefault(key, len(gid)) for key in keys], dtype=np.int32))
    group = np.concatenate(ids)
    if group.size != partition.block_count:
        raise ValueError("one row per block required")
    # the first block of each group, in group order
    lead = np.unique(group, return_index=True)[1]
    merged = replace(partition, block_of=group[partition.block_of], first=partition.first[lead])
    return merged, np.frombuffer(b"".join(gid), dtype=np.int64).reshape(len(gid), -1).copy()


class QuotientClassification:
    """Classes of H^(d)(m) under GL(m,2) with transversal bookkeeping.

    Keeps the BFS forest of the closure as its via marks, together with
    the half tables of the generators and of their inverses, so any form
    can be written as (class representative) acted on by an explicit
    matrix, which is what representative rebasing needs. A node's parent
    is its preimage under the generator that reached it: one lookup in the
    half tables of that generator's inverse, which _walk makes for many
    nodes at once. Representatives are the least packed index of each
    class; classes are numbered in representative order, and class_of[idx]
    is the class of index idx, in the narrowest unsigned type that holds
    the class count (uint8 for every space under the cap today). Per index
    the object keeps 1 byte of via plus class_of, and no member list.
    compute is the closure alone, and its records carry no generators.
    Stabilizer generators are drawn per class by
    stabilizer_gens: classify_quotient calls it for every class in class
    order, and a caller that needs only some stabilizers calls it for
    those. A draw reads only the drawn members of its class (see
    _members_at), so no member array is built.
    """

    def __init__(
        self, d, m, space, class_of, via, halves, gens, inverses, involutive, first, sizes
    ):
        self.d = d
        self.m = m
        self.space = space
        self.records = [
            ClassRecord(rep=space.anf_of(int(s)), size=int(n)) for s, n in zip(first, sizes)
        ]
        self.class_of = class_of
        self._via = via
        self._first = first
        self.gens = gens
        self._involutive = np.array(involutive, dtype=bool)
        ngens = len(gens)
        # halves stacks the half tables of the gens, the identity and the
        # inverses. _walk reads one table: the identity's and the inverses'
        # half tables (lo halves, then hi halves), then linear tables of 2**m
        # entries, whose entry x is the XOR of a matrix's rows at the set bits
        # of x (the rows of A go to the rows of A @ matrix), of the identity
        # and every gens[gi]^T, then of the identity and every gens[gi]^-1.
        # Via marks 0 and 1 read the identity slots, so a walker at its seed
        # stays there, and mark 2 + gi reads slot 1 + gi; offsets[:, mark]
        # holds the starts of a mark's lo half, hi half and linear table (once
        # per row). The rows of an inverted walker, like the entries of its
        # linear tables, carry the offset self._inverted.
        self._halves = lo, hi = halves
        self._shift = space.nbits // 2
        self._mask = (1 << self._shift) - 1
        self._inverted = (1 + ngens) << m
        identity = Gf2Matrix.identity(m)
        mats = [identity, *(g.transpose() for g in gens), identity, *inverses]
        rows = np.array([a.rows for a in mats], dtype=np.intp)
        lin = xor_span_array(np.repeat([0, self._inverted], 1 + ngens), rows.T).T
        up_lo, up_hi = lo[ngens:].ravel(), hi[ngens:].ravel()
        self._table = np.concatenate([up_lo, up_hi, lin.ravel()])
        slot = np.maximum(np.arange(2 + ngens) - 1, 0)
        at_lin = up_lo.size + up_hi.size + (slot << m)
        starts = [slot * lo.shape[1], up_lo.size + slot * hi.shape[1]]
        self._offsets = np.array(starts + [at_lin] * m)
        self._identity_rows, self._transposes = rows[0], rows[1 : 1 + ngens]

    @staticmethod
    def compute(d: int, m: int) -> "QuotientClassification":
        """The GL(m,2) orbit closure of H^(d)(m); its records carry no generators."""
        space = capped_space(m, d)
        gens = gl2_generators(m)
        inverses = [g.inverse() for g in gens]
        maps = [AffineMap(g, 0) for g in (*gens, Gf2Matrix.identity(m), *inverses)]
        lo, hi = _half_tables(space, maps)
        involutive = [_is_involution(a) for a in maps[: len(gens)]]
        class_of, first, sizes, via = _close_orbits(
            (lo[: len(gens)], hi[: len(gens)]), space.size, involutive
        )
        return QuotientClassification(
            d, m, space, class_of, via, (lo, hi), gens, inverses, involutive, first, sizes
        )

    def stabilizer_gens(self, cid: int, rng: random.Random, max_gens: int) -> tuple:
        """Up to max_gens Schreier generators of the stabilizer of class cid's representative.

        The draws come from rng, so the generators of a class depend on the
        classes sampled before it from the same rng. All the walks of a
        class are one _walk call, and nothing is kept between classes. The
        drawn members come from one scan of the class map (see
        _members_at); a class of one member and max_gens 0 scan nothing.
        """
        _check_max_gens(max_gens)
        if max_gens == 0:
            return ()
        return tuple(self._schreier_sample(self.records[cid].rep, cid, rng, max_gens))

    def _members_at(self, cid: int, ranks: list[int]) -> np.ndarray:
        """The k-th least member of class cid for each k in ranks, in the order of ranks.

        The class map is scanned from the class seed, its least member, in
        chunks of _MEMBER_CHUNK entries, up to the chunk of the largest
        rank, so no member array of the class is built (the largest class
        of H^(2)(7) has 1,763,776 members, 7 MB as uint32).
        """
        ranks = np.array(ranks, dtype=np.int64)
        order = np.argsort(ranks, kind="stable")
        wanted = ranks[order]
        members = np.empty(ranks.size, dtype=np.intp)
        size, start = self.records[cid].size, int(self._first[cid])
        found = done = 0
        while done < ranks.size and found < size:
            hits = np.flatnonzero(self.class_of[start : start + _MEMBER_CHUNK] == cid) + start
            stop = int(np.searchsorted(wanted, found + hits.size))
            members[order[done:stop]] = hits[wanted[done:stop] - found]
            done, found = stop, found + hits.size
            start += _MEMBER_CHUNK
        if done < ranks.size:
            raise ValueError(f"class {cid} has {found} members, rank {wanted[-1]} asked")
        return members

    def transversal(self, idx: int) -> Gf2Matrix:
        """Matrix carrying the class representative of idx onto idx (see _walk)."""
        transposed, _ = self._walk([int(idx)], ())
        return Gf2Matrix(self.m, tuple(transposed[0].tolist())).transpose()

    def _walk(self, transposed, inverted) -> tuple[np.ndarray, np.ndarray]:
        """Rows of t_v^T for each v in transposed and of t_v^-1 for each v in inverted.

        t_v, the transversal of v, is the product of the edge generators on
        the BFS path from the class seed to v, in seed-to-v order: with e1
        ... ek the edges from v up to its seed, t_v = g_ek ... g_e1, so
        t_v^T = g_e1^T ... g_ek^T and t_v^-1 = g_e1^-1 ... g_ek^-1 both grow
        by right multiplication in walk order. All walkers climb together,
        one take per step: it maps each walker's rows through the linear
        table of its edge's generator, transposed or inverted, and moves it
        to its parent, the preimage under that generator. An identity slot
        keeps a walker at its seed, and the walk stops when every walker is
        there. Returns two int arrays of packed rows, shape (len, m).
        """
        nodes = np.array([*transposed, *inverted], dtype=np.intp)
        # a column per walker: the lo and hi parts of its node, then its rows
        state = np.empty((2 + self.m, nodes.size), dtype=np.intp)
        state[2:] = self._identity_rows[:, None]
        state[2:, len(transposed) :] += self._inverted
        via, table, offsets = self._via, self._table, self._offsets
        while True:
            at = offsets.take(via[nodes], axis=1)
            if not np.count_nonzero(at[0]):
                break
            np.bitwise_and(nodes, self._mask, out=state[0])
            np.right_shift(nodes, self._shift, out=state[1])
            state += at
            state = table.take(state)
            nodes = state[0] ^ state[1]
        rows = state[2:].T & ((1 << self.m) - 1)
        return rows[: len(transposed)], rows[len(transposed) :]

    def _schreier_sample(self, rep, cid, rng, max_gens):
        size = self.records[cid].size
        if size == 1:
            out = [AffineMap(mat, 0) for mat in self.gens]
            if not stabilizer_check(rep, *out):
                raise AssertionError("whole group should stabilize a fixed form")
            return out[:max_gens]
        # Each attempt draws rng.randrange(size), then rng.randrange(len(gens)).
        # All max_gens * 8 attempts are drawn up front, so only their members
        # are read; a sampler that stops early rewinds rng and redraws the
        # attempts it used, so rng ends where one draw per attempt leaves it.
        ngens, budget, m = len(self.gens), max_gens * 8, self.m
        # a copy holds the state in 2.5 KB, where getstate() is a tuple of 625 ints
        saved = random.Random()
        saved.setstate(rng.getstate())
        ranks, picks = [], []
        for _ in range(budget):
            ranks.append(rng.randrange(size))
            picks.append(rng.randrange(ngens))
        y, si = self._members_at(cid, ranks), np.array(picks)
        lo, hi = self._halves
        ys = lo[si, y & self._mask] ^ hi[si, y >> self._shift]
        # sigma = t_y @ gens[si] @ t_ys^-1 is the identity, which is never
        # emitted, when y -> ys is a BFS tree edge (t_ys = t_y @ gens[si]) or
        # the reverse of one by an involution (t_y = t_ys @ gens[si]): gens[si]
        # acts as a permutation and sends y to ys, so via[ys] == 2 + si says the
        # edge is y -> ys, and for an involution via[y] == 2 + si says it is
        # ys -> y. The other attempts are walked together, and their sigmas
        # formed at once; a repeated (y, si) repeats its sigma.
        mark = si + 2
        skip = (self._via[ys] == mark) | (self._involutive[si] & (self._via[y] == mark))
        live = np.flatnonzero(~skip)
        transposed, inverted = self._walk(y[live], ys[live])
        # t_y @ (gens[si] @ t_ys^-1), each left factor given by its transpose
        sigma = _row_products(transposed, _row_products(self._transposes[si[live]], inverted))
        # the first max_gens distinct sigmas other than the identity, in draw order
        keys = np.ascontiguousarray(sigma).view(np.dtype((np.void, sigma.itemsize * m))).ravel()
        firsts = np.sort(np.unique(keys, return_index=True)[1])
        firsts = firsts[(sigma[firsts] != self._identity_rows).any(axis=1)][:max_gens]
        out = [AffineMap(Gf2Matrix(m, tuple(row)), 0) for row in sigma[firsts].tolist()]
        if not stabilizer_check(rep, *out):
            raise AssertionError("Schreier element failed the stabilizer check")
        used = int(live[firsts[-1]]) + 1 if len(out) == max_gens else budget
        if used < budget:
            rng.setstate(saved.getstate())
            for _ in range(used):
                rng.randrange(size)
                rng.randrange(ngens)
        return out


def _check_max_gens(max_gens: int) -> None:
    if max_gens < 0:
        raise ValueError(f"max_gens must be at least 0, got {max_gens}")


def classify_quotient(
    d: int, m: int, rng: random.Random | None = None, max_gens: int = DEFAULT_MAX_GENS
) -> list[ClassRecord]:
    """Orbit representatives, sizes, and stabilizer gens for H^(d)(m) / GL(m,2).

    Draws up to max_gens Schreier generators for every class, in class
    order, from rng (Random(0) when None); a negative max_gens is refused
    before the closure runs.
    """
    _check_max_gens(max_gens)
    rng = rng if rng is not None else random.Random(0)
    cls = QuotientClassification.compute(d, m)
    return [
        replace(rec, gens=cls.stabilizer_gens(cid, rng, max_gens))
        for cid, rec in enumerate(cls.records)
    ]


def equivalence(e1: Anf, e2: Anf) -> Gf2Matrix | None:
    """An invertible A with (e1 o A) + e2 of degree below d (zero at d = 0), or None if none.

    d is the larger degree of e1 and e2. Substitution never raises degree,
    so only the degree-d parts t1 and t2 matter, and QuotientClassification
    .compute(d, m) decides: None means t1 and t2 lie in different classes,
    a proof of inequivalence. Otherwise A = T1^-1 @ T2, with Ti the
    transversal carrying the class representative onto ti, and A is checked
    before it is returned. compute refuses a space past capped_space before
    any closure.
    """
    if e1.m != e2.m:
        raise ValueError("variable count mismatch")
    d = max(e1.degree(), e2.degree())
    t1, t2 = homogeneous_part(e1, d), homogeneous_part(e2, d)
    cls = QuotientClassification.compute(d, e1.m)
    i1, i2 = cls.space.index_of(t1), cls.space.index_of(t2)
    if cls.class_of[i1] != cls.class_of[i2]:
        return None
    mat = cls.transversal(i1).inverse() @ cls.transversal(i2)
    if top_image(t1, AffineMap(mat, 0)) != t2:
        raise AssertionError("transversals failed to carry e1 onto e2")
    return mat


def write_classification(target, records, d: int, m: int, seed: int | None = None):
    """Text form: header comments, then one record per class.

    class <id> rep <monomial-string> size <decimal>
    gen <m bit-rows>              (zero or more lines, one matrix each)

    separated by blank lines. The rep grammar is the ANF digit notation,
    "0" for the zero form; bit rows read leftmost character = x_1.
    """
    with _opened(target, "w") as fh:
        fh.write("# classification\n")
        fh.write(f"# d {d}\n")
        fh.write(f"# m {m}\n")
        if seed is not None:
            fh.write(f"# seed {seed}\n")
        for cid, rec in enumerate(records):
            fh.write(f"class {cid} rep {format_anf(rec.rep)} size {rec.size}\n")
            for a in rec.gens:
                fh.write(f"gen {a.matrix.to_text()}\n")
            fh.write("\n")


def ingest_classification(source, expect_d: int | None = None, expect_m: int | None = None):
    """Parse and validate a classification file; returns (records, d, m).

    Validation: the _header gives d and m once each, each the whole rest of
    its line, before any record is parsed; class ids run 0, 1, ... in file
    order, sizes are positive and sum to 2**C(m,d), reps are degree-d
    homogeneous (or zero), stated gens are invertible and stabilize them.
    """
    with _opened(source) as fh:
        lines = fh.read().splitlines()
    header = _header(lines, ("d", "m"))
    if len(header) < 2:
        raise ValueError("missing '# d' or '# m' header")
    d, m = _decimal(header["d"]), _decimal(header["m"])
    if expect_d is not None and d != expect_d:
        raise ValueError(f"file classifies degree {d}, expected {expect_d}")
    if expect_m is not None and m != expect_m:
        raise ValueError(f"file is over {m} variables, expected {expect_m}")
    entries = []
    gens = None  # the gens of the open class record; a blank line closes it
    for raw in lines:
        line = raw.strip()
        fields = line.split()
        if not fields:
            gens = None
        elif fields[0] == "class":
            if len(fields) != 6 or fields[2] != "rep" or fields[4] != "size":
                raise ValueError(f"bad class line {line!r}")
            if fields[1] != str(len(entries)):
                raise ValueError(f"class id {fields[1]!r} out of order, expected {len(entries)}")
            size = _decimal(fields[5])
            if size <= 0:
                raise ValueError(f"class size must be positive, got {size}")
            gens = []
            entries.append((parse_anf(fields[3], m), size, gens))
        elif fields[0] == "gen":
            if gens is None:
                raise ValueError("gen line outside a class record")
            mat = Gf2Matrix.from_text(" ".join(fields[1:]))
            if mat.m != m:
                raise ValueError("generator dimension differs from m")
            gens.append(AffineMap(mat, 0))
        elif not line.startswith("#"):
            raise ValueError(f"unrecognised line {line!r}")
    records = [ClassRecord(rep, size, tuple(gens)) for rep, size, gens in entries]
    space = HomogeneousSpace(m, d)
    total = sum(rec.size for rec in records)
    if total != space.size:
        raise ValueError(f"orbit sizes sum to {total}, expected 2**{space.nbits}")
    for rec in records:
        if not rec.rep.is_zero() and not rec.rep.is_homogeneous(d):
            raise ValueError(f"representative {format_anf(rec.rep)} is not degree-{d} homogeneous")
        if not stabilizer_check(rec.rep, *rec.gens):
            raise ValueError(f"stated generator does not stabilize {format_anf(rec.rep)}")
    return records, d, m
