import hashlib
import inspect
import io
import random
from dataclasses import replace
from functools import reduce
from itertools import product
from math import comb

import numpy as np
import pytest

from rmenum.boolfn import (
    Anf,
    HomogeneousSpace,
    anf_from_truth_table,
    format_anf,
    homogeneous_part,
    parse_anf,
    truth_table_from_anf,
)
from rmenum.classify import (
    DEFAULT_MAX_GENS,
    QuotientClassification,
    _close_orbits,
    _half_tables,
    _is_involution,
    classify_quotient,
    equivalence,
    gl2_generators,
    ingest_classification,
    merge_by_enumerator,
    orbit_partition,
    quotient_index,
    quotient_leader,
    quotient_partition,
    write_classification,
)
from rmenum.cosetenum import coset_histograms
from rmenum.gf2 import (
    AffineMap,
    Gf2Matrix,
    _echelon,
    apply,
    as_affine,
    random_invertible,
    stabilizer_check,
    transform_anf,
)
from rmenum.pipeline import PIPELINE_MAX_GENS, run_pipeline


def test_gl2_generators_are_invertible():
    for m in range(1, 8):
        for g in gl2_generators(m):
            assert g.is_invertible()


def test_quadratic_forms_on_4_vars():
    records = classify_quotient(2, 4)
    assert sorted(rec.size for rec in records) == [1, 28, 35]
    assert records[0].rep.is_zero()
    assert sum(rec.size for rec in records) == HomogeneousSpace(4, 2).size


def test_cubic_forms_on_5_vars():
    records = classify_quotient(3, 5)
    assert sorted(rec.size for rec in records) == [1, 155, 868]


def test_cubic_forms_on_6_vars():
    records = classify_quotient(3, 6)
    assert len(records) == 6
    assert sum(rec.size for rec in records) == 1 << 20


def dickson_size(h, m):
    # quadratic forms of rank 2h over m variables (MacWilliams & Sloane, ch. 15)
    num = reduce(lambda acc, i: acc * ((1 << (m - i)) - 1), range(2 * h), 1)
    den = reduce(lambda acc, i: acc * (4**i - 1), range(1, h + 1), 1)
    return (1 << (h * (h - 1))) * num // den


@pytest.mark.parametrize("m", range(3, 8))
def test_quadratic_classes_are_the_dickson_ranks(m):
    # the GL closure alone, with no stabilizer check: one class per rank 2h,
    # the rep of class h of rank 2h, and Dickson's class sizes
    records = QuotientClassification.compute(2, m).records
    assert [rec.size for rec in records] == [dickson_size(h, m) for h in range(m // 2 + 1)]
    for h, rec in enumerate(records):
        # the alternating matrix of the form: row i marks the x_j in x_i x_j
        rows = [0] * m
        for mask in rec.rep.monomials:
            i, j = [k for k in range(m) if mask >> k & 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        assert Gf2Matrix(m, tuple(rows)).rank() == 2 * h
    if m == 7:
        assert [rec.size for rec in records] == [1, 2667, 330708, 1763776]


def test_top_degree_pair():
    # d = m: only 0 and the full monomial, each its own class
    records = classify_quotient(4, 4)
    assert [rec.size for rec in records] == [1, 1]
    assert records[1].rep == parse_anf("1234", 4)


def test_stabilizer_gens_stabilize():
    for d, m in ((2, 5), (3, 5), (2, 6), (4, 6)):
        for rec in classify_quotient(d, m):
            assert rec.gens  # sampling always finds something at these sizes
            for a in rec.gens:
                assert a.matrix != Gf2Matrix.identity(m)
                assert stabilizer_check(rec.rep, a)


def test_class_membership_is_closed_under_action():
    cls = QuotientClassification.compute(2, 4)
    rng = random.Random(5)
    for _ in range(30):
        idx = rng.randrange(cls.space.size)
        f = cls.space.anf_of(idx)
        a = AffineMap(random_invertible(4, rng), 0)
        g = homogeneous_part(transform_anf(f, a), 2)
        assert cls.class_of[cls.space.index_of(f)] == cls.class_of[cls.space.index_of(g)]


def expand(halves):
    # the full image table of a (lo, hi) pair: g = q * len(lo) + r goes to hi[q] ^ lo[r]
    lo, hi = (np.asarray(t, dtype=np.uint32) for t in halves)
    return (hi[:, None] ^ lo[None, :]).ravel()


def expand_all(tables):
    # the full image table of every generator of a stacked (lo, hi) pair
    return [expand(halves) for halves in zip(*tables)]


def stacked(perms):
    # permutations of the indices in the stacked layout _close_orbits reads:
    # one row per permutation, with a zero column as hi
    return np.array(perms, dtype=np.intp), np.zeros((len(perms), 1), dtype=np.intp)


def forest_from_via(via, tables):
    # parent and generator of every index, read from the via marks through
    # inverse tables (-1 for seeds): the parent of v is the preimage of v under
    # the generator that reached it
    pgen = via.astype(np.int64) - 2
    parent = np.full(via.size, -1, dtype=np.int64)
    for gi, table in enumerate(expand_all(tables)):
        inverse = np.empty_like(table)
        inverse[table] = np.arange(table.size, dtype=table.dtype)
        hit = pgen == gi
        parent[hit] = inverse[hit]
    pgen[pgen < 0] = -1
    return parent, pgen


def gl_tables(cls):
    return _half_tables(cls.space, [AffineMap(g, 0) for g in cls.gens])


def blocks(part):
    # sorted member tuples of every block, in block order
    order = np.argsort(part.block_of, kind="stable")
    ends = np.cumsum(np.bincount(part.block_of, minlength=part.block_count))
    return tuple(tuple(b.tolist()) for b in np.split(order, ends[:-1]))


def reference_transversal(cls, idx, parent, pgen):
    # validated products of the edge generators along the parent forest
    path = []
    node = idx
    while parent[node] >= 0:
        path.append(cls.gens[int(pgen[node])])
        node = int(parent[node])
    return reduce(lambda acc, g: acc @ g, reversed(path), Gf2Matrix.identity(cls.m))


def test_transversal_property():
    # one walk from every index gives every transversal, transposed, and its
    # inverse: each is the product of the edge generators along the
    # reference forest and carries the class representative onto its index;
    # transversal reads the same walk for one index
    for d in (2, 3):
        cls = QuotientClassification.compute(d, 5)
        parent, pgen = forest_from_via(cls._via, gl_tables(cls))
        indices = range(cls.space.size)
        transposed, inverted = cls._walk(indices, indices)
        identity = Gf2Matrix.identity(cls.m)
        for idx, t_rows, inv_rows in zip(indices, transposed.tolist(), inverted.tolist()):
            mat = reference_transversal(cls, idx, parent, pgen)
            assert Gf2Matrix(cls.m, tuple(t_rows)) == mat.transpose()
            assert Gf2Matrix(cls.m, tuple(inv_rows)) @ mat == identity
            rep = cls.records[int(cls.class_of[idx])].rep
            moved = homogeneous_part(transform_anf(rep, AffineMap(mat, 0)), d)
            assert cls.space.index_of(moved) == idx
        for idx in (*(cls.space.index_of(rec.rep) for rec in cls.records), cls.space.size - 1):
            assert cls.transversal(idx) == reference_transversal(cls, idx, parent, pgen)


def test_representatives_are_least_members():
    cls = QuotientClassification.compute(2, 4)
    for cid, rec in enumerate(cls.records):
        members = [i for i in range(cls.space.size) if cls.class_of[i] == cid]
        assert cls.space.index_of(rec.rep) == min(members)


def reference_action_table(space, a, e=None):
    # column by column through the truth-table oracle: image of each basis
    # monomial, then its degree-d part as a packed index
    def image(f):
        moved = anf_from_truth_table(apply(truth_table_from_anf(f), a))
        return space.index_of(homogeneous_part(moved, space.d))

    const = image(e) if e is not None else 0
    table = np.array([const], dtype=np.uint32)
    for mask in space.masks:
        col = image(Anf(space.m, frozenset([mask])))
        table = np.concatenate([table, table ^ np.uint32(col)])
    return table


# every (m, d) whose index space has at most 2**21 forms, up to m = 10
ACTION_SPACES = [(m, d) for m in range(1, 11) for d in range(1, m + 1) if comb(m, d) <= 21]


def assert_half_tables(space, a, e=None, basis=()):
    # over V/W, W spanned by basis: one intp row of 2**(n//2) and one of
    # 2**(n - n//2) entries, n = N - len(basis), that expand to the
    # reference's image of each coset leader, reduced
    stack = _half_tables(space, [a], e, basis)
    for half in stack:
        assert half.dtype == np.intp and half.ndim == 2 and half.flags.c_contiguous
    (lo,), (hi,) = stack
    n = space.nbits - len(basis)
    assert len(lo) == 2 ** (n // 2)
    assert len(lo) * len(hi) == 2**n
    leaders = quotient_leader(basis, np.arange(2**n, dtype=np.int64))
    want = quotient_index(basis, reference_action_table(space, a, e)[leaders].astype(np.int64))
    assert np.array_equal(expand((lo, hi)), want)


def test_action_table_matches_truth_table_reference():
    rng = random.Random(12)
    assert (7, 2) in ACTION_SPACES and (7, 5) in ACTION_SPACES
    for m, d in ACTION_SPACES:
        space = HomogeneousSpace(m, d)
        maps = [AffineMap(g, 0) for g in gl2_generators(m)]
        maps += [AffineMap(random_invertible(m, rng), 0) for _ in range(2)]
        for a in maps:
            assert_half_tables(space, a)
        if d < m:
            # unit translations above a degree-(d+1) form, over V and over
            # V/W_e, where they act as the identity
            upper = HomogeneousSpace(m, d + 1)
            e = upper.anf_of(rng.randrange(1, upper.size))
            basis = quotient_partition(e, (), d - 1, m).basis
            for i in range(m):
                translation = AffineMap.translation(m, 1 << i)
                assert_half_tables(space, translation, e)
                assert_half_tables(space, translation, e, basis)
                (lo,), (hi,) = _half_tables(space, [translation], e, basis)
                assert np.array_equal(expand((lo, hi)), np.arange(len(lo) * len(hi)))


@pytest.mark.parametrize("r, m0", [(3, 4), (2, 5), (4, 5), (3, 5), (2, 6), (3, 6)])
def test_stabilizer_half_tables_match_truth_table_reference(r, m0):
    # the tables quotient_partition closes, over V/W_e, and the same
    # generators over V, for every class of H^(r)(m0) at run_pipeline's budget
    space = HomogeneousSpace(m0, r - 1)
    for rec in classify_quotient(r, m0, random.Random(0), max_gens=PIPELINE_MAX_GENS):
        basis = quotient_partition(rec.rep, (), r - 2, m0).basis
        for a in rec.gens:
            assert_half_tables(space, a, rec.rep)
            assert_half_tables(space, a, rec.rep, basis)


@pytest.mark.parametrize("m", range(2, 8))
def test_inverse_half_tables_invert_the_gl_generators(m):
    # QuotientClassification reads a parent as one lookup in the inverse's halves
    for d in range(1, m + 1):
        if comb(m, d) > 21:
            continue
        space = HomogeneousSpace(m, d)
        identity = np.arange(space.size, dtype=np.uint32)
        for g in gl2_generators(m):
            forward, inverse = expand_all(
                _half_tables(space, [AffineMap(g, 0), AffineMap(g.inverse(), 0)])
            )
            assert np.array_equal(inverse[forward], identity), (m, d)
            assert np.array_equal(forward[inverse], identity), (m, d)


def test_classification_never_walks_truth_tables(monkeypatch):
    import rmenum.gf2 as gf2

    def forbidden(*args, **kwargs):
        raise AssertionError("gf2.apply was called")

    monkeypatch.setattr(gf2, "apply", forbidden)
    # the Fourier route (classification, orbit partitions) and the class
    # sum (rebasing through top_image)
    run_pipeline(3, 7)
    run_pipeline(2, 6, classes=classify_quotient(2, 5))


def coset_action(e, g, a, r):
    # image index of the coset (e+g) + R(r,m) under a stabilizer element:
    # [e o A]_{r+1} xor [g o A]_{r+1}, by substituting forms one at a time
    a = as_affine(a)
    if not stabilizer_check(e, a):
        raise ValueError("substitution does not stabilize e modulo lower degrees")
    space = HomogeneousSpace(e.m, r + 1)
    out = homogeneous_part(transform_anf(space.anf_of(g), a), r + 1)
    out ^= homogeneous_part(transform_anf(e, a), r + 1)
    return space.index_of(out)


def test_coset_action_examples():
    e = parse_anf("123", 4)
    swap12 = Gf2Matrix(4, (0b0010, 0b0001, 0b0100, 0b1000))
    space = HomogeneousSpace(4, 2)
    g = space.index_of(parse_anf("13", 4))
    image = coset_action(e, g, swap12, 1)
    assert space.anf_of(image) == parse_anf("23", 4)

    not_stab = Gf2Matrix(4, (0b1000, 0b0010, 0b0100, 0b0001))
    with pytest.raises(ValueError, match="stabilize"):
        coset_action(e, g, not_stab, 1)


def test_orbit_partition_quadratics_by_rank():
    # above e = 0 the affine group splits H^(2)(5) into rank classes 0, 2, 4
    part = orbit_partition(parse_anf("0", 5), gl2_generators(5), 1, 5)
    assert part.block_count == 3
    assert sum(len(b) for b in blocks(part)) == 1024
    # translations fix top parts over e = 0, so blocks are plain GL classes
    assert sorted(len(b) for b in blocks(part)) == sorted(
        rec.size for rec in classify_quotient(2, 5)
    )


def test_orbit_partition_blocks_are_orbits():
    e = parse_anf("123", 5)
    rec = next(r for r in classify_quotient(3, 5) if r.rep == e)
    part = orbit_partition(e, rec.gens, 1, 5)
    space = HomogeneousSpace(5, 2)
    # action by any stabilizer generator maps each block into itself
    for a in rec.gens[:4]:
        for block in blocks(part)[:6]:
            for g in block[:3]:
                assert part.block_of[coset_action(e, g, a, 1)] == part.block_of[g]
    assert sum(len(b) for b in blocks(part)) == space.size


def test_quotient_partition_without_generators_is_singletons():
    # W_e of x1x2 is spanned by its derivatives x2 and x1, so H^(1)(3)/W_e
    # has 2 indices, each its own block; expanded, the blocks are the cosets
    e = parse_anf("12", 3)
    part = quotient_partition(e, [], 0, 3)
    assert part.basis == (0b010, 0b001)
    assert part.block_count == 2
    assert all(len(b) == 1 for b in blocks(part))
    full = orbit_partition(e, [], 0, 3)
    assert [set(b) for b in blocks(full)] == [{0, 1, 2, 3}, {4, 5, 6, 7}]


def test_merge_by_enumerator():
    e = parse_anf("0", 4)
    part = orbit_partition(e, gl2_generators(4), 1, 4)
    space = HomogeneousSpace(4, 2)
    reps = [space.anf_of(b[0]) for b in blocks(part)]
    rows = coset_histograms(reps, 1, 4)
    merged, mrows = merge_by_enumerator(part, [rows])
    assert merged.block_count <= part.block_count
    assert mrows.dtype == np.int64 and mrows.shape == (merged.block_count, 17)
    assert sum(len(b) for b in blocks(merged)) == space.size
    # every index still maps to the row its block carries
    for bid, block in enumerate(blocks(merged)):
        for g in block[:4]:
            assert merged.block_of[g] == bid
            assert np.array_equal(mrows[bid], rows[part.block_of[g]])
    # where the chunks are cut changes nothing
    for cut in ([rows[:1], rows[1:3], rows[3:]], [rows[:0], rows, rows[:0]], list(rows[:, None])):
        got, got_rows = merge_by_enumerator(part, cut)
        assert np.array_equal(got.block_of, merged.block_of)
        assert np.array_equal(got.first, merged.first)
        assert np.array_equal(got_rows, mrows)
    for bad in ([rows[:-1]], [rows, rows[:1]], []):
        with pytest.raises(ValueError, match="one row per block"):
            merge_by_enumerator(part, bad)


def tuple_merge_reference(partition, rows):
    # the merge as member tuples of Python ints: groups of equal rows,
    # numbered by their least member
    groups = {}
    for bid, row in enumerate(rows.tolist()):
        groups.setdefault(tuple(row), []).append(bid)
    members_of, merged = blocks(partition), []
    for row, bids in groups.items():
        members = sorted(x for bid in bids for x in members_of[bid])
        merged.append((tuple(members), row))
    merged.sort(key=lambda item: item[0][0])
    block_of = np.full(partition.block_of.shape, -1, dtype=np.int32)
    for mid, (members, _) in enumerate(merged):
        block_of[list(members)] = mid
    return block_of, tuple(members for members, _ in merged), [row for _, row in merged]


@pytest.mark.parametrize("r, m", [(3, 6), (2, 7), (4, 7), (3, 7), (2, 8), (3, 8)])
def test_merge_by_enumerator_matches_tuple_reference(monkeypatch, r, m):
    import rmenum.pipeline as pipeline

    seen = []

    def checked(partition, chunks):
        assert [b[0] for b in blocks(partition)] == partition.first.tolist()
        assert sorted(partition.first.tolist()) == partition.first.tolist()
        chunks = list(chunks)
        merged, mrows = merge_by_enumerator(partition, chunks)
        block_of, members, ref_rows = tuple_merge_reference(partition, np.concatenate(chunks))
        assert merged.block_of.dtype == block_of.dtype
        assert np.array_equal(merged.block_of, block_of)
        assert blocks(merged) == members
        assert merged.first.tolist() == [b[0] for b in members]
        assert mrows.dtype == np.int64
        assert [tuple(row) for row in mrows.tolist()] == ref_rows
        seen.append(partition.e)
        return merged, mrows

    monkeypatch.setattr(pipeline, "merge_by_enumerator", checked)
    run_pipeline(r, m)
    # one merge per lower class of H^(r)(m-2)
    assert len(seen) == len(classify_quotient(r, m - 2))


def test_write_ingest_round_trip():
    records = classify_quotient(2, 4)
    buf = io.StringIO()
    write_classification(buf, records, 2, 4, seed=0)
    got, d, m = ingest_classification(io.StringIO(buf.getvalue()))
    assert (d, m) == (2, 4)
    assert [(rec.rep, rec.size) for rec in got] == [(rec.rep, rec.size) for rec in records]
    assert all(
        [a.matrix for a in grec.gens] == [a.matrix for a in rec.gens]
        for grec, rec in zip(got, records)
    )


def test_ingest_rejects_bad_files():
    records = classify_quotient(2, 4)
    buf = io.StringIO()
    write_classification(buf, records, 2, 4)
    text = buf.getvalue()

    with pytest.raises(ValueError, match="expected 3"):
        ingest_classification(io.StringIO(text), expect_d=3)
    with pytest.raises(ValueError, match="expected 5"):
        ingest_classification(io.StringIO(text), expect_m=5)

    # missing class: sizes no longer sum to the space size
    partial = io.StringIO()
    write_classification(partial, records[:2], 2, 4)
    with pytest.raises(ValueError, match="sum to"):
        ingest_classification(io.StringIO(partial.getvalue()))

    # a generator that moves the (nonzero) class-1 representative
    cyclic = "gen 0100 0010 0001 1000"
    broken = []
    for ln in text.splitlines():
        broken.append(ln)
        if ln.startswith("class 1 "):
            broken.append(cyclic)
    with pytest.raises(ValueError, match="stabilize"):
        ingest_classification(io.StringIO("\n".join(broken)))

    with pytest.raises(ValueError, match="header"):
        ingest_classification(io.StringIO("class 0 rep 0 size 1\n"))


@pytest.mark.parametrize("cid", [0, 1])
def test_ingest_refuses_a_singular_generator(cid):
    # a singular matrix fixes no form: not the zero form (class 0), which
    # every invertible map stabilizes, and not x1x2 (class 1), whose top
    # image under x3 -> 0 is still x1x2
    text = io.StringIO()
    write_classification(text, classify_quotient(2, 4), 2, 4)
    singular = "gen 1000 0100 0000 0001"
    lines = []
    for ln in text.getvalue().splitlines():
        lines.append(ln)
        if ln.startswith(f"class {cid} "):
            assert ln.split()[3] == ["0", "12"][cid]
            lines.append(singular)
    with pytest.raises(ValueError, match="stated generator does not stabilize"):
        ingest_classification(io.StringIO("\n".join(lines)))


def test_ingest_refuses_the_last_generator_of_a_middle_class():
    # H^(3)(6) at seed 1 states 64 generators for classes 2 to 5; all of them
    # are checked in one call per class, so a bad 64th one of class 3 alone
    # refuses the file
    records = classify_quotient(3, 6, random.Random(1))
    assert [len(rec.gens) for rec in records] == [2, 50, 64, 64, 64, 64]
    rec = records[3]
    rng = random.Random(5)
    bad = next(
        a
        for a in (AffineMap(random_invertible(6, rng), 0) for _ in range(100))
        if homogeneous_part(transform_anf(rec.rep, a), 3) != rec.rep
    )
    records[3] = replace(rec, gens=rec.gens[:63] + (bad,))
    buf = io.StringIO()
    write_classification(buf, records, 3, 6, seed=1)
    with pytest.raises(ValueError, match="stated generator does not stabilize"):
        ingest_classification(io.StringIO(buf.getvalue()))
    records[3] = rec
    buf = io.StringIO()
    write_classification(buf, records, 3, 6, seed=1)
    assert ingest_classification(io.StringIO(buf.getvalue()))[0] == records


@pytest.mark.parametrize("cid", [0, 3])
def test_schreier_sampling_raises_when_one_map_fails_the_check(monkeypatch, cid):
    # class 0 of H^(3)(6) is the zero form, whose generators are the GL
    # generators; class 3 emits Schreier elements. A check that fails one of
    # the maps it is handed must stop the sampler on either branch.
    import rmenum.classify as classify

    cls = QuotientClassification.compute(3, 6)
    emitted = cls.stabilizer_gens(cid, random.Random(1), 16)
    assert len(emitted) >= 2
    bad = emitted[-1]
    real = classify.stabilizer_check

    def fails_one(e, *maps):
        return real(e, *maps) and bad not in maps

    monkeypatch.setattr(classify, "stabilizer_check", fails_one)
    message = "whole group" if cid == 0 else "Schreier element failed"
    with pytest.raises(AssertionError, match=message):
        cls.stabilizer_gens(cid, random.Random(1), 16)


def two_class_file():
    # H^(2)(3) has two classes, the zero form (size 1) and x1x2 + x1x3 + x2x3
    buf = io.StringIO()
    write_classification(buf, classify_quotient(2, 3, max_gens=0), 2, 3)
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("cid", ["banana", "0", "2"])
def test_ingest_refuses_class_ids_out_of_file_order(cid):
    lines = two_class_file()
    assert [ln.split()[1] for ln in lines if ln.startswith("class ")] == ["0", "1"]
    broken = [ln.replace("class 1 ", f"class {cid} ") for ln in lines]
    with pytest.raises(ValueError, match=f"class id '{cid}' out of order, expected 1"):
        ingest_classification(io.StringIO("\n".join(broken)))


@pytest.mark.parametrize("bad", ["1_4", "+1", "\u0663"], ids=["underscore", "sign", "arabic"])
def test_ingest_refuses_integers_int_would_take(bad):
    # '# d', '# m' and the size are ASCII decimal digits alone
    lines = two_class_file()
    assert lines[1:4] == ["# d 2", "# m 3", "class 0 rep 0 size 1"]
    for at, field in ((1, "# d "), (2, "# m "), (3, "class 0 rep 0 size ")):
        broken = lines[:at] + [field + bad] + lines[at + 1 :]
        with pytest.raises(ValueError, match="not an ASCII decimal integer"):
            ingest_classification(io.StringIO("\n".join(broken)))


def test_ingest_refuses_a_non_ascii_digit_in_a_rep():
    # H^(1)(3) has the classes 0 and x1; "\u0661" (Arabic-Indic one) once
    # ingested as x1
    buf = io.StringIO()
    write_classification(buf, classify_quotient(1, 3, max_gens=0), 1, 3)
    assert "class 1 rep 1 size 7" in buf.getvalue()
    broken = buf.getvalue().replace("rep 1 ", "rep \u0661 ")
    with pytest.raises(ValueError, match="bad monomial"):
        ingest_classification(io.StringIO(broken))


@pytest.mark.parametrize("key", ["d", "m"])
def test_ingest_refuses_a_repeated_header(key):
    lines = two_class_file()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key} "))
    # a second header line, even with the same value, is refused, never kept
    for value in ("2", "3"):
        broken = lines[: at + 1] + [f"# {key} {value}"] + lines[at + 1 :]
        with pytest.raises(ValueError, match=f"repeated '# {key}' header"):
            ingest_classification(io.StringIO("\n".join(broken)))


def test_classification_is_seed_deterministic():
    a = io.StringIO()
    b = io.StringIO()
    write_classification(a, classify_quotient(2, 5, random.Random(9)), 2, 5, seed=9)
    write_classification(b, classify_quotient(2, 5, random.Random(9)), 2, 5, seed=9)
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize(
    "d, m, seed, digest",
    [
        (3, 6, 1, "6c094962fac17002e1dae0273f4c45b11fa3c9a2958ee20073609508864f1a58"),
        (2, 7, 1, "2da5d70e2c03a1cfc878aaa7d7b039ba34a0f9d8320945ca4b7e127d4645fb15"),
        (3, 6, 0, "f37560f334df81812b8602884e5cc5c90e6c94a2df8b1b6d8464c9831483fe76"),
        (3, 6, 7, "28c5974076474564c5fca972aebf3d44ae88a3e07a3e135af093a42d809ac71f"),
        (2, 7, 0, "b1264278241e0cba1240bb0cda923d951dc0b91df4355c9359a0447e485a5030"),
        (2, 7, 7, "7b89983b7ffe03ed326403b1e71c77240761219c73a3a6bc454ee203cb21ed22"),
    ],
    ids=["d3m6", "d2m7", "d3m6s0", "d3m6s7", "d2m7s0", "d2m7s7"],
)
def test_classification_file_is_pinned(d, m, seed, digest):
    # pins classes, sizes, representatives, generators and the RNG stream
    buf = io.StringIO()
    write_classification(buf, classify_quotient(d, m, random.Random(seed)), d, m, seed=seed)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


# (d, m, seed, max_gens): at max_gens 12, the budget run_pipeline draws, the
# classes of H^(3)(4) and H^(4)(5), and at seed 1 one of H^(2)(5), use all 96
# attempts; the others stop early and rewind the rng
SMALL_PINS = {
    (2, 5, 0, 64): "7838e058ce503e69f3c83dc877d0ec46fba0d83e8da276aeea341fe68018bafa",
    (2, 5, 1, 64): "d73409accb4ad8f0ff52f6246a3b41a458fc890130a1952e25f1d8978936011c",
    (3, 5, 0, 64): "b477a02d8af53f8af7935a925b345ac4c0e2ea665ce3d6c69da198cc5ae01ecb",
    (3, 5, 1, 64): "b18b5750498703f734f8dd678694deeccf280f7ffb1e738ea7e7fda39401b4f9",
    (2, 6, 0, 64): "01ffbbbfe5f69da5640600c5f4b9cefff0bfb8bf5a1ad028994d8a28acb92d8c",
    (2, 6, 1, 64): "c065c0215c90ef4edfff0a29c5e05d6945b6a85a4d355a205ee820b8f9c548ff",
    (4, 6, 0, 64): "a3ec5d649085e0d25ab573f9d9daf58c92d83f847baa8e2284d891517c3478fc",
    (4, 6, 1, 64): "fdd5ce7cc02782b003500afd06160309a150b70af69ff9c161ea21afbd908652",
    (2, 5, 0, 12): "df3a649d1a0b4809e788dd7a805d6b995510ba5e5e3c752c75d3692dfe7c34aa",
    (2, 5, 1, 12): "84a7bccda20207266c64ba6ef737c26c40606bc2983205da3144a51e349b585d",
    (2, 6, 0, 12): "3564bffa0fd454b3dbb790c3387ae365cf6a33ff35be45e0c40eb57519a461c9",
    (2, 6, 1, 12): "62309b80eba9370495b5db185613cb306732acc21a2708646210e4ac144e30aa",
    (3, 4, 0, 12): "8fb2b7aa9afc344d61a68eb55cbaca9861346ad9f00a756a38cd0a2a5f1c31ac",
    (3, 4, 1, 12): "ab3733d8bb099a8343efc6ed522074b71e8f52f94d1fc1cc0aad01ecd71899c6",
    (3, 5, 0, 12): "85c097a260c9e1ab5022a49eafb23b798cb08238200cc9abd01387afa8a645d2",
    (3, 5, 1, 12): "d7969b0ae9686001040b9459eb0cc15000eb767709a43a51b9d2ff1f60cf4bea",
    (4, 5, 0, 12): "d8765afa514d6b1840aee19ef3a27e525e75ae0a121551e6d7006d7f5813edf8",
    (4, 5, 1, 12): "96fcda3fafe4a1fcf71ca358f2a053b979b38ed1fa9881eb7d53f12123033916",
}


def small_pin_id(d, m, seed, max_gens):
    budget = "" if max_gens == DEFAULT_MAX_GENS else f"g{max_gens}"
    return f"d{d}m{m}s{seed}{budget}"


@pytest.mark.parametrize(
    "d, m, seed, max_gens", sorted(SMALL_PINS), ids=[small_pin_id(*k) for k in sorted(SMALL_PINS)]
)
def test_small_classification_files_are_pinned(d, m, seed, max_gens):
    # every Schreier attempt draws from the RNG, so skipped attempts would show here
    buf = io.StringIO()
    records = classify_quotient(d, m, random.Random(seed), max_gens=max_gens)
    write_classification(buf, records, d, m, seed=seed)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SMALL_PINS[d, m, seed, max_gens]


def reference_close_orbits(tables, size):
    # the closure before it relied on tables being permutations: every level
    # is deduplicated with np.unique and rechecked against earlier writes
    block_of = np.full(size, -1, dtype=np.int32)
    parent = np.full(size, -1, dtype=np.int32)
    pgen = np.full(size, -1, dtype=np.int16)
    blocks = []
    for seed in range(size):
        if block_of[seed] >= 0:
            continue
        cid = len(blocks)
        block_of[seed] = cid
        frontier = np.array([seed], dtype=np.uint32)
        members = [frontier]
        while frontier.size:
            grown = []
            for gi, table in enumerate(tables):
                images = table[frontier]
                fresh = block_of[images] < 0
                if not fresh.any():
                    continue
                vals, first = np.unique(images[fresh], return_index=True)
                still = block_of[vals] < 0
                vals = vals[still]
                if not vals.size:
                    continue
                parent[vals] = frontier[fresh][first][still]
                pgen[vals] = gi
                block_of[vals] = cid
                grown.append(vals)
            frontier = np.concatenate(grown) if grown else np.empty(0, dtype=np.uint32)
            if frontier.size:
                members.append(frontier)
        blocks.append(np.sort(np.concatenate(members)))
    return block_of, blocks, parent, pgen


def assert_reference_blocks(first, sizes, blocks):
    # each block's least member and size, against the reference's sorted blocks
    assert [int(s) for s in first] == [int(b[0]) for b in blocks]
    assert [int(n) for n in sizes] == [len(b) for b in blocks]


def assert_same_closure(tables, size, involutive=()):
    # with the involution flags given and without any, the closure is the
    # reference closure, byte for byte the same either way; every flagged
    # table is an involution on every index
    block_of, first, sizes, via = _close_orbits(tables, size, involutive)
    plain = _close_orbits(tables, size)
    for a, b in zip((block_of, first, sizes, via), plain, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for table, flag in zip(expand_all(tables), involutive):
        if flag:
            assert np.array_equal(table[table], np.arange(size))
    want = reference_close_orbits(expand_all(tables), size)
    assert np.array_equal(block_of, want[0])
    # the narrowest unsigned type that holds every block id
    assert block_of.dtype == np.min_scalar_type(len(want[1]) - 1)
    assert_reference_blocks(first, sizes, want[1])
    assert first.dtype == np.uint32
    parent, pgen = forest_from_via(via, tables)
    assert np.array_equal(parent, want[2]) and np.array_equal(pgen, want[3])
    return block_of, first, sizes, via


@pytest.mark.parametrize("d, m", [(2, 4), (2, 5), (3, 5), (2, 6), (4, 6), (3, 6)])
def test_closure_matches_reference_on_gl_tables(d, m):
    space = HomogeneousSpace(m, d)
    maps = [AffineMap(g, 0) for g in gl2_generators(m)]
    tables = _half_tables(space, maps)
    involutive = [_is_involution(a) for a in maps]
    assert involutive == [True, False]  # the transvection and the cyclic shift
    assert_same_closure(tables, space.size, involutive)


# the lower forms of the ladder codes R(r, m) and of R(3,8): classes of H^(r)(m-2)
LADDER_LOWER = [(3, 4), (2, 5), (4, 5), (3, 5), (2, 6), (3, 6)]


def partition_tables(r, m0, seed=0, max_gens=DEFAULT_MAX_GENS):
    # stabilizer generators plus unit translations over all of H^(r-1)(m0),
    # the tables the orbit partition of each class of H^(r)(m0) closes, with
    # their involution flags (a translation is never flagged)
    space = HomogeneousSpace(m0, r - 1)
    for rec in classify_quotient(r, m0, random.Random(seed), max_gens=max_gens):
        maps = list(rec.gens) + [AffineMap.translation(m0, 1 << i) for i in range(m0)]
        tables = _half_tables(space, maps, rec.rep)
        yield tables, space.size, [_is_involution(a) for a in maps]


def quotient_closures(monkeypatch, r, m0):
    # the (tables, size, involutive) that quotient_partition closes over V/W_e
    # for each class of H^(r)(m0) that has generators
    import rmenum.classify as classify

    calls = []
    close = classify._close_orbits

    def spy(tables, size, involutive=()):
        calls.append((tables, size, involutive))
        return close(tables, size, involutive)

    monkeypatch.setattr(classify, "_close_orbits", spy)
    for rec in classify_quotient(r, m0, random.Random(0)):
        quotient_partition(rec.rep, rec.gens, r - 2, m0)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("r, m0", LADDER_LOWER, ids=[f"d{r}m{m0}" for r, m0 in LADDER_LOWER])
def test_closure_matches_reference_on_orbit_partition_tables(monkeypatch, r, m0):
    # over V, and over V/W_e as quotient_partition closes it with its flags
    for tables, size, involutive in partition_tables(r, m0):
        assert_same_closure(tables, size, involutive)
    flagged = 0
    for tables, size, involutive in quotient_closures(monkeypatch, r, m0):
        assert len(involutive) == len(tables[0])
        flagged += sum(involutive)
        assert_same_closure(tables, size, involutive)
    assert flagged > 0


@pytest.mark.parametrize("r, m0", LADDER_LOWER, ids=[f"d{r}m{m0}" for r, m0 in LADDER_LOWER])
def test_closure_does_not_depend_on_the_gather_window(monkeypatch, r, m0):
    # a window of 2**8 entries takes every level past 256 nodes in chunks,
    # on both sides of the segment an involution skips; on the GL closure of
    # H^(r)(m0) and on the orbit partitions above its classes it gives the
    # reference closure and the default window's
    import rmenum.classify as classify

    space = HomogeneousSpace(m0, r)
    gl = _half_tables(space, [AffineMap(g, 0) for g in gl2_generators(m0)])
    for tables, size, involutive in [(gl, space.size, [True, False]), *partition_tables(r, m0)]:
        want = _close_orbits(tables, size, involutive)
        monkeypatch.setattr(classify, "_GATHER_WINDOW", 1 << 8)
        got = assert_same_closure(tables, size, involutive)
        monkeypatch.undo()
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


QUOTIENT_CASES = [(r, m0, seed) for seed in (0, 1, 7) for r, m0 in (*LADDER_LOWER, (4, 6))]


@pytest.mark.parametrize(
    "r, m0, seed", QUOTIENT_CASES, ids=[f"d{r}m{m0}-seed{seed}" for r, m0, seed in QUOTIENT_CASES]
)
def test_expanded_quotient_equals_the_closure_with_translations(r, m0, seed):
    # the closure over V/W_e, expanded to V, gives the partition that closing
    # all of V under the stabilizer generators and the unit translations gives
    records = classify_quotient(r, m0, random.Random(seed), max_gens=PIPELINE_MAX_GENS)
    tables = partition_tables(r, m0, seed, PIPELINE_MAX_GENS)
    for rec, (full_tables, size, involutive) in zip(records, tables, strict=True):
        block_of, first, _, _ = assert_same_closure(full_tables, size, involutive)
        part = orbit_partition(rec.rep, rec.gens, r - 2, m0)
        assert np.array_equal(part.block_of, block_of), format_anf(rec.rep)
        assert part.first.tolist() == first.tolist()
        assert part.block_of.dtype == np.int32 and part.first.dtype == np.uint32


def span_rank(vectors):
    # rank over GF(2) of packed vectors, by plain elimination on the top bit
    basis = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


# the lower classes of the ladder codes, R(3,8) and R(4,8)
W_E_LOWER = [*LADDER_LOWER, (4, 6)]


@pytest.mark.parametrize("r, m0", W_E_LOWER, ids=[f"d{r}m{m0}" for r, m0 in W_E_LOWER])
def test_stabilizer_linear_parts_map_w_e_into_itself(r, m0):
    # W_e is spanned by the constants of the unit-translation tables, lo[0];
    # the partition's basis spans it, and the linear part of every sampled
    # generator maps it into itself
    space = HomogeneousSpace(m0, r - 1)
    ks = []
    for rec in classify_quotient(r, m0, random.Random(0), max_gens=PIPELINE_MAX_GENS):
        translations = [AffineMap.translation(m0, 1 << i) for i in range(m0)]
        consts = _half_tables(space, translations, rec.rep)[0][:, 0].tolist()
        basis = quotient_partition(rec.rep, (), r - 2, m0).basis
        k = span_rank(consts)
        assert len(basis) == k == span_rank([*consts, *basis])
        ks.append(k)
        for a in rec.gens:
            for w in basis:
                moved = homogeneous_part(transform_anf(space.anf_of(w), a), r - 1)
                assert span_rank([*basis, space.index_of(moved)]) == k, format_anf(rec.rep)
    if (r, m0) == (4, 6):
        assert ks == [0, 4, 6, 6]


def test_linear_stabilizers_keep_a_constant_outside_w_e():
    # x**2 = x over GF(2), so a linear stabilizer element A of e can move the
    # coset of 0 by [e o A]_(r-1) outside W_e; the quotient tables keep that
    # constant. Classes of H^(3)(6), the lower forms of R(3,8), have such A.
    space = HomogeneousSpace(6, 2)
    outside = 0
    for rec in classify_quotient(3, 6, random.Random(0), max_gens=PIPELINE_MAX_GENS):
        basis = quotient_partition(rec.rep, (), 1, 6).basis
        for a in rec.gens:
            assert a.shift == 0
            const = space.index_of(homogeneous_part(transform_anf(rec.rep, a), 2))
            outside += quotient_index(basis, const) != 0
    assert outside > 0


def test_quotient_partition_rejects_a_map_outside_the_stabilizer():
    e = parse_anf("123", 4)
    cyclic = Gf2Matrix(4, (0b1000, 0b0001, 0b0010, 0b0100))
    singular = Gf2Matrix(4, (0b0001, 0b0001, 0b0100, 0b1000))
    for gen in (cyclic, singular):
        with pytest.raises(ValueError, match="does not stabilize"):
            quotient_partition(e, [gen], 1, 4)
        with pytest.raises(ValueError, match="does not stabilize"):
            orbit_partition(e, [gen], 1, 4)


def test_quotient_partition_checks_its_generators_in_one_call(monkeypatch):
    # every generator goes to one gf2.stabilizer_check call before any table
    # is built; _half_tables itself checks nothing, so it builds the tables
    # of a map that moves e
    import rmenum.classify as classify

    rec = classify_quotient(3, 6, random.Random(0), max_gens=PIPELINE_MAX_GENS)[2]
    calls = []
    check = classify.stabilizer_check

    def spy(e, *maps):
        calls.append((e, maps))
        return check(e, *maps)

    monkeypatch.setattr(classify, "stabilizer_check", spy)
    quotient_partition(rec.rep, rec.gens, 1, 6)
    assert calls == [(rec.rep, rec.gens)]
    e = parse_anf("123", 4)
    cyclic = AffineMap(Gf2Matrix(4, (0b1000, 0b0001, 0b0010, 0b0100)), 0)
    assert not check(e, cyclic)
    lo, hi = _half_tables(HomogeneousSpace(4, 2), [cyclic], e)
    assert lo.shape == (1, 8) and hi.shape == (1, 8)
    assert len(calls) == 1


def test_quotient_index_and_leader():
    # every coset of a random W has one index, its leader is its least
    # member, and leaders ascend with the index
    rng = random.Random(5)
    for nbits in (1, 4, 9):
        for _ in range(4):
            vectors = [rng.randrange(1 << nbits) for _ in range(rng.randrange(nbits + 1))]
            basis = _echelon(vectors)
            k = span_rank(vectors)
            assert len(basis) == k
            span = {0}
            for w in basis:
                span |= {v ^ w for v in span}
            index = quotient_index(basis, np.arange(1 << nbits, dtype=np.int64))
            assert set(index.tolist()) == set(range(1 << (nbits - k)))
            for g in range(1 << nbits):
                assert index[g] == quotient_index(basis, g)
                assert quotient_leader(basis, int(index[g])) == min(g ^ w for w in span)
            leaders = quotient_leader(basis, np.arange(1 << (nbits - k)))
            assert (np.diff(leaders) > 0).all()


# and of R(2,9) at seeds 0-2: the lower classes run_pipeline partitions. The
# extra cases split at smaller budgets: R(4,8) at seed 0 under 8 generators (a
# 12-block partition into 25), the others under 6.
BUDGET_CASES = [(r, m0, seed) for seed in (0, 1, 2) for r, m0 in (*LADDER_LOWER, (2, 7))]
BUDGET_CASES += [(4, 6, 0), (3, 5, 6), (2, 6, 5), (3, 6, 7)]


@pytest.mark.parametrize(
    "r, m0, seed", BUDGET_CASES, ids=[f"d{r}m{m0}-seed{seed}" for r, m0, seed in BUDGET_CASES]
)
def test_pipeline_budget_keeps_raw_partitions(r, m0, seed):
    # run_pipeline's stabilizer budget already closes every lower class to its
    # full stabilizer orbits: the raw partitions equal those at the file budget
    few = classify_quotient(r, m0, random.Random(seed), max_gens=PIPELINE_MAX_GENS)
    full = classify_quotient(r, m0, random.Random(seed), max_gens=DEFAULT_MAX_GENS)
    for a, b in zip(few, full, strict=True):
        assert a.rep == b.rep
        got = orbit_partition(a.rep, a.gens, r - 2, m0)
        want = orbit_partition(b.rep, b.gens, r - 2, m0)
        assert got.block_of.tobytes() == want.block_of.tobytes(), format_anf(a.rep)
        assert got.first.tobytes() == want.first.tobytes(), format_anf(a.rep)


def random_cycles_permutation(size, max_cycle, rng):
    # a permutation made of short cycles, so the closure finds many blocks
    order = list(range(size))
    rng.shuffle(order)
    table = np.empty(size, dtype=np.uint32)
    start = 0
    while start < size:
        cycle = order[start : start + rng.randint(1, max_cycle)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            table[a] = b
        start += len(cycle)
    return table


def test_closure_matches_reference_on_random_permutations():
    rng = random.Random(3)
    for size in (1, 2, 7, 64, 1000):
        for ngens in (1, 2, 3):
            for max_cycle in (2, 5, size):
                perms = [random_cycles_permutation(size, max_cycle, rng) for _ in range(ngens)]
                assert_same_closure(stacked(perms), size)


def test_closure_forest_is_one_byte_per_index():
    # and so is the class map, for the 6 classes of H^(3)(6)
    cls = QuotientClassification.compute(3, 6)
    assert cls._via.dtype == np.uint8 and cls._via.shape == (cls.space.size,)
    assert cls.class_of.dtype == np.uint8 and cls.class_of.shape == (cls.space.size,)
    space = HomogeneousSpace(6, 2)
    rec = classify_quotient(3, 6, random.Random(0))[2]
    maps = list(rec.gens) + [AffineMap.translation(6, 1 << i) for i in range(6)]
    via = _close_orbits(_half_tables(space, maps, rec.rep), space.size)[3]
    assert via.dtype == np.uint8 and via.shape == (space.size,)


def test_closure_with_more_generators_than_a_byte_marks():
    # 2 + 299 does not fit in a uint8 mark, so via widens to uint16
    rng = random.Random(11)
    perms = [random_cycles_permutation(64, rng.choice((2, 3, 64)), rng) for _ in range(300)]
    via = assert_same_closure(stacked(perms), 64)[3]
    assert via.dtype == np.uint16
    assert int(via.max()) > 255


def test_closure_rejects_a_table_that_is_not_a_permutation():
    # from 0 both tables reach the level {1, 2}; the first maps both to 3.
    # The second case pads with identities so that via is uint16.
    spread = np.array([1, 3, 3, 0], dtype=np.uint32)
    other = np.array([2, 1, 0, 3], dtype=np.uint32)
    identity = np.arange(4, dtype=np.uint32)
    for tables in ([spread, other], [spread, other] + [identity] * 300):
        with pytest.raises(ValueError, match="not a permutation"):
            _close_orbits(stacked(tables), 4)


FOREST_SPACES = [(2, 6), (3, 5), (4, 6)]


def left_products(g, rows):
    # rows of g @ X for every X, given as packed rows of shape (n, m)
    out = np.zeros_like(rows)
    for k, row in enumerate(g.rows):
        for j in range(g.m):
            if row >> j & 1:
                out[:, k] ^= rows[:, j]
    return out


@pytest.mark.parametrize("d, m", FOREST_SPACES)
def test_parent_forest_edges_are_schreier_identities(d, m):
    # _schreier_sample skips an attempt y -> ys by gens[si] as the identity when
    # it is a tree edge (via[ys] == 2 + si), or the reverse edge of an
    # involution (via[y] == 2 + si); both rest on
    # t_v = t_parent(v) @ gens[via[v] - 2], checked on the transposes of one
    # walk from every index: t_v^T = g^T @ t_parent(v)^T
    cls = QuotientClassification.compute(d, m)
    tables = gl_tables(cls)
    parent, pgen = forest_from_via(cls._via, tables)
    tables = expand_all(tables)
    identity = Gf2Matrix.identity(m)
    involutive = [g @ g == identity for g in cls.gens]
    assert involutive == [True, False]  # the transvection and the cyclic shift
    want = reference_close_orbits(tables, cls.space.size)
    assert np.array_equal(cls.class_of, want[0])
    assert np.array_equal(parent, want[2]) and np.array_equal(pgen, want[3])
    first = [cls.space.index_of(rec.rep) for rec in cls.records]
    assert_reference_blocks(first, [rec.size for rec in cls.records], want[1])
    seeds = pgen < 0
    assert np.array_equal(np.flatnonzero(seeds), sorted(first))
    assert (cls._via[seeds] == 1).all()
    transposed, _ = cls._walk(range(cls.space.size), ())
    assert (transposed[seeds] == Gf2Matrix.identity(m).rows).all()
    for gi, g in enumerate(cls.gens):
        edge = np.flatnonzero(pgen == gi)
        p = parent[edge]
        assert np.array_equal(tables[gi][p], edge)
        g_t = g.transpose()
        assert np.array_equal(transposed[edge], left_products(g_t, transposed[p]))
        if involutive[gi]:
            assert np.array_equal(tables[gi][edge], p)
            assert np.array_equal(transposed[p], left_products(g_t, transposed[edge]))


@pytest.mark.parametrize("d, m", FOREST_SPACES)
def test_preimage_walk_returns_the_reference_parent(d, m):
    # one walk from every index: the via marks read at step k are those of
    # each walker's k-th ancestor in the forest forest_from_via reads through
    # expanded inverse tables, or of its class seed once it is there, and
    # the walk stops at the first step that finds every walker at its seed
    cls = QuotientClassification.compute(d, m)
    parent, _ = forest_from_via(cls._via, gl_tables(cls))
    seeds = {cls.space.index_of(rec.rep) for rec in cls.records}
    assert seeds == set(np.flatnonzero(parent < 0).tolist())
    steps = []

    class Recording(np.ndarray):
        def __getitem__(self, nodes):
            steps.append(np.array(nodes))
            return np.asarray(self)[nodes]

    cls._via = cls._via.view(Recording)
    cls._walk(range(cls.space.size), ())
    want = np.arange(cls.space.size)
    for k, nodes in enumerate(steps):
        assert np.array_equal(nodes, want)
        climbing = parent[want] >= 0
        assert climbing.any() == (k < len(steps) - 1)
        want = np.where(climbing, parent[want], want)


@pytest.mark.parametrize("d, m", [(2, 4), (3, 5), (2, 6), (3, 6)])
@pytest.mark.parametrize("window", [None, 1 << 8])
def test_class_members_on_demand_equal_the_class_map(monkeypatch, d, m, window):
    # the members a Schreier draw reads come from one scan of the class map
    # alone, from the class seed in chunks (many of them at 2**8), for ranks
    # in any order and with repeats; every rank of every class up to 2**15
    # indices
    import rmenum.classify as classify

    if window is not None:
        monkeypatch.setattr(classify, "_MEMBER_CHUNK", window)
    cls = QuotientClassification.compute(d, m)
    rng = random.Random(5)
    for cid, rec in enumerate(cls.records):
        want = np.flatnonzero(cls.class_of == cid)
        n = want.size
        if cls.space.size <= 1 << 15:
            ranks = list(range(n))
        else:
            # both ranks at every chunk boundary, the first and last ranks
            # and 400 random ones
            chunk = (want - want[0]) // classify._MEMBER_CHUNK
            crossing = np.flatnonzero(np.diff(chunk)) + 1
            ranks = sorted({0, n - 1, *crossing.tolist(), *(crossing - 1).tolist()})
            ranks += [rng.randrange(n) for _ in range(400)]
        rng.shuffle(ranks)
        ranks += ranks[:3]
        assert cls._members_at(cid, ranks).tolist() == want[ranks].tolist()
        with pytest.raises(ValueError, match="members, rank"):
            cls._members_at(cid, [0, n])


def reference_schreier_sample(cls, forest, cid, rng, max_gens):
    # draws straight from rng over the members listed from the class map, and
    # keeps each Schreier element t_y @ g @ t_ys^-1 that is neither the
    # identity nor one drawn before; forest is (images, parent, pgen), and
    # the transversals are reference products along it, with each inverse
    # checked
    members = np.flatnonzero(cls.class_of == cid)
    if members.size == 1:
        return tuple(AffineMap(g, 0) for g in cls.gens[:max_gens])
    images, parent, pgen = forest
    identity = Gf2Matrix.identity(cls.m)
    out, seen = [], set()
    for _ in range(max_gens * 8):
        if len(out) == max_gens:
            break
        y = int(members[rng.randrange(members.size)])
        si = rng.randrange(len(cls.gens))
        ys = int(images[si][y])
        t_ys = reference_transversal(cls, ys, parent, pgen)
        t_ys_inverse = t_ys.inverse()
        assert t_ys_inverse @ t_ys == identity
        sigma = reference_transversal(cls, y, parent, pgen) @ cls.gens[si] @ t_ys_inverse
        if sigma != identity and sigma.rows not in seen:
            seen.add(sigma.rows)
            out.append(AffineMap(sigma, 0))
    return tuple(out)


# at budget 12 and seed 3 the classes of H^(3)(4) and H^(4)(5) use all 96
# attempts, so rng is not rewound; those of H^(2)(5) stop early and rewind it
REPLAY_CASES = [(3, 5, 16), (2, 6, 16), (3, 6, 16), (3, 4, 12), (4, 5, 12), (2, 5, 12)]


@pytest.mark.parametrize(
    "d, m, max_gens",
    REPLAY_CASES,
    ids=[f"{d}-{m}" if g == 16 else f"{d}-{m}-budget{g}" for d, m, g in REPLAY_CASES],
)
def test_replayed_draws_give_the_generators_of_the_listed_members(d, m, max_gens):
    # every class of more than one member is sampled by drawing all its
    # attempts up front and reading only the drawn members (H^(3)(6) has
    # classes past 2**15 members); the generators and the rng state
    # afterwards must be those of a sampler that draws from the rng itself
    # over the listed members
    cls = QuotientClassification.compute(d, m)
    tables = gl_tables(cls)
    forest = (expand_all(tables), *forest_from_via(cls._via, tables))
    rng, ref_rng = random.Random(3), random.Random(3)
    for cid in range(len(cls.records)):
        want = reference_schreier_sample(cls, forest, cid, ref_rng, max_gens)
        assert cls.stabilizer_gens(cid, rng, max_gens) == want
        assert rng.getstate() == ref_rng.getstate()


def test_closure_widens_the_block_map_past_255_blocks():
    # 1024 singletons need block ids up to 1023: block_of starts as uint8 and
    # widens to uint16 at the 257th block; 2**16 + 1 singletons need uint32
    identity = np.arange(1024, dtype=np.uint32)
    block_of = assert_same_closure(stacked([identity]), 1024)[0]
    assert block_of.dtype == np.uint16 and np.array_equal(block_of, identity)
    size = (1 << 16) + 1
    block_of, first, sizes, _ = _close_orbits(stacked([np.arange(size)]), size)
    assert block_of.dtype == np.uint32 and np.array_equal(block_of, np.arange(size))
    assert np.array_equal(first, np.arange(size)) and (sizes == 1).all()


def test_classification_keeps_two_bytes_per_index():
    # H^(3)(6) has 2**20 indices: the closure keeps its via marks and a uint8
    # class map, and no member list; its traced peak includes the BFS levels
    import tracemalloc

    tracemalloc.start()
    try:
        cls = QuotientClassification.compute(3, 6)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.space.size == 1 << 20
    assert kept < 3.5e6
    assert peak < 6e6


def test_stabilizer_sampling_builds_no_member_array():
    # the largest class of H^(2)(7) has 1,763,776 members; a draw finds its
    # member by rank, so sampling 64 generators per class keeps the traced
    # peak at the closure's (7.0 MB), where a sorted uint32 member array of
    # the class took it to 12.8 MB
    import tracemalloc

    tracemalloc.start()
    try:
        records = classify_quotient(2, 7, random.Random(1), max_gens=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(rec.size for rec in records) == 1763776
    assert [len(rec.gens) for rec in records] == [2, 64, 64, 64]
    assert peak < 9.5e6


def test_negative_max_gens_is_refused(monkeypatch):
    import rmenum.classify as classify

    cls = QuotientClassification.compute(3, 6)

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure or a draw ran before the max_gens check")

    monkeypatch.setattr(classify, "_close_orbits", forbidden)
    monkeypatch.setattr(QuotientClassification, "_schreier_sample", forbidden)
    # the singleton zero class once gave one generator at -1, the others none
    for cid in range(len(cls.records)):
        with pytest.raises(ValueError, match="max_gens must be at least 0, got -1"):
            cls.stabilizer_gens(cid, random.Random(0), -1)


def test_compute_is_the_closure_alone(monkeypatch):
    # compute takes no rng and no budget, draws nothing, and its records are
    # classify_quotient's without generators
    assert list(inspect.signature(QuotientClassification.compute).parameters) == ["d", "m"]
    want = classify_quotient(3, 6)

    def forbidden(*args, **kwargs):
        raise AssertionError("compute drew stabilizer generators")

    monkeypatch.setattr(QuotientClassification, "_schreier_sample", forbidden)
    monkeypatch.setattr(QuotientClassification, "stabilizer_gens", forbidden)
    cls = QuotientClassification.compute(3, 6)
    assert all(rec.gens == () for rec in cls.records)
    assert cls.records == [replace(rec, gens=()) for rec in want]


@pytest.mark.parametrize("d, m", [(2, 5), (3, 6)])
def test_classify_quotient_draws_from_seed_0_by_default(d, m):
    assert classify_quotient(d, m, rng=None) == classify_quotient(d, m, random.Random(0))


def test_classify_quotient_refuses_a_negative_budget_before_the_closure(monkeypatch):
    import rmenum.classify as classify

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure ran before the max_gens check")

    monkeypatch.setattr(classify, "_close_orbits", forbidden)
    monkeypatch.setattr(QuotientClassification, "compute", staticmethod(forbidden))
    for d, m in ((2, 4), (3, 6)):
        with pytest.raises(ValueError, match="max_gens must be at least 0, got -1"):
            classify_quotient(d, m, random.Random(0), max_gens=-1)


def test_equivalence_of_a_form_with_itself_is_the_identity():
    e = parse_anf("123", 4)
    assert equivalence(e, e) == Gf2Matrix.identity(4)


def test_equivalence_monomial_pair():
    e1 = parse_anf("123", 5)
    e2 = parse_anf("145", 5)
    mat = equivalence(e1, e2)
    assert mat is not None
    diff = transform_anf(e1, AffineMap(mat, 0)) ^ e2
    assert diff.is_zero() or diff.degree() <= 2


def test_equivalence_across_classes_is_none():
    # distinct classes: None is a proof, not a search that ran out
    e1 = parse_anf("123", 5)
    e2 = parse_anf("123+145", 5)
    assert equivalence(e1, e2) is None
    assert equivalence(e2, e1) is None


def _quadratic_image(form: int, rows) -> int:
    """Degree-2 part of a quadratic form under x_k <- <rows[k], x>, as a monomial indicator.

    Bit s of form (and of the result) is the coefficient of the monomial with
    mask s. x_i x_j goes to L_i L_j, whose x_a x_b coefficient (a != b) is
    L_i[a] L_j[b] + L_i[b] L_j[a]; the squares x_a x_a = x_a have degree 1.
    """
    out = 0
    for s in range(16):
        if form >> s & 1:
            i, j = (k for k in range(4) if s >> k & 1)
            li, lj = rows[i], rows[j]
            for a in range(4):
                for b in range(a + 1, 4):
                    if (li >> a & lj >> b ^ li >> b & lj >> a) & 1:
                        out ^= 1 << (1 << a | 1 << b)
    return out


def test_equivalence_agrees_with_brute_force_orbits_of_gl_4_2():
    # the orbits of 0, x1x2 and x1x2 + x3x4 under all 20,160 matrices of
    # GL(4,2), formed without the substitution code the classification uses
    group = [
        rows
        for rows in product(range(16), repeat=4)
        if Gf2Matrix(4, rows).is_invertible()
    ]
    assert len(group) == 20160
    pairs = [1 << a | 1 << b for a in range(4) for b in range(a + 1, 4)]
    reps = {"0": 0, "12": 1 << 0b0011, "12+34": 1 << 0b0011 | 1 << 0b1100}
    orbits = {text: {_quadratic_image(form, rows) for rows in group} for text, form in reps.items()}
    assert sorted(map(len, orbits.values())) == [1, 28, 35]
    for bits in range(1 << len(pairs)):
        g = Anf(4, frozenset(s for k, s in enumerate(pairs) if bits >> k & 1))
        indicator = sum(1 << s for s in g.monomials)
        for text, orbit in orbits.items():
            mat = equivalence(parse_anf(text, 4), g)
            assert (mat is not None) == (indicator in orbit)
            if mat is not None:
                assert _quadratic_image(reps[text], mat.rows) == indicator


def test_equivalence_finds_random_images_with_lower_terms():
    # e against the top part of e o A plus random terms of degree <= 2
    rng = random.Random(7)
    space = HomogeneousSpace(6, 3)
    low = [s for s in range(1 << 6) if s.bit_count() < 3]
    for _ in range(6):
        e = space.anf_of(rng.getrandbits(space.nbits))
        noise = Anf(6, frozenset(s for s in low if rng.getrandbits(1)))
        target = homogeneous_part(transform_anf(e, random_invertible(6, rng)), 3) ^ noise
        mat = equivalence(e, target)
        assert mat is not None and mat.is_invertible()
        diff = transform_anf(e, AffineMap(mat, 0)) ^ target
        assert diff.is_zero() or diff.degree() < 3


def test_equivalence_of_a_cubic_and_a_quadratic_is_none():
    assert equivalence(parse_anf("123", 5), parse_anf("12+34", 5)) is None
    assert equivalence(parse_anf("12+34", 5), parse_anf("123+45", 5)) is None


def test_equivalence_refuses_a_space_past_the_cap_before_the_closure(monkeypatch):
    import rmenum.classify as classify

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure ran before the cap check")

    monkeypatch.setattr(classify, "_close_orbits", forbidden)
    with pytest.raises(ValueError, match="C\\(7,3\\) = 35 index bits exceed the cap of 25"):
        equivalence(parse_anf("123", 7), parse_anf("145", 7))


def test_equivalence_refuses_mixed_variable_counts():
    with pytest.raises(ValueError, match="variable count mismatch"):
        equivalence(parse_anf("123", 5), parse_anf("123", 6))
