import hashlib
import io
import random
from dataclasses import replace
from functools import reduce
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
    _action_table,
    _close_orbits,
    _is_involution,
    classify_quotient,
    gl2_generators,
    ingest_classification,
    merge_by_enumerator,
    orbit_partition,
    quotient_index,
    quotient_leader,
    quotient_partition,
    write_classification,
)
from rmenum.cosetenum import batch_coset_enumerators
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
    records = classify_quotient(2, m, max_gens=0)
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


def forest_from_via(via, tables):
    # parent and generator of every index, read from the via marks through
    # inverse tables (-1 for seeds): the parent of v is the preimage of v under
    # the generator that reached it
    pgen = via.astype(np.int64) - 2
    parent = np.full(via.size, -1, dtype=np.int64)
    for gi, table in enumerate(map(expand, tables)):
        inverse = np.empty_like(table)
        inverse[table] = np.arange(table.size, dtype=table.dtype)
        hit = pgen == gi
        parent[hit] = inverse[hit]
    pgen[pgen < 0] = -1
    return parent, pgen


def gl_tables(cls):
    return [_action_table(cls.space, AffineMap(g, 0)) for g in cls.gens]


def reference_transversal(cls, idx, parent, pgen):
    # validated products of the edge generators along the parent forest
    path = []
    node = idx
    while parent[node] >= 0:
        path.append(cls.gens[int(pgen[node])])
        node = int(parent[node])
    return reduce(lambda acc, g: acc @ g, reversed(path), Gf2Matrix.identity(cls.m))


def test_transversal_property():
    for d in (2, 3):
        cls = QuotientClassification.compute(d, 5)
        parent, pgen = forest_from_via(cls._via, gl_tables(cls))
        for idx in range(cls.space.size):
            cid = int(cls.class_of[idx])
            rep = cls.records[cid].rep
            mat = cls.transversal(idx)
            assert mat == reference_transversal(cls, idx, parent, pgen)
            moved = homogeneous_part(transform_anf(rep, AffineMap(mat, 0)), d)
            assert cls.space.index_of(moved) == idx


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


def assert_half_tables(space, a, e=None):
    # two tables of 2**(N//2) and 2**(N - N//2) entries that expand to the reference
    lo, hi = _action_table(space, a, e)
    assert len(lo) == 2 ** (space.nbits // 2)
    assert len(lo) * len(hi) == space.size
    assert np.array_equal(expand((lo, hi)), reference_action_table(space, a, e))


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
            # the orbit_partition case: unit translations above a degree-(d+1) form
            upper = HomogeneousSpace(m, d + 1)
            e = upper.anf_of(rng.randrange(1, upper.size))
            for i in range(m):
                assert_half_tables(space, AffineMap.translation(m, 1 << i), e)


@pytest.mark.parametrize("m", range(2, 8))
def test_inverse_half_tables_invert_the_gl_generators(m):
    # QuotientClassification reads a parent as one lookup in the inverse's halves
    for d in range(1, m + 1):
        if comb(m, d) > 21:
            continue
        space = HomogeneousSpace(m, d)
        identity = np.arange(space.size, dtype=np.uint32)
        for g in gl2_generators(m):
            forward = expand(_action_table(space, AffineMap(g, 0)))
            inverse = expand(_action_table(space, AffineMap(g.inverse(), 0)))
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
    assert sum(len(b) for b in part.blocks) == 1024
    # translations fix top parts over e = 0, so blocks are plain GL classes
    assert sorted(len(b) for b in part.blocks) == sorted(
        rec.size for rec in classify_quotient(2, 5)
    )


def test_orbit_partition_blocks_are_orbits():
    e = parse_anf("123", 5)
    cls = QuotientClassification.compute(3, 5)
    rec = next(r for r in cls.records if r.rep == e)
    part = orbit_partition(e, rec.gens, 1, 5)
    space = HomogeneousSpace(5, 2)
    # action by any stabilizer generator maps each block into itself
    for a in rec.gens[:4]:
        for block in part.blocks[:6]:
            for g in block[:3]:
                assert part.block_of[coset_action(e, g, a, 1)] == part.block_of[g]
    assert sum(len(b) for b in part.blocks) == space.size


def test_quotient_partition_without_generators_is_singletons():
    # W_e of x1x2 is spanned by its derivatives x2 and x1, so H^(1)(3)/W_e
    # has 2 indices, each its own block; expanded, the blocks are the cosets
    e = parse_anf("12", 3)
    part = quotient_partition(e, [], 0, 3)
    assert part.basis == (0b010, 0b001)
    assert part.block_count == 2
    assert all(len(b) == 1 for b in part.blocks)
    full = orbit_partition(e, [], 0, 3)
    assert [set(b) for b in full.blocks] == [{0, 1, 2, 3}, {4, 5, 6, 7}]


def test_merge_by_enumerator():
    e = parse_anf("0", 4)
    part = orbit_partition(e, gl2_generators(4), 1, 4)
    space = HomogeneousSpace(4, 2)
    reps = [space.anf_of(b[0]) for b in part.blocks]
    enums = batch_coset_enumerators(reps, 1, 4)
    merged, menums = merge_by_enumerator(part, enums)
    assert merged.block_count <= part.block_count
    assert len(menums) == merged.block_count
    assert sum(len(b) for b in merged.blocks) == space.size
    # every index still maps to the enumerator its block carries
    for bid, block in enumerate(merged.blocks):
        for g in block[:4]:
            assert merged.block_of[g] == bid


def tuple_merge_reference(partition, enums):
    # the merge as member tuples of Python ints: groups of equal coeffs,
    # numbered by their least member
    groups = {}
    for bid, enum in enumerate(enums):
        groups.setdefault(enum.coeffs, []).append(bid)
    merged = []
    for bids in groups.values():
        members = sorted(x for bid in bids for x in partition.blocks[bid])
        merged.append((tuple(members), enums[bids[0]]))
    merged.sort(key=lambda item: item[0][0])
    block_of = np.full(partition.block_of.shape, -1, dtype=np.int32)
    for mid, (members, _) in enumerate(merged):
        block_of[list(members)] = mid
    return block_of, tuple(members for members, _ in merged), [enum for _, enum in merged]


@pytest.mark.parametrize("r, m", [(3, 6), (2, 7), (4, 7), (3, 7), (2, 8), (3, 8)])
def test_merge_by_enumerator_matches_tuple_reference(monkeypatch, r, m):
    import rmenum.pipeline as pipeline

    seen = []

    def checked(partition, enums):
        blocks = partition.blocks
        assert [b[0] for b in blocks] == partition.first.tolist()
        assert sorted(partition.first.tolist()) == partition.first.tolist()
        merged, menums = merge_by_enumerator(partition, enums)
        block_of, members, ref_enums = tuple_merge_reference(partition, enums)
        assert merged.block_of.dtype == block_of.dtype
        assert np.array_equal(merged.block_of, block_of)
        assert merged.blocks == members
        assert merged.first.tolist() == [b[0] for b in members]
        assert menums == ref_enums
        seen.append(partition.e)
        return merged, menums

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

    cls = QuotientClassification.compute(3, 6, max_gens=0)
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
    "d, m, digest",
    [
        (3, 6, "6c094962fac17002e1dae0273f4c45b11fa3c9a2958ee20073609508864f1a58"),
        (2, 7, "2da5d70e2c03a1cfc878aaa7d7b039ba34a0f9d8320945ca4b7e127d4645fb15"),
    ],
    ids=["d3m6", "d2m7"],
)
def test_classification_file_is_pinned(d, m, digest):
    # pins classes, sizes, representatives, generators and the RNG stream
    buf = io.StringIO()
    write_classification(buf, classify_quotient(d, m, random.Random(1)), d, m, seed=1)
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
    for table, flag in zip(map(expand, tables), involutive):
        if flag:
            assert np.array_equal(table[table], np.arange(size))
    want = reference_close_orbits([expand(t) for t in tables], size)
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
    tables = [_action_table(space, a) for a in maps]
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
        tables = [_action_table(space, a, rec.rep) for a in maps]
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
        assert len(involutive) == len(tables)
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
    gl = [_action_table(space, AffineMap(g, 0)) for g in gl2_generators(m0)]
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
        consts = [
            int(_action_table(space, AffineMap.translation(m0, 1 << i), rec.rep)[0][0])
            for i in range(m0)
        ]
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
                tables = [
                    (random_cycles_permutation(size, max_cycle, rng), [0]) for _ in range(ngens)
                ]
                assert_same_closure(tables, size)


def test_closure_forest_is_one_byte_per_index():
    # and so is the class map, for the 6 classes of H^(3)(6)
    cls = QuotientClassification.compute(3, 6, random.Random(0))
    assert cls._via.dtype == np.uint8 and cls._via.shape == (cls.space.size,)
    assert cls.class_of.dtype == np.uint8 and cls.class_of.shape == (cls.space.size,)
    space = HomogeneousSpace(6, 2)
    rec = classify_quotient(3, 6, random.Random(0))[2]
    maps = list(rec.gens) + [AffineMap.translation(6, 1 << i) for i in range(6)]
    via = _close_orbits([_action_table(space, a, rec.rep) for a in maps], space.size)[3]
    assert via.dtype == np.uint8 and via.shape == (space.size,)


def test_closure_with_more_generators_than_a_byte_marks():
    # 2 + 299 does not fit in a uint8 mark, so via widens to uint16
    rng = random.Random(11)
    tables = [
        (random_cycles_permutation(64, rng.choice((2, 3, 64)), rng), [0]) for _ in range(300)
    ]
    via = assert_same_closure(tables, 64)[3]
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
            _close_orbits([(table, [0]) for table in tables], 4)


FOREST_SPACES = [(2, 6), (3, 5), (4, 6)]


@pytest.mark.parametrize("d, m", FOREST_SPACES)
def test_parent_forest_edges_are_schreier_identities(d, m):
    # _schreier_sample skips an attempt y -> ys by gens[si] as the identity when
    # it is a tree edge (via[ys] == 2 + si), or the reverse edge of an
    # involution (via[y] == 2 + si); both rest on
    # t_v = t_parent(v) @ gens[via[v] - 2]
    cls = QuotientClassification.compute(d, m, random.Random(0))
    tables = gl_tables(cls)
    parent, pgen = forest_from_via(cls._via, tables)
    tables = [expand(t) for t in tables]
    identity = Gf2Matrix.identity(m)
    involutive = [g @ g == identity for g in cls.gens]
    assert involutive == [True, False]  # the transvection and the cyclic shift
    want = reference_close_orbits(tables, cls.space.size)
    assert np.array_equal(cls.class_of, want[0])
    assert np.array_equal(parent, want[2]) and np.array_equal(pgen, want[3])
    first = [cls.space.index_of(rec.rep) for rec in cls.records]
    assert_reference_blocks(first, [rec.size for rec in cls.records], want[1])
    seeds = set(first)
    for v in range(cls.space.size):
        if v in seeds:
            assert cls._via[v] == 1
            continue
        p, gi = int(parent[v]), int(pgen[v])
        assert int(tables[gi][p]) == v
        g = cls.gens[gi]
        assert cls.transversal(v) == cls.transversal(p) @ g
        if involutive[gi]:
            assert int(tables[gi][v]) == p
            assert cls.transversal(p) == cls.transversal(v) @ g


@pytest.mark.parametrize("d, m", FOREST_SPACES)
def test_preimage_walk_returns_the_reference_parent(d, m):
    cls = QuotientClassification.compute(d, m, random.Random(0))
    tables = [expand(t) for t in gl_tables(cls)]
    _, _, parent, _ = reference_close_orbits(tables, cls.space.size)
    seeds = {cls.space.index_of(rec.rep) for rec in cls.records}
    assert seeds == {v for v in range(cls.space.size) if parent[v] < 0}
    for v in range(cls.space.size):
        if v not in seeds:
            assert cls._parent_of(v) == parent[v]


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
    cls = QuotientClassification.compute(d, m, max_gens=0)
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
        assert cls._members_at(cid, ranks) == want[ranks].tolist()
        with pytest.raises(ValueError, match="members, rank"):
            cls._members_at(cid, [0, n])


def reference_schreier_sample(cls, cid, rng, max_gens):
    # draws straight from rng over the members listed from the class map, and
    # keeps each Schreier element t_y @ g @ t_ys^-1 that is neither the
    # identity nor one drawn before
    members = np.flatnonzero(cls.class_of == cid)
    if members.size == 1:
        return tuple(AffineMap(g, 0) for g in cls.gens[:max_gens])
    images = [expand(halves) for halves in gl_tables(cls)]
    identity = Gf2Matrix.identity(cls.m)
    out, seen = [], set()
    for _ in range(max_gens * 8):
        if len(out) == max_gens:
            break
        y = int(members[rng.randrange(members.size)])
        si = rng.randrange(len(cls.gens))
        ys = int(images[si][y])
        sigma = cls.transversal(y) @ cls.gens[si] @ cls.transversal(ys).inverse()
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
    cls = QuotientClassification.compute(d, m, max_gens=0)
    rng, ref_rng = random.Random(3), random.Random(3)
    for cid in range(len(cls.records)):
        want = reference_schreier_sample(cls, cid, ref_rng, max_gens)
        assert cls.stabilizer_gens(cid, rng, max_gens) == want
        assert rng.getstate() == ref_rng.getstate()


def test_closure_widens_the_block_map_past_255_blocks():
    # 1024 singletons need block ids up to 1023: block_of starts as uint8 and
    # widens to uint16 at the 257th block; 2**16 + 1 singletons need uint32
    identity = np.arange(1024, dtype=np.uint32)
    block_of = assert_same_closure([(identity, [0])], 1024)[0]
    assert block_of.dtype == np.uint16 and np.array_equal(block_of, identity)
    size = (1 << 16) + 1
    block_of, first, sizes, _ = _close_orbits([(np.arange(size, dtype=np.uint32), [0])], size)
    assert block_of.dtype == np.uint32 and np.array_equal(block_of, np.arange(size))
    assert np.array_equal(first, np.arange(size)) and (sizes == 1).all()


def test_classification_keeps_two_bytes_per_index():
    # H^(3)(6) has 2**20 indices: the closure keeps its via marks and a uint8
    # class map, and no member list; its traced peak includes the BFS levels
    import tracemalloc

    tracemalloc.start()
    try:
        cls = QuotientClassification.compute(3, 6, max_gens=0)
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
        cls = QuotientClassification.compute(2, 7, random.Random(1), max_gens=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(rec.size for rec in cls.records) == 1763776
    assert [len(rec.gens) for rec in cls.records] == [2, 64, 64, 64]
    assert peak < 9.5e6


def test_negative_max_gens_is_refused(monkeypatch):
    import rmenum.classify as classify

    cls = QuotientClassification.compute(3, 6, max_gens=0)

    def forbidden(*args, **kwargs):
        raise AssertionError("a closure or a draw ran before the max_gens check")

    monkeypatch.setattr(classify, "_close_orbits", forbidden)
    monkeypatch.setattr(QuotientClassification, "_schreier_sample", forbidden)
    with pytest.raises(ValueError, match="max_gens must be at least 0, got -1"):
        QuotientClassification.compute(3, 6, max_gens=-1)
    with pytest.raises(ValueError, match="max_gens must be at least 0, got -1"):
        classify_quotient(2, 4, max_gens=-1)
    # the singleton zero class once gave one generator at -1, the others none
    for cid in range(len(cls.records)):
        with pytest.raises(ValueError, match="max_gens must be at least 0, got -1"):
            cls.stabilizer_gens(cid, random.Random(0), -1)
