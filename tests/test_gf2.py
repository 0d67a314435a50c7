import random

import pytest

from rmenum import gf2
from rmenum.boolfn import (
    MAX_M,
    Anf,
    TruthTable,
    anf_from_truth_table,
    parse_anf,
    truth_table_from_anf,
)
from rmenum.gf2 import (
    AffineMap,
    Gf2Matrix,
    apply,
    find_equivalence,
    random_invertible,
    stabilizer_check,
    substituted_tables,
    top_image,
    transform_anf,
)


def rand_table(rng, m):
    return TruthTable(m, rng.getrandbits(1 << m))


def rand_affine(rng, m):
    return AffineMap(random_invertible(m, rng), rng.getrandbits(m))


def test_matmul_against_identity():
    rng = random.Random(1)
    for _ in range(20):
        a = random_invertible(4, rng)
        eye = Gf2Matrix.identity(4)
        assert a @ eye == a
        assert eye @ a == a


def test_inverse_and_rank():
    rng = random.Random(2)
    for m in (1, 3, 5):
        for _ in range(10):
            a = random_invertible(m, rng)
            assert a.rank() == m
            assert a @ a.inverse() == Gf2Matrix.identity(m)
            assert a.inverse() @ a == Gf2Matrix.identity(m)


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        Gf2Matrix(2, (0b01, 0b01)).inverse()


def span_size(rows):
    """Number of distinct subset-XORs of rows, by listing them."""
    span = {0}
    for row in rows:
        span |= {v ^ row for v in span}
    return len(span)


def check_rank_and_inverse(a, want_inverse):
    """a.rank() from the span size; a.inverse() is want_inverse, or raises when that is None."""
    assert 1 << a.rank() == span_size(a.rows)
    assert a.is_invertible() == (want_inverse is not None)
    if want_inverse is None:
        with pytest.raises(ValueError, match="singular"):
            a.inverse()
    else:
        assert a.inverse() == want_inverse


def test_rank_and_inverse_of_every_small_matrix():
    # every A with m <= 3 (512 for m = 3) against the B with B @ A == I,
    # found by trying every B
    for m in range(4):
        eye = Gf2Matrix.identity(m)
        mats = [
            Gf2Matrix(m, tuple(code >> (m * k) & ((1 << m) - 1) for k in range(m)))
            for code in range(1 << (m * m))
        ]
        left_inverse = {}
        for b in mats:
            for a in mats:
                if b @ a == eye:
                    assert a not in left_inverse
                    left_inverse[a] = b
        assert len(left_inverse) == {0: 1, 1: 1, 2: 6, 3: 168}[m]  # |GL(m,2)|
        for a in mats:
            check_rank_and_inverse(a, left_inverse.get(a))


def test_rank_and_inverse_of_random_matrices():
    rng = random.Random(12)
    for m in range(4, 10):
        eye = Gf2Matrix.identity(m)
        for _ in range(8):
            a = Gf2Matrix(m, tuple(rng.getrandbits(m) for _ in range(m)))
            if 1 << m != span_size(a.rows):
                check_rank_and_inverse(a, None)
                continue
            inv = a.inverse()
            assert inv @ a == eye and a @ inv == eye
            check_rank_and_inverse(a, inv)
            # a singular one: row k replaced by a sum of other rows
            k = rng.randrange(m)
            others = [row for i, row in enumerate(a.rows) if i != k]
            dep = 0
            for row in rng.sample(others, rng.randrange(m)):
                dep ^= row
            rows = list(a.rows)
            rows[k] = dep
            check_rank_and_inverse(Gf2Matrix(m, tuple(rows)), None)


def mul_vec(a, x):
    # A x over GF(2): bit k is the parity of row k and x
    y = 0
    for k, row in enumerate(a.rows):
        y |= ((row & x).bit_count() & 1) << k
    return y


def test_mul_vec_matches_columns():
    rng = random.Random(3)
    a = random_invertible(5, rng)
    for _ in range(20):
        x = rng.getrandbits(5)
        want = 0
        for j in range(5):
            if (x >> j) & 1:
                want ^= a.column(j)
        assert mul_vec(a, x) == want


def test_transpose_involution():
    rng = random.Random(4)
    a = random_invertible(6, rng)
    assert a.transpose().transpose() == a


def test_matrix_text_round_trip():
    rng = random.Random(5)
    a = random_invertible(4, rng)
    assert Gf2Matrix.from_text(a.to_text()) == a
    with pytest.raises(ValueError):
        Gf2Matrix.from_text("01 10 11")  # rows shorter than the count
    with pytest.raises(ValueError):
        Gf2Matrix.from_text("0a 10")


@pytest.mark.parametrize(
    "text",
    [
        "+1 01",
        "1_0 010 001",
        "12 01",
        "-1 01",
        "0b1 010 001",
        "\u0661\u0660 01",  # Arabic-Indic digits
        "10 1",  # one row short
        "10 100",  # one row long
    ],
)
def test_matrix_text_refuses_what_int_would_parse(text):
    # int(row, 2) alone takes a sign, an underscore, a prefix or any Unicode
    # digit and, in base 2, fails only on "2"; rows must also be m long
    with pytest.raises(ValueError, match="bad matrix row"):
        Gf2Matrix.from_text(text)


def test_matrix_text_reads_the_leftmost_character_as_x1():
    # both ways, for any matrix, singular or not
    rng = random.Random(6)
    for m in range(1, 10):
        for _ in range(20):
            rows = tuple(rng.getrandbits(m) for _ in range(m))
            text = " ".join("".join(str(row >> j & 1) for j in range(m)) for row in rows)
            assert Gf2Matrix.from_text(text) == Gf2Matrix(m, rows)
            assert Gf2Matrix(m, rows).to_text() == text


def test_matrix_text_builds_no_table_past_the_m_read():
    gf2._row_text.cache_clear()
    assert Gf2Matrix.from_text("100 010 001") == Gf2Matrix.identity(3)
    assert Gf2Matrix.identity(4).to_text() == "1000 0100 0010 0001"
    assert gf2._row_text.cache_info().currsize == 2
    # past the package's variable cap there is no text form and no table
    wide = " ".join(["0" * (MAX_M + 1)] * (MAX_M + 1))
    with pytest.raises(ValueError, match="no text form"):
        Gf2Matrix.from_text(wide)
    assert gf2._row_text.cache_info().currsize == 2


def test_apply_pointwise():
    # f(x) = x1, map x -> (x2, x1): image should be table of x2
    swap = Gf2Matrix(2, (0b10, 0b01))
    f = truth_table_from_anf(parse_anf("1", 2))
    g = apply(f, swap)
    assert g == truth_table_from_anf(parse_anf("2", 2))


def test_transform_anf_matches_apply():
    # 53 forms for each m: 424 cases, about half with a nonzero shift
    rng = random.Random(8)
    for m in range(1, 9):
        forms = [Anf(m, frozenset()), Anf(m, frozenset([0])), Anf(m, frozenset([0, 1]))]
        forms += [anf_from_truth_table(rand_table(rng, m)) for _ in range(40)]
        # sparse forms, the shape stabilizer checks and action columns see
        forms += [Anf(m, frozenset(rng.getrandbits(m) for _ in range(3))) for _ in range(10)]
        for f in forms:
            a = rand_affine(rng, m)
            if rng.random() < 0.5:
                a = AffineMap(a.matrix, rng.randrange(1, 1 << m))  # a nonzero shift
            want = anf_from_truth_table(apply(truth_table_from_anf(f), a))
            assert transform_anf(f, a) == want


def test_transform_anf_rejects_mixed_variable_counts():
    with pytest.raises(ValueError, match="variable count"):
        transform_anf(parse_anf("12", 3), Gf2Matrix.identity(4))


def test_substituted_tables_are_the_images_of_the_variables():
    rng = random.Random(11)
    for m in range(1, 7):
        a = rand_affine(rng, m)
        for k, table in enumerate(substituted_tables(a)):
            x_k = truth_table_from_anf(Anf(m, frozenset([1 << k])))
            assert table == apply(x_k, a).bits


def test_substitution_never_raises_degree():
    rng = random.Random(9)
    for _ in range(30):
        m = rng.randrange(1, 6)
        f = anf_from_truth_table(rand_table(rng, m))
        a = rand_affine(rng, m)
        assert transform_anf(f, a).degree() <= max(f.degree(), 0)


def test_top_image_drops_lower_terms():
    a = AffineMap(Gf2Matrix.identity(3), 0b001)  # x1 -> x1 + 1
    f = parse_anf("12", 3)
    # (x1+1)x2 = x1x2 + x2; top part stays x1x2
    assert top_image(f, a) == f


def test_stabilizer_check():
    rng = random.Random(10)
    e = parse_anf("12", 4)
    swap12 = Gf2Matrix(4, (0b0010, 0b0001, 0b0100, 0b1000))
    assert stabilizer_check(e, swap12)
    send1_to_3 = Gf2Matrix(4, (0b0100, 0b0010, 0b0001, 0b1000))
    assert not stabilizer_check(e, send1_to_3)
    # the zero form is stabilized by everything invertible
    for _ in range(5):
        assert stabilizer_check(parse_anf("0", 4), random_invertible(4, rng))


def test_random_invertible_is_seed_deterministic():
    a = random_invertible(5, random.Random(42))
    b = random_invertible(5, random.Random(42))
    assert a == b
    assert a.is_invertible()


def test_find_equivalence_monomial_pair():
    e1 = parse_anf("123", 5)
    e2 = parse_anf("145", 5)
    mat = find_equivalence(e1, e2, 2, 200000, random.Random(0))
    assert mat is not None
    diff = transform_anf(e1, AffineMap(mat, 0)) ^ e2
    assert diff.is_zero() or diff.degree() <= 2


def test_find_equivalence_identity_short_circuit():
    e = parse_anf("123", 4)
    mat = find_equivalence(e, e, 2, 10, random.Random(0))
    assert mat == Gf2Matrix.identity(4)


def test_find_equivalence_budget_exhaustion():
    # distinct classes: a search that cannot succeed returns None
    e1 = parse_anf("123", 5)
    e2 = parse_anf("123+145", 5)
    assert find_equivalence(e1, e2, 2, 2000, random.Random(0)) is None


def random_singular(m, rng):
    # a random matrix with one row the XOR of two others (or zero when m = 1)
    rows = [rng.getrandbits(m) for _ in range(m)]
    k = rng.randrange(m)
    rows[k] = rows[(k + 1) % m] ^ rows[(k + 2) % m] if m > 2 else 0
    return Gf2Matrix(m, tuple(rows))


def random_form(rng, m, degree=None):
    # a homogeneous form of the given degree, or any form when degree is None
    if degree is None:
        return anf_from_truth_table(rand_table(rng, m))
    masks = [s for s in range(1 << m) if s.bit_count() == degree]
    return Anf(m, frozenset(s for s in masks if rng.random() < 0.5))


def test_stabilizer_check_matches_top_image():
    # the coefficient check against the definition it replaced, on zero,
    # homogeneous and non-homogeneous forms, under invertible maps with and
    # without a shift, singular maps, and maps that do stabilize: the
    # identity, translations, and the linear maps in the stabilizer found by
    # trying random ones. Each map is checked alone and the whole list in
    # one call, which passes exactly when every map does.
    rng = random.Random(12)
    for m in range(1, 9):
        forms = [Anf(m, frozenset()), Anf(m, frozenset([0]))]
        for d in range(1, m + 1):
            e = random_form(rng, m, d)
            forms += [e, e ^ Anf(m, frozenset([rng.getrandbits(m) % ((1 << d) - 1)]))]
        forms += [random_form(rng, m) for _ in range(4)]
        for e in forms:
            maps = [AffineMap.identity(m), AffineMap.translation(m, rng.randrange(1 << m))]
            maps += [rand_affine(rng, m) for _ in range(4)]
            maps += [AffineMap(random_invertible(m, rng), 0) for _ in range(4)]
            maps += [AffineMap(random_singular(m, rng), rng.getrandbits(m)) for _ in range(3)]
            maps += [
                a
                for a in (AffineMap(random_invertible(m, rng), 0) for _ in range(60))
                if not e.is_zero() and top_image(e, a) == e
            ][:3]
            wants = []
            for a in maps:
                want = a.matrix.is_invertible() and (e.is_zero() or top_image(e, a) == e)
                assert stabilizer_check(e, a) == want, (e, a)
                wants.append(want)
            assert stabilizer_check(e, *maps) == all(wants)
            passing = [a for a, want in zip(maps, wants) if want]
            assert stabilizer_check(e, *passing)
            for a, want in zip(maps, wants):
                if not want:  # one failing map, last among maps that pass
                    assert not stabilizer_check(e, *passing, a)
            assert stabilizer_check(e)  # no maps: nothing fails
        # like top_image, it refuses a map over another variable count, alone
        # or among maps that pass, and for the zero form too
        with pytest.raises(ValueError, match="variable count"):
            stabilizer_check(Anf(m, frozenset([1])), AffineMap.identity(m + 1))
        with pytest.raises(ValueError, match="variable count"):
            stabilizer_check(Anf(m, frozenset()), AffineMap.identity(m), Gf2Matrix.identity(m + 1))
