import random

import pytest

from rmenum.boolfn import (
    Anf,
    HomogeneousSpace,
    TruthTable,
    anf_from_truth_table,
    attach_top,
    decompose_top,
    format_anf,
    homogeneous_part,
    mobius_transform,
    monomial_table,
    parse_anf,
    truth_table_from_anf,
    variable_table,
)


def test_variable_table_bit_convention():
    # x_1 is the least significant coordinate of the point index
    assert variable_table(1, 3) == 0b10101010
    assert variable_table(2, 3) == 0b11001100
    assert variable_table(3, 3) == 0b11110000


def test_monomial_table_is_product():
    # x1*x2 on 2 vars is 1 only at point index 3
    assert monomial_table(0b11, 2) == 0b1000
    assert monomial_table(0, 3) == 0xFF  # empty product


def test_truth_table_weight_and_xor():
    t = TruthTable(3, 0b10101010)
    assert t.weight() == 4
    assert (t ^ TruthTable(3, 0xFF)).weight() == 4
    assert t.evaluate(1) == 1
    assert t.evaluate(0) == 0


def test_mobius_is_involution():
    rng = random.Random(7)
    for m in range(6):
        for _ in range(20):
            bits = rng.getrandbits(1 << m)
            assert mobius_transform(mobius_transform(bits, m), m) == bits


def test_anf_truth_table_round_trip():
    rng = random.Random(11)
    for m in range(1, 7):
        bits = rng.getrandbits(1 << m)
        t = TruthTable(m, bits)
        assert truth_table_from_anf(anf_from_truth_table(t)) == t


def test_anf_matches_direct_evaluation():
    # f = x1x2 + x3 on 3 vars, evaluated point by point
    f = Anf(3, frozenset({0b011, 0b100}))
    t = truth_table_from_anf(f)
    for x in range(8):
        want = ((x & 1) & ((x >> 1) & 1)) ^ ((x >> 2) & 1)
        assert t.evaluate(x) == want


def test_degree_and_homogeneous():
    f = Anf(4, frozenset({0b0011, 0b1100}))
    assert f.degree() == 2
    assert f.is_homogeneous(2)
    g = f ^ Anf(4, frozenset({0b0001}))
    assert g.degree() == 2
    assert not g.is_homogeneous(2)
    assert Anf(4, frozenset()).is_zero()


def test_homogeneous_part():
    f = parse_anf("123+12+3", 3)
    assert homogeneous_part(f, 3) == parse_anf("123", 3)
    assert homogeneous_part(f, 2) == parse_anf("12", 3)
    assert homogeneous_part(f, 1) == parse_anf("3", 3)
    assert homogeneous_part(f, 0).is_zero()


def test_decompose_attach_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(2, 6)
        bits = rng.getrandbits(1 << m)
        p = anf_from_truth_table(TruthTable(m, bits))
        e, f = decompose_top(p)
        assert e.m == f.m == m - 1
        assert attach_top(e, f) == p


def test_attach_top_is_e_plus_f_times_top():
    e = parse_anf("12", 3)
    f = parse_anf("1+3", 3)
    p = attach_top(e, f)
    # p = x1x2 + (x1 + x3) x4 over 4 vars
    assert p == parse_anf("12+14+34", 4)


def test_parse_format_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randrange(1, 9)
        bits = rng.getrandbits(1 << m)
        raw = anf_from_truth_table(TruthTable(m, bits))
        # the monomial grammar has no constant token, so drop mask 0
        p = Anf(m, frozenset(s for s in raw.monomials if s))
        assert parse_anf(format_anf(p), m) == p


def test_format_anf_rejects_constant():
    with pytest.raises(ValueError, match="constant"):
        format_anf(Anf(3, frozenset({0})))


def test_parse_anf_examples():
    assert parse_anf("0", 5).is_zero()
    assert parse_anf("12+34", 4) == Anf(4, frozenset({0b0011, 0b1100}))
    assert parse_anf("123", 5) == Anf(5, frozenset({0b00111}))


def test_parse_anf_errors():
    with pytest.raises(ValueError, match="repeated variable"):
        parse_anf("112", 3)
    with pytest.raises(ValueError, match="repeated monomial"):
        parse_anf("12+12", 3)
    with pytest.raises(ValueError):
        parse_anf("102", 3)
    with pytest.raises(ValueError):
        parse_anf("14", 3)  # x4 does not exist on 3 vars
    # str.isdigit takes these, and int() reads "\u0663" as 3 and fails on "\u00b2"
    for bad in ("1\u0663", "\u00b2"):
        with pytest.raises(ValueError, match="bad monomial"):
            parse_anf(bad, 4)


def test_homogeneous_space_indexing():
    space = HomogeneousSpace(4, 2)
    assert space.nbits == 6
    assert space.size == 64
    for idx in range(space.size):
        f = space.anf_of(idx)
        assert f.is_zero() or f.is_homogeneous(2)
        assert space.index_of(f) == idx


def test_homogeneous_space_degenerate():
    assert HomogeneousSpace(2, 3).size == 1
    assert HomogeneousSpace(0, 1).size == 1
