import io
import random

import numpy as np
import pytest

from rmenum.wenum import (
    WeightEnumerator,
    _digit_width,
    _kronecker_pack,
    _kronecker_unpack,
    _pack_coeffs,
    distribution_text,
    macwilliams,
    mul,
    polynomial_text,
    read_distribution,
    scale,
    square,
    validate_code_enumerator,
    write_distribution,
)

R13 = WeightEnumerator.from_pairs(8, [(0, 1), (4, 14), (8, 1)])


def test_constructor_checks():
    with pytest.raises(ValueError):
        WeightEnumerator(3, (1, 0, 0))
    with pytest.raises(ValueError):
        WeightEnumerator(1, (1, -2))
    with pytest.raises(ValueError):
        WeightEnumerator.from_pairs(4, [(5, 1)])


def test_total_and_min_weight():
    assert R13.total() == 16
    assert R13.min_weight() == 4
    assert WeightEnumerator.zero(4).min_weight() is None
    assert R13.nonzero_items() == [(0, 1), (4, 14), (8, 1)]


def test_add_and_scale():
    two = R13 + R13
    assert two == R13.scale(2) == 2 * R13
    with pytest.raises(ValueError):
        R13 + WeightEnumerator.zero(4)
    with pytest.raises(ValueError):
        R13.scale(-1)


def test_mul_is_convolution():
    sq = square(R13)
    assert sq.n == 16
    assert sq.coeffs[0] == 1
    assert sq.coeffs[4] == 28
    assert sq.coeffs[8] == 14 * 14 + 2
    assert sq.total() == 16 * 16
    assert mul(R13, WeightEnumerator.from_pairs(0, [(0, 1)])) == R13


def schoolbook(a, b):
    out = [0] * (a.n + b.n + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return tuple(out)


def test_mul_matches_schoolbook_convolution():
    rng = random.Random(41)

    def rand_enum(n):
        # coefficient sizes from zero to well past 2**64, with gaps
        bits = rng.choice((0, 1, 7, 63, 64, 65, 130, 300))
        return WeightEnumerator(n, [rng.getrandbits(bits) * rng.randrange(2) for _ in range(n + 1)])

    for _ in range(200):
        a, b = rand_enum(rng.randrange(0, 40)), rand_enum(rng.randrange(0, 40))
        assert mul(a, b).coeffs == schoolbook(a, b)
        assert square(a).coeffs == schoolbook(a, a)
    big = WeightEnumerator(2, [2**200 + 3, 0, 2**65])
    zero = WeightEnumerator.zero(5)
    one = WeightEnumerator(0, [1])
    assert mul(big, zero) == mul(zero, big) == WeightEnumerator.zero(7)
    assert mul(big, one) == big
    assert mul(one, one) == one
    assert mul(WeightEnumerator(0, [2**70]), WeightEnumerator(0, [3])).coeffs == (3 * 2**70,)
    line = WeightEnumerator(1, [1, 1])
    assert mul(big, line).coeffs == schoolbook(big, line)


def test_kronecker_pack_unpack_round_trip():
    rng = random.Random(43)
    assert [_digit_width(t) for t in (0, 1, 255, 256, 2**64 - 1, 2**64)] == [8, 8, 8, 16, 64, 72]
    for width in (8, 24, 64, 72, 264):
        for n in (0, 1, 17):
            coeffs = [rng.getrandbits(width) for _ in range(n + 1)]
            packed = _pack_coeffs(coeffs, width)
            assert packed == sum(c << (width * w) for w, c in enumerate(coeffs))
            assert _kronecker_unpack(packed, n, width) == coeffs
    rows = np.array([[0, 5, 2**40], [7, 0, 1]], dtype=np.int64)
    for width in (48, 64, 128):
        for row, packed in zip(rows.tolist(), _kronecker_pack(rows, width)):
            assert _kronecker_unpack(packed, 2, width) == row


def test_kronecker_unpack_overflow_raises():
    assert _kronecker_unpack(2**24 - 1, 2, 8) == [255, 255, 255]
    with pytest.raises(ValueError, match="3 digits of 8 bits"):
        _kronecker_unpack(2**24, 2, 8)
    with pytest.raises(ValueError):
        _kronecker_unpack(-1, 2, 8)


def test_scale_matches_repeated_add():
    assert scale(R13, 3) == R13 + R13 + R13


def test_polynomial_text():
    assert polynomial_text(R13) == "1 + 14z^4 + z^8"
    assert polynomial_text(WeightEnumerator.zero(4)) == "0"
    bent = WeightEnumerator.from_pairs(16, [(6, 16), (10, 16)])
    assert polynomial_text(bent) == "16z^6 + 16z^10"


def test_write_read_round_trip():
    text = distribution_text(R13, comments=["R(1,3)"])
    assert text.splitlines() == ["# n 8", "# R(1,3)", "0 1", "4 14", "8 1"]
    assert read_distribution(io.StringIO(text)) == R13


def test_folded_file_reads_back_whole():
    # the reader restores the weights above n/2 of a "# folded" file; the
    # writer writes every weight, so an asymmetric enumerator round-trips
    assert read_distribution(io.StringIO("# n 8\n# folded\n0 1\n4 14\n")) == R13
    lopsided = WeightEnumerator(4, [1, 2, 0, 0, 1])
    text = distribution_text(lopsided)
    assert "folded" not in text
    assert read_distribution(io.StringIO(text)) == lopsided


def test_file_round_trip(tmp_path):
    path = tmp_path / "dist.txt"
    write_distribution(str(path), R13)
    assert read_distribution(str(path)) == R13


def test_read_errors():
    with pytest.raises(ValueError, match="bad distribution line"):
        read_distribution(io.StringIO("# n 8\n1 2 3\n"))
    with pytest.raises(ValueError, match="duplicate weight"):
        read_distribution(io.StringIO("# n 8\n4 1\n4 2\n"))
    with pytest.raises(ValueError, match="outside"):
        read_distribution(io.StringIO("# n 4\n9 1\n"))
    with pytest.raises(ValueError, match="no data"):
        read_distribution(io.StringIO("\n"))
    with pytest.raises(ValueError, match="twice"):
        read_distribution(io.StringIO("# n 8\n# folded\n3 1\n5 2\n"))


@pytest.mark.parametrize("bad", ["1_4", "+1", "\u0663"], ids=["underscore", "sign", "arabic"])
def test_read_refuses_integers_int_would_take(bad):
    # the weight, the count and '# n' are ASCII decimal digits alone
    for text in (f"# n 8\n0 1\n4 {bad}\n", f"# n 8\n0 1\n{bad} 14\n", f"# n {bad}\n0 1\n"):
        with pytest.raises(ValueError, match="not an ASCII decimal integer"):
            read_distribution(io.StringIO(text))


def test_read_refuses_a_repeated_weight_whose_first_count_is_zero():
    with pytest.raises(ValueError, match="duplicate weight 2"):
        read_distribution(io.StringIO("# n 4\n0 1\n2 0\n2 6\n4 1\n"))


def test_read_refuses_a_repeated_length_header():
    for second in ("8", "4"):
        with pytest.raises(ValueError, match="repeated '# n' header"):
            read_distribution(io.StringIO(f"# n 4\n# n {second}\n0 1\n4 1\n"))


def test_read_without_header_uses_max_weight():
    got = read_distribution(io.StringIO("0 1\n4 14\n8 1\n"))
    assert got == R13


def test_validate_code_enumerator_passes():
    report = validate_code_enumerator(R13)
    assert report.ok
    assert all(line.startswith("PASS") for line in report.lines())


def test_validate_code_enumerator_failures():
    bad = WeightEnumerator.from_pairs(8, [(0, 1), (4, 13), (8, 1)])
    report = validate_code_enumerator(bad)
    assert not report.ok
    assert any(line.startswith("FAIL") for line in report.lines())

    asym = WeightEnumerator.from_pairs(8, [(0, 1), (2, 14), (8, 1)])
    report = validate_code_enumerator(asym)
    assert any("symmetric" in line for line in report.lines() if line.startswith("FAIL"))

    # a code without the all-ones word fails W_n = 1
    no_ones = WeightEnumerator.from_pairs(4, [(0, 1), (2, 1)])
    failed = [line for line in validate_code_enumerator(no_ones).lines() if line.startswith("FAIL")]
    assert failed[0] == "FAIL W_n = 1: W_n = 0"


def test_macwilliams_maps_rm_codes_to_their_duals():
    from rmenum.cosetenum import rm_dimension
    from rmenum.oracle import brute_force_distribution
    from rmenum.pipeline import run_pipeline

    # R(r,m)'s dual is R(m-r-1,m)
    assert macwilliams(run_pipeline(2, 6), rm_dimension(2, 6)) == run_pipeline(3, 6)
    r37 = run_pipeline(3, 7)
    assert macwilliams(r37, rm_dimension(3, 7)) == r37
    brute15 = brute_force_distribution(1, 5)
    assert macwilliams(brute15, rm_dimension(1, 5)) == brute_force_distribution(3, 5)


def test_macwilliams_small_cases_and_errors():
    # the [8,4] extended Hamming code R(1,3) is self-dual
    assert macwilliams(R13, 4) == R13
    # the repetition code's dual is the even-weight code
    rep = WeightEnumerator.from_pairs(3, [(0, 1), (3, 1)])
    assert macwilliams(rep, 1).coeffs == (1, 0, 3, 0)
    with pytest.raises(ValueError, match="totals"):
        macwilliams(R13, 5)
    # totals 4 but is no linear code: 2**-2 * sum is not an integer
    with pytest.raises(ValueError, match="integer"):
        macwilliams(WeightEnumerator.from_pairs(3, [(0, 1), (1, 3)]), 2)
