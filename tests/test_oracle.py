import io
from math import comb

import pytest

from rmenum import oracle
from rmenum.cosetenum import _LOW_BITS, coset_enumerator, rm_dimension
from rmenum.oracle import (
    brute_force_distribution,
    divisibility_exponent,
    min_weight_count,
    validate_reference,
)
from rmenum.wenum import WeightEnumerator, distribution_text


def test_tiny_codes():
    assert brute_force_distribution(0, 3) == WeightEnumerator.from_pairs(
        8, [(0, 1), (8, 1)]
    )
    assert brute_force_distribution(1, 4) == WeightEnumerator.from_pairs(
        16, [(0, 1), (8, 30), (16, 1)]
    )


def test_even_weight_code():
    got = brute_force_distribution(3, 4)
    want = WeightEnumerator(16, [comb(16, w) if w % 2 == 0 else 0 for w in range(17)])
    assert got == want


def test_agrees_with_coset_sweep():
    # same value through an entirely different enumeration route
    for r, m in [(1, 3), (2, 4), (2, 5), (1, 5)]:
        assert brute_force_distribution(r, m) == coset_enumerator(0, r, m)


def test_r25_min_weight():
    dist = brute_force_distribution(2, 5)
    assert dist.total() == 1 << 16
    assert dist.coeffs[8] == min_weight_count(2, 5) == 620


def test_jobs_invariance():
    assert brute_force_distribution(2, 5, jobs=4) == brute_force_distribution(2, 5)


def test_jobs_split_segments():
    # dim R(3,5) = 26 gives 512 sweep segments of its 25 swept tables, split over the workers
    assert brute_force_distribution(3, 5, jobs=2) == brute_force_distribution(3, 5)


def test_result_is_checked(monkeypatch):
    # a segment count one table too large sweeps every word twice
    monkeypatch.setattr(
        oracle, "_segments", lambda r, m: 1 << max(0, rm_dimension(r, m) - _LOW_BITS)
    )
    with pytest.raises(ValueError, match="FAIL total = 2\\*\\*dim"):
        brute_force_distribution(2, 6)


def test_cap():
    with pytest.raises(ValueError, match="exceeds the cap"):
        brute_force_distribution(3, 8)
    # explicit override admits the same call
    assert brute_force_distribution(2, 4, cap_dim=11).total() == 1 << 11


def test_min_weight_count_values():
    assert min_weight_count(1, 3) == 14
    assert min_weight_count(2, 5) == 620
    assert min_weight_count(4, 9) == 52955952
    assert min_weight_count(0, 5) == 1
    assert min_weight_count(3, 3) == comb(8, 1)


def test_min_weight_count_matches_enumeration():
    for r, m in [(1, 4), (2, 4), (3, 5), (2, 6)]:
        dist = brute_force_distribution(r, m)
        assert dist.coeffs[1 << (m - r)] == min_weight_count(r, m)


def test_divisibility_exponent():
    assert divisibility_exponent(1, 3) == 2
    assert divisibility_exponent(2, 5) == 2
    assert divisibility_exponent(4, 9) == 2
    assert divisibility_exponent(3, 3) == 0
    assert divisibility_exponent(1, 6) == 5


def test_validate_reference_accepts_brute_force():
    for r, m in [(1, 4), (2, 5), (3, 5)]:
        report = validate_reference(brute_force_distribution(r, m), r, m)
        assert report.ok, report.lines()


def test_validate_reference_reads_files(tmp_path):
    path = tmp_path / "r25.txt"
    path.write_text(distribution_text(brute_force_distribution(2, 5)))
    assert validate_reference(str(path), 2, 5).ok


def test_validate_reference_rejects_perturbation():
    dist = brute_force_distribution(2, 5)
    coeffs = list(dist.coeffs)
    coeffs[12] += 1
    report = validate_reference(WeightEnumerator(dist.n, coeffs), 2, 5)
    assert not report.ok
    assert any(line.startswith("FAIL") for line in report.lines())


def test_validate_reference_rejects_truncation():
    dist = brute_force_distribution(2, 5)
    text = distribution_text(dist)
    truncated = "\n".join(text.splitlines()[:-2]) + "\n"
    report = validate_reference(io.StringIO(truncated), 2, 5)
    assert not report.ok
    first_fail = next(line for line in report.lines() if line.startswith("FAIL"))
    assert first_fail  # names the violated identity


def test_validate_reference_wrong_length():
    report = validate_reference(brute_force_distribution(2, 5), 2, 6)
    assert not report.ok
