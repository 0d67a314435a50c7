import io
from math import comb, prod

import pytest

from rmenum import cosetenum, oracle
from rmenum.cosetenum import coset_enumerator, rm_dimension
from rmenum.oracle import (
    brute_force_distribution,
    divisibility_exponent,
    min_weight_count,
    validate_reference,
)
from rmenum.pipeline import run_pipeline
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


def test_brute_takes_no_jobs():
    # the sweep is serial: brute force takes no worker count
    with pytest.raises(TypeError, match="jobs"):
        brute_force_distribution(2, 5, jobs=1)


@pytest.mark.parametrize("m", [-1, 17])
def test_m_out_of_range_is_refused_by_name(monkeypatch, m):
    # m = -1 once failed in rm_dimension with "n must be a non-negative
    # integer", which does not name m; m is checked before the dimension
    def forbidden(*args, **kwargs):
        raise AssertionError("the dimension or a sweep ran before the m check")

    monkeypatch.setattr(oracle, "rm_dimension", forbidden)
    monkeypatch.setattr(oracle, "coset_histograms", forbidden)
    with pytest.raises(ValueError, match=f"^m={m} out of range 0..16$"):
        brute_force_distribution(0, m)


def test_result_is_checked(monkeypatch):
    # a basis table listed twice sweeps every word twice: the sweep's own
    # histogram total check raises
    with monkeypatch.context() as patch:
        masks = cosetenum.rm_basis_masks
        patch.setattr(cosetenum, "rm_basis_masks", lambda r, m: masks(r, m) + masks(r, m)[-1:])
        with pytest.raises(ValueError, match="does not total 2\\*\\*22"):
            brute_force_distribution(2, 6)
    # doubled counts past the sweep fail the reference checks
    sweep = oracle.coset_histograms
    monkeypatch.setattr(oracle, "coset_histograms", lambda *a, **k: 2 * sweep(*a, **k))
    with pytest.raises(ValueError, match="FAIL total = 2\\*\\*dim"):
        brute_force_distribution(2, 6)


def test_cap(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran past the cap")

    sweep = oracle.coset_histograms
    monkeypatch.setattr(oracle, "coset_histograms", forbidden)
    # the fixed cap: dim R(3,8) = 93 against 28
    with pytest.raises(ValueError, match="dim R\\(3,8\\) = 93 exceeds the cap of 28"):
        brute_force_distribution(3, 8)
    # the cap is read at call time and is inclusive: at 11, dim R(2,4) = 11
    # runs and dim R(2,5) = 16 is refused
    monkeypatch.setattr(oracle, "DEFAULT_DIM_CAP", 11)
    with pytest.raises(ValueError, match="dim R\\(2,5\\) = 16 exceeds the cap of 11"):
        brute_force_distribution(2, 5)
    monkeypatch.setattr(oracle, "coset_histograms", sweep)
    assert brute_force_distribution(2, 4).total() == 1 << 11


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


def sloane_berlekamp(m):
    """W[z; R(2,m)] in closed form (MacWilliams & Sloane, ch. 15).

    A_{2**(m-1) +- 2**(m-1-h)} = 2**(h(h+1)) * prod_{i=m-2h+1..m} (2**i - 1)
    / prod_{i=1..h} (4**i - 1) for 1 <= h <= m // 2 (h = 0 gives the words
    0 and 1), and A_{2**(m-1)} takes the rest of 2**dim.
    """
    n = 1 << m
    coeffs = [0] * (n + 1)
    for h in range(m // 2 + 1):
        num = (1 << (h * (h + 1))) * prod((1 << i) - 1 for i in range(m - 2 * h + 1, m + 1))
        count, rest = divmod(num, prod((1 << (2 * i)) - 1 for i in range(1, h + 1)))
        assert rest == 0
        coeffs[n // 2 - (n >> (h + 1))] = coeffs[n // 2 + (n >> (h + 1))] = count
    coeffs[n // 2] = (1 << rm_dimension(2, m)) - sum(coeffs)
    return WeightEnumerator(n, coeffs)


def test_sloane_berlekamp_closed_form():
    assert sloane_berlekamp(3) == brute_force_distribution(2, 3)
    assert sloane_berlekamp(5) == brute_force_distribution(2, 5)


@pytest.mark.parametrize("m", range(3, 10))
def test_pipeline_r2m_equals_the_closed_form(m):
    assert run_pipeline(2, m) == sloane_berlekamp(m)


def test_checkpointed_r28_with_workers_equals_the_closed_form(tmp_path):
    assert run_pipeline(2, 8, jobs=2, checkpoint=str(tmp_path / "ckpt")) == sloane_berlekamp(8)
