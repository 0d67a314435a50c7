"""Brute-force ground truth for small parameters.

brute_force_distribution enumerates every codeword of R(r,m): it is
cosetenum.coset_histograms of the zero word, so it runs the same serial
Gray sweep engine as every coset batch; a dimension past the fixed
DEFAULT_DIM_CAP = 28, or m past boolfn.MAX_M = 16, refuses to start. It
shares no code with the doubling
recursion, classification or product-sums, so the two routes can be
compared coefficient for coefficient. The engine sweeps half the code and
folds by complement, which uses only that the all-ones word lies in
R(r,m); brute output is therefore symmetric by construction, and its
independent evidence is the total 2**dim, the minimum-weight count, weight
divisibility, and equality with the pipeline. What stays independent of
the sweep engine itself: the plain subset-XOR reference enumerator in the
tests, the closed forms here (minimum-weight count, divisibility
exponent), the identities validate_reference checks, and MacWilliams
duality (wenum.macwilliams).
"""

from __future__ import annotations

from .boolfn import MAX_M
from .cosetenum import coset_histograms, rm_dimension
from .wenum import ValidationReport, WeightEnumerator, read_distribution, validate_code_enumerator

DEFAULT_DIM_CAP = 28


def brute_force_distribution(r: int, m: int) -> WeightEnumerator:
    """Exact W[z; R(r,m)] by enumerating all 2**dim codewords.

    coset_histograms of the zero word. m outside 0..MAX_M is refused
    first; dim DEFAULT_DIM_CAP runs, a larger dim raises. The result must
    pass validate_reference, or ValueError is raised.
    """
    if not 0 <= m <= MAX_M:
        raise ValueError(f"m={m} out of range 0..{MAX_M}")
    dim = rm_dimension(r, m)
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(f"dim R({r},{m}) = {dim} exceeds the cap of {DEFAULT_DIM_CAP}")
    counts = coset_histograms([0], r, m)
    dist = WeightEnumerator(1 << m, counts[0].tolist())
    require_reference(dist, r, m)
    return dist


def min_weight_count(r: int, m: int) -> int:
    """Number of minimum-weight (2**(m-r)) words of R(r,m), exact.

    2**r * prod_{i=0}^{m-r-1} (2**(m-i) - 1) / (2**(m-r-i) - 1); the
    division is exact and checked rather than floated.
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r} m={m}")
    num = 1
    den = 1
    for i in range(m - r):
        num *= (1 << (m - i)) - 1
        den *= (1 << (m - r - i)) - 1
    total = (1 << r) * num
    count, rem = divmod(total, den)
    if rem:
        raise AssertionError(f"minimum-weight count for r={r} m={m} did not divide exactly")
    return count


def divisibility_exponent(r: int, m: int) -> int:
    """Every weight in R(r,m) is a multiple of 2**this (McEliece/Ax bound)."""
    if r <= 0:
        return 0
    return (m + r - 1) // r - 1


def require_reference(dist: WeightEnumerator, r: int, m: int) -> None:
    """Raise ValueError naming every failed validate_reference check of dist."""
    report = validate_reference(dist, r, m)
    if not report.ok:
        failed = [line for line in report.lines() if line.startswith("FAIL")]
        raise ValueError(f"R({r},{m}) distribution fails its checks: {'; '.join(failed)}")


def validate_reference(source, r: int, m: int) -> ValidationReport:
    """Check a claimed R(r,m) distribution against everything known a priori.

    source is a path, file object, or WeightEnumerator. The checks layer
    RM-specific facts (dimension, minimum weight and its count, weight
    divisibility) on the generic code-enumerator sanity checks.
    """
    if isinstance(source, WeightEnumerator):
        dist = source
    else:
        dist = read_distribution(source)
    report = ValidationReport()
    n = 1 << m
    report.record("length is 2**m", dist.n == n, f"n = {dist.n}, expected {n}")
    if dist.n != n:
        return report
    for name, ok, detail in validate_code_enumerator(dist).checks:
        report.record(name, ok, detail)
    dim = rm_dimension(r, m)
    report.record(
        "total = 2**dim",
        dist.total() == 1 << dim,
        f"dim R({r},{m}) = {dim}",
    )
    expected_min = 1 << (m - r)
    got_min = dist.min_weight()
    report.record(
        f"minimum weight = {expected_min}",
        got_min == expected_min,
        f"found {got_min}",
    )
    expected_count = min_weight_count(r, m)
    got_count = dist.coeffs[expected_min] if expected_min <= dist.n else 0
    report.record(
        f"minimum-weight count = {expected_count}",
        got_count == expected_count,
        f"found {got_count}",
    )
    step = 1 << divisibility_exponent(r, m)
    bad = [w for w, c in dist.nonzero_items() if w % step]
    report.record(
        f"weights divisible by {step}",
        not bad,
        f"offending weights {bad[:4]}" if bad else "",
    )
    return report
