"""Dense weight enumerators with exact integer coefficients.

A distribution over codeword length n is the coefficient vector of
W[z] = sum_i W_i z^i, stored as a tuple of n+1 Python ints so nothing is
ever rounded; coefficients at full scale reach past 2**250.

Every polynomial product in the package runs on one kernel, Kronecker
packing: a polynomial is evaluated at z = 2**width, which lays its
coefficients side by side as digits of one big int, the product (or a
whole product-sum) is a big-int product (or sum of them), and the digits
of the result are read back. The digits come out exact when every
coefficient of the result fits in width bits. A nonnegative polynomial
has no coefficient above its total, so width is taken from the exact
total of the result (its bit length, rounded up to whole bytes so that
packing and unpacking are byte copies); intermediate sums of signed
polynomials may carry between digits, since evaluation at 2**width is a
ring homomorphism and only the result needs proper digits. Unpacking
raises if the value does not fit in its n+1 digits.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import numpy as np


class WeightEnumerator:
    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != n + 1:
            raise ValueError(f"need {n + 1} coefficients for length {n}")
        if min(coeffs, default=0) < 0:
            raise ValueError("negative coefficient")
        self.n = n
        self.coeffs = coeffs

    @staticmethod
    def zero(n: int) -> "WeightEnumerator":
        return WeightEnumerator(n, (0,) * (n + 1))

    @staticmethod
    def from_pairs(n: int, pairs) -> "WeightEnumerator":
        coeffs = [0] * (n + 1)
        for w, count in pairs:
            if not 0 <= w <= n:
                raise ValueError(f"weight {w} out of range 0..{n}")
            coeffs[w] += count
        return WeightEnumerator(n, coeffs)

    def total(self) -> int:
        return sum(self.coeffs)

    def nonzero_items(self):
        return [(w, c) for w, c in enumerate(self.coeffs) if c]

    def min_weight(self) -> int | None:
        """Smallest nonzero weight with a nonzero count, None if no such entry."""
        for w in range(1, self.n + 1):
            if self.coeffs[w]:
                return w
        return None

    def __eq__(self, other):
        return (
            isinstance(other, WeightEnumerator)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        return f"WeightEnumerator(n={self.n}, {len(self.nonzero_items())} nonzero)"

    def __add__(self, other: "WeightEnumerator") -> "WeightEnumerator":
        if self.n != other.n:
            raise ValueError("length mismatch in addition")
        return WeightEnumerator(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return mul(self, other)

    __rmul__ = __mul__

    def scale(self, c: int) -> "WeightEnumerator":
        if c < 0:
            raise ValueError("negative scale")
        return WeightEnumerator(self.n, tuple(c * a for a in self.coeffs))


def _digit_width(total: int) -> int:
    """Packed digit width for a nonnegative result of this total: whole bytes, at least one."""
    return max(8, -(-total.bit_length() // 8) * 8)


def _pack_coeffs(coeffs, width: int) -> int:
    """sum of c_w * 2**(width*w) for nonnegative Python ints c_w below 2**width."""
    nbytes = width // 8
    return int.from_bytes(b"".join(c.to_bytes(nbytes, "little") for c in coeffs), "little")


def _kronecker_pack(rows: np.ndarray, width: int) -> list[int]:
    """Each row of nonnegative coefficients c_w as the integer sum of c_w * 2**(width*w).

    width is a whole number of bytes, and every c_w is below 2**min(width, 63).
    Raises ValueError on a negative entry rather than pack its wrapped value.
    """
    if (rows < 0).any():
        raise ValueError("negative coefficient in a packed row")
    nbytes = width // 8
    keep = min(nbytes, 8)
    row_bytes = rows.shape[1] * nbytes
    # little-endian digits of nbytes each, the value in the low keep bytes
    digits = np.zeros(rows.shape + (nbytes,), dtype=np.uint8)
    digits[..., :keep] = rows.astype("<u8")[..., None].view(np.uint8)[..., :keep]
    blob = digits.tobytes()
    starts = range(0, len(blob), row_bytes)
    return [int.from_bytes(blob[i : i + row_bytes], "little") for i in starts]


def _kronecker_unpack(value: int, n: int, width: int) -> list[int]:
    """The n+1 digits of width bits of a packed value.

    Raises ValueError unless 0 <= value < 2**(width*(n+1)), so a sum that
    overflowed its digits never reads back as a wrong polynomial.
    """
    nbytes = width // 8
    try:
        blob = value.to_bytes(nbytes * (n + 1), "little")
    except OverflowError:
        raise ValueError(f"packed value does not fit {n + 1} digits of {width} bits") from None
    return [int.from_bytes(blob[i : i + nbytes], "little") for i in range(0, len(blob), nbytes)]


def mul(a: WeightEnumerator, b: WeightEnumerator) -> WeightEnumerator:
    """Product enumerator over length a.n + b.n, as one packed big-int product."""
    n = a.n + b.n
    total = a.total() * b.total()
    if not total:
        return WeightEnumerator.zero(n)
    width = _digit_width(total)
    pa = _pack_coeffs(a.coeffs, width)
    # the same object on both sides lets the big-int product take its squaring path
    pb = pa if b is a else _pack_coeffs(b.coeffs, width)
    return WeightEnumerator(n, _kronecker_unpack(pa * pb, n, width))


def square(a: WeightEnumerator) -> WeightEnumerator:
    return mul(a, a)


def scale(a: WeightEnumerator, c: int) -> WeightEnumerator:
    return a.scale(c)


def macwilliams(a: WeightEnumerator, dim: int) -> WeightEnumerator:
    """Distribution of the dual code, by the MacWilliams identity, exact.

    a is the distribution of a linear code of dimension dim and length n.
    The dual has W_j = 2**-dim * sum_i a_i K_j(i), with the Krawtchouk
    values K_j(i) = sum_s (-1)**s C(i,s) C(n-i,j-s) built by the three-term
    recurrence (j+1) K_{j+1}(i) = (n-2i) K_j(i) - (n-j+1) K_{j-1}(i). Every
    division is exact and checked.
    """
    n = a.n
    if a.total() != 1 << dim:
        raise ValueError(f"distribution totals {a.total()}, expected 2**{dim}")
    prev = [0] * (n + 1)
    cur = [1] * (n + 1)
    out = []
    for j in range(n + 1):
        value, rem = divmod(sum(c * k for c, k in zip(a.coeffs, cur) if c), 1 << dim)
        if rem:
            raise ValueError(f"dual weight {j} is not an integer: the input is not a code")
        out.append(value)
        nxt = []
        for i in range(n + 1):
            q, rem = divmod((n - 2 * i) * cur[i] - (n - j + 1) * prev[i], j + 1)
            if rem:
                raise AssertionError(f"Krawtchouk recurrence inexact at j={j + 1}, i={i}")
            nxt.append(q)
        prev, cur = cur, nxt
    return WeightEnumerator(n, out)


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for name, ok, detail in self.checks:
            line = f"{'PASS' if ok else 'FAIL'} {name}"
            if detail:
                line += f": {detail}"
            out.append(line)
        return out


def validate_code_enumerator(a: WeightEnumerator) -> ValidationReport:
    """Sanity checks for the distribution of a linear code containing the all-ones word.

    Every Reed-Muller code contains the all-ones word, so W_n = 1 and
    W_i = W_{n-i} are demanded along with W_0 = 1 and a power-of-two total.
    """
    report = ValidationReport()
    report.record("W_0 = 1", a.coeffs[0] == 1, f"W_0 = {a.coeffs[0]}")
    total = a.total()
    report.record(
        "total is a power of two",
        total > 0 and total & (total - 1) == 0,
        f"total = {total}",
    )
    report.record("W_n = 1", a.coeffs[a.n] == 1, f"W_n = {a.coeffs[a.n]}")
    sym = all(a.coeffs[i] == a.coeffs[a.n - i] for i in range(a.n + 1))
    report.record("symmetric about n/2", sym)
    return report


@contextlib.contextmanager
def _opened(file, mode: str = "r"):
    """file itself when it is an open file object, else the file at that path, closed on exit."""
    if hasattr(file, "write" if "w" in mode else "read"):
        yield file
    else:
        with open(file, mode) as fh:
            yield fh


def _decimal(field: str) -> int:
    """The integer of a field of ASCII decimal digits alone; int() also takes "+1", "1_4"."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"{field!r} is not an ASCII decimal integer")
    return int(field)


def write_distribution(target, a: WeightEnumerator, comments=()):
    """Write "weight count" lines in decimal, nonzero entries only.

    The header carries "# n <length>" so the exact coefficient vector
    round-trips even when trailing weights have count zero; extra comment
    lines supplied by the caller follow it.
    """
    with _opened(target, "w") as fh:
        fh.write(f"# n {a.n}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for w, c in a.nonzero_items():
            fh.write(f"{w} {c}\n")


def _header(lines, keys) -> dict[str, str]:
    """{key: rest of the line} of the "# key ..." lines, each key in keys at most once."""
    header = {}
    for line in lines:
        line = line.strip()
        fields = line[1:].split(None, 1) if line.startswith("#") else ()
        if fields and fields[0] in keys:
            if fields[0] in header:
                raise ValueError(f"repeated '# {fields[0]}' header")
            header[fields[0]] = "".join(fields[1:])
    return header


def read_distribution(source) -> WeightEnumerator:
    """Read a write_distribution file; a "# folded" one lists only the weights up to n/2.

    Its "# n" and "# folded" lines are read by _header, so "# n 64 x" is refused.
    """
    return _read_headed(source)[1]


def _read_headed(source, keys=()) -> tuple[dict[str, str], WeightEnumerator]:
    """The _header of a distribution file for "n", "folded" and keys, and the distribution."""
    with _opened(source) as fh:
        lines = fh.read().splitlines()
    header = _header(lines, ("n", "folded", *keys))
    counts: dict[int, int] = {}
    for line in lines:
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 2:
            raise ValueError(f"bad distribution line {line.strip()!r}")
        w = _decimal(fields[0])
        if w in counts:
            raise ValueError(f"duplicate weight {w}")
        counts[w] = _decimal(fields[1])
    if "n" in header:
        n = _decimal(header["n"])
    elif counts:
        n = max(counts)
    else:
        raise ValueError("no data and no '# n' header")
    coeffs = [0] * (n + 1)
    for w, c in counts.items():
        if not 0 <= w <= n:
            raise ValueError(f"weight {w} outside 0..{n}")
        coeffs[w] = c
    if header.get("folded") == "":
        for w in range((n + 1) // 2):
            if coeffs[n - w] not in (0, coeffs[w]):
                raise ValueError(f"folded file sets weight {n - w} twice")
            coeffs[n - w] = coeffs[w]
    return header, WeightEnumerator(n, coeffs)


def distribution_text(a: WeightEnumerator, comments=()) -> str:
    buf = io.StringIO()
    write_distribution(buf, a, comments=comments)
    return buf.getvalue()


def polynomial_text(a: WeightEnumerator) -> str:
    """Render as a polynomial in z, e.g. "1 + 14z^4 + z^8"."""
    terms = []
    for w, c in a.nonzero_items():
        if w == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"z^{w}")
        else:
            terms.append(f"{c}z^{w}")
    return " + ".join(terms) if terms else "0"
