"""Boolean functions on m variables: truth tables, algebraic normal form,
homogeneous parts, and packed indices for spaces of fixed-degree forms.

Conventions used throughout the package:

  * points are integers 0 <= x < 2**m with variable i stored in bit i-1,
    so x_1 is the least significant bit;
  * a truth table is a 2**m-bit integer whose bit x holds f(x);
  * a monomial is a variable mask (bit i-1 set means x_i occurs); the empty
    mask is the constant 1.

With this point order the top variable x_m selects the high half of the
table, so splitting off x_m is a split into contiguous half-tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

MAX_M = 16


@dataclass(frozen=True)
class TruthTable:
    """Value table of a Boolean function, packed into one integer."""

    m: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.m <= MAX_M:
            raise ValueError(f"m={self.m} out of range 0..{MAX_M}")
        if not 0 <= self.bits < 1 << (1 << self.m):
            raise ValueError("truth table wider than 2**m bits")

    def __len__(self):
        return 1 << self.m

    def weight(self) -> int:
        return self.bits.bit_count()

    def evaluate(self, x: int) -> int:
        return (self.bits >> x) & 1

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        if self.m != other.m:
            raise ValueError("mixed variable counts")
        return TruthTable(self.m, self.bits ^ other.bits)


@dataclass(frozen=True)
class Anf:
    """Algebraic normal form: a GF(2) sum of monomials, each a variable mask."""

    m: int
    monomials: frozenset[int]

    def __post_init__(self):
        if not 0 <= self.m <= MAX_M:
            raise ValueError(f"m={self.m} out of range 0..{MAX_M}")
        for mask in self.monomials:
            if not 0 <= mask < 1 << self.m:
                raise ValueError(f"monomial mask {mask:#x} uses variables beyond m={self.m}")

    def degree(self) -> int:
        """Largest monomial size; 0 for both the zero function and constant 1."""
        if not self.monomials:
            return 0
        return max(mask.bit_count() for mask in self.monomials)

    def is_zero(self) -> bool:
        return not self.monomials

    def is_homogeneous(self, d: int) -> bool:
        return all(mask.bit_count() == d for mask in self.monomials)

    def __xor__(self, other: "Anf") -> "Anf":
        if self.m != other.m:
            raise ValueError("mixed variable counts")
        return Anf(self.m, self.monomials ^ other.monomials)

    def sorted_masks(self) -> list[int]:
        return sorted(self.monomials, key=_monomial_sort_key)


def _monomial_sort_key(mask: int):
    return (mask.bit_count(), _mask_vars(mask))


def _mask_vars(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


@lru_cache(maxsize=None)
def variable_table(i: int, m: int) -> int:
    """Truth table of x_i as an integer (bit pattern of period 2**i)."""
    if not 1 <= i <= m:
        raise ValueError(f"variable index {i} out of range 1..{m}")
    block = (1 << (1 << (i - 1))) - 1
    period = block << (1 << (i - 1))
    out = 0
    for start in range(0, 1 << m, 1 << i):
        out |= period << start
    return out


@lru_cache(maxsize=None)
def monomial_table(mask: int, m: int) -> int:
    """Truth table of the product of the variables in mask (1 everywhere for mask 0)."""
    out = (1 << (1 << m)) - 1
    for i in range(1, m + 1):
        if (mask >> (i - 1)) & 1:
            out &= variable_table(i, m)
    return out


@lru_cache(maxsize=None)
def _low_masks(m: int) -> tuple[int, ...]:
    full = (1 << (1 << m)) - 1
    return tuple(full ^ variable_table(i + 1, m) for i in range(m))


def xor_span_array(base: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry x is base XOR the rows at the set bits of x, as one array (XOR-doubling).

    rows stacks vectors shaped like base, such as packed words of shape
    (lanes,) or scalar indices; the span has 2**len(rows) entries.
    """
    span = np.empty((1 << len(rows), *base.shape), dtype=base.dtype)
    span[0] = base
    for j, row in enumerate(rows):
        np.bitwise_xor(span[: 1 << j], row, out=span[1 << j : 2 << j])
    return span


def xor_half_spans(base: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half spans (lo, hi) of x -> base XOR the rows at the set bits of x.

    With k = len(rows) // 2, lo spans base and rows 0..k-1 and hi the
    other rows, so the entry at x is lo[x & (L - 1)] ^ hi[x >> k] with
    L = len(lo) = 2**k: 2**k + 2**(len(rows) - k) entries, never
    2**len(rows).
    """
    k = len(rows) // 2
    zero = np.zeros(base.shape, dtype=base.dtype)
    return xor_span_array(base, rows[:k]), xor_span_array(zero, rows[k:])


def mobius_transform(bits: int, m: int) -> int:
    """Binary Mobius transform of a packed table; an involution over GF(2).

    Applied to a truth table it yields the ANF coefficient indicator (bit s
    is the coefficient of the monomial with mask s) and vice versa.
    """
    masks = _low_masks(m)
    for i in range(m):
        step = 1 << i
        bits ^= (bits & masks[i]) << step
    return bits


def truth_table_from_anf(a: Anf) -> TruthTable:
    indicator = 0
    for mask in a.monomials:
        indicator |= 1 << mask
    return TruthTable(a.m, mobius_transform(indicator, a.m))


def anf_from_truth_table(t: TruthTable) -> Anf:
    indicator = mobius_transform(t.bits, t.m)
    masks = []
    while indicator:
        low = indicator & -indicator
        masks.append(low.bit_length() - 1)
        indicator ^= low
    return Anf(t.m, frozenset(masks))


def homogeneous_part(a: Anf, d: int) -> Anf:
    """Sum of the degree-d monomials of a."""
    return Anf(a.m, frozenset(mask for mask in a.monomials if mask.bit_count() == d))


def decompose_top(p: Anf) -> tuple[Anf, Anf]:
    """Split p over m variables as e + f*x_m with e, f over m-1 variables.

    For homogeneous p of degree d this gives homogeneous e (degree d) and
    f (degree d-1); words of p then read e on the x_m=0 half of the table
    and e+f on the x_m=1 half.
    """
    if p.m == 0:
        raise ValueError("no top variable to split on")
    top = 1 << (p.m - 1)
    e_masks = [mask for mask in p.monomials if not mask & top]
    f_masks = [mask ^ top for mask in p.monomials if mask & top]
    return Anf(p.m - 1, frozenset(e_masks)), Anf(p.m - 1, frozenset(f_masks))


def attach_top(e: Anf, f: Anf) -> Anf:
    """Inverse of decompose_top: build e + f*x_{m+1} over one more variable."""
    if e.m != f.m:
        raise ValueError("mixed variable counts")
    top = 1 << e.m
    masks = set(e.monomials)
    for mask in f.monomials:
        masks.add(mask | top)
    return Anf(e.m + 1, frozenset(masks))


def parse_anf(s: str, m: int | None = None) -> Anf:
    """Parse '+'-separated monomial strings like "1237+4567"; "0" is the zero function.

    Each digit is a variable index 1..9, an ASCII digit alone (str.isdigit
    also takes "²" and "٣"), so the notation covers m <= 9.
    """
    s = s.strip()
    if not s:
        raise ValueError("empty ANF string")
    if s == "0":
        return Anf(m if m is not None else 0, frozenset())
    masks = set()
    top = 0
    for part in s.split("+"):
        part = part.strip()
        if not (part.isascii() and part.isdigit()):
            raise ValueError(f"bad monomial {part!r}")
        mask = 0
        for ch in part:
            i = int(ch)
            if i == 0:
                raise ValueError(f"variable index 0 in monomial {part!r}")
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError(f"repeated variable {i} in monomial {part!r}")
            mask |= bit
        if mask in masks:
            raise ValueError(f"repeated monomial {part!r}")
        masks.add(mask)
        top = max(top, mask.bit_length())
    if m is None:
        m = top
    elif top > m:
        raise ValueError(f"monomial uses variable {top} but m={m}")
    return Anf(m, frozenset(masks))


def format_anf(a: Anf) -> str:
    """Inverse of parse_anf; requires m <= 9 and no constant-1 monomial."""
    if a.m > 9:
        raise ValueError("digit notation covers at most 9 variables")
    if not a.monomials:
        return "0"
    parts = []
    for mask in a.sorted_masks():
        if mask == 0:
            raise ValueError("constant monomial has no digit notation")
        parts.append("".join(str(i) for i in _mask_vars(mask)))
    return "+".join(parts)


class HomogeneousSpace:
    """The space of degree-d homogeneous forms on m variables, packed as ints.

    Bit j of an index is the coefficient of the j-th degree-d monomial in
    lexicographic order over sorted variable tuples, so indices run over
    0 .. 2**C(m,d) - 1 and XOR of indices is addition of forms.
    """

    def __init__(self, m: int, d: int):
        if not (0 <= m <= MAX_M and d >= 0):
            raise ValueError(f"need 0 <= m <= {MAX_M} and d >= 0")
        self.m = m
        self.d = d
        self.combos = tuple(itertools.combinations(range(1, m + 1), d))
        self.masks = tuple(sum(1 << (i - 1) for i in combo) for combo in self.combos)
        self.position = {mask: j for j, mask in enumerate(self.masks)}
        self.nbits = len(self.masks)
        self.size = 1 << self.nbits
        assert self.nbits == comb(m, d)

    def index_of(self, a: Anf) -> int:
        """Pack a homogeneous degree-d form (or zero) into its index."""
        if a.m != self.m:
            raise ValueError("variable count mismatch")
        idx = 0
        for mask in a.monomials:
            j = self.position.get(mask)
            if j is None:
                raise ValueError(f"monomial of degree {mask.bit_count()} in degree-{self.d} space")
            idx |= 1 << j
        return idx

    @cached_property
    def _indicator_mask(self) -> int:
        out = 0
        for mask in self.masks:
            out |= 1 << mask
        return out

    def index_of_indicator(self, indicator: int) -> int:
        """Packed index of the degree-d part of an ANF coefficient indicator.

        Bit s of indicator is the coefficient of the monomial with mask s, as
        mobius_transform returns it; monomials of other degrees are dropped.
        """
        indicator &= self._indicator_mask
        position = self.position
        idx = 0
        while indicator:
            low = indicator & -indicator
            idx |= 1 << position[low.bit_length() - 1]
            indicator ^= low
        return idx

    def anf_of(self, idx: int) -> Anf:
        if not 0 <= idx < self.size:
            raise ValueError("index out of range")
        masks = []
        while idx:
            low = idx & -idx
            masks.append(self.masks[low.bit_length() - 1])
            idx ^= low
        return Anf(self.m, frozenset(masks))
