"""Invertible substitutions over GF(2) acting on Boolean functions.

A matrix is stored as m row masks: row k (0-based k, variable k+1) is the
linear form substituted for x_{k+1}, with bit j-1 the coefficient of x_j.
An affine map adds a translation of the point before evaluation, so
apply(f, A) is the table of x -> f(Mx + b).

apply walks the 2**m points one by one; it is the truth-table reference
that tests check the fast route against. transform_anf, and everything
built on it, substitutes by multiplying tables instead: substituted_tables
gives the table T_k = b_k + <row k, x> of each substituted variable, the
table of f o A is the XOR over the monomials U of f of the AND of the T_k
for k in U, and one Mobius transform turns that into the ANF. That is
about m**2 + sum |U| + m big-int operations per substitution.

stabilizer_check(e, *maps) checks all the maps of one form in one numpy
pass instead: a point table y[k, x] = M_k x + b_k, XOR-doubled over the
columns in the narrowest unsigned type that holds 2**m - 1, gathers e's
truth table; m Mobius stages along the last axis give each image's ANF,
whose degree-deg(e) coefficients must be e's. M_k is invertible exactly
when y[k, x] ^ y[k, 0] is nonzero for every x != 0.

Substituting an invertible map never raises degree and changes only the
parts below the top degree, which is what the classification machinery
relies on: the induced action on degree-d homogeneous parts is a genuine
group action.

_echelon is the package's one elimination: a reduced echelon basis, pivot =
top bit. rank is the length of the basis of the rows; classify reads the
basis for the span W_e. inverse eliminates each row k beside its unit
vector, as (row << m) | (1 << k). The matrix is nonsingular exactly when
every pivot lies in the high m bits; the basis vector with pivot m + j then
has high part 1 << j, so its low m bits, the unit vectors summed to reach
it, are row j of the inverse, and the rows come out in ascending pivot
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boolfn import (
    MAX_M,
    Anf,
    TruthTable,
    anf_from_truth_table,
    homogeneous_part,
    variable_table,
)


def _echelon(vectors) -> tuple[int, ...]:
    """Reduced echelon basis of the span of vectors, pivot = top bit, pivots descending.

    No basis vector has a bit at another one's pivot.
    """
    basis = []
    for v in vectors:
        for w in basis:
            if v >> (w.bit_length() - 1) & 1:
                v ^= w
        if v:
            pivot = v.bit_length() - 1
            basis = [w ^ v if w >> pivot & 1 else w for w in basis]
            basis.append(v)
    return tuple(sorted(basis, reverse=True))


def _product_rows(a, b) -> tuple[int, ...]:
    """Rows of A @ B: row k is the XOR of the rows of B at the set bits of row k of A."""
    rows = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        rows.append(acc)
    return tuple(rows)


def _inverse_rows(rows, m: int) -> tuple[int, ...]:
    """Rows of the inverse of the m x m matrix with these rows; raises if it is singular."""
    basis = _echelon([(row << m) | (1 << k) for k, row in enumerate(rows)])
    # pivots descend, so the last one is the least
    if basis and basis[-1] >> m == 0:
        raise ValueError("matrix is singular")
    low = (1 << m) - 1
    return tuple([w & low for w in reversed(basis)])


def _row_products(transposed: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows of A_i @ B_i from the rows of every A_i^T and of every B_i, int arrays (n, m).

    Row k of A @ B is the XOR of the rows j of B whose row j of A^T has bit k.
    """
    bits = np.arange(rows.shape[-1])
    chosen = (transposed[:, None, :] >> bits[:, None]) & 1
    return np.bitwise_xor.reduce(chosen * rows[:, None, :], axis=-1)


@dataclass(frozen=True)
class Gf2Matrix:
    m: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.m:
            raise ValueError("row count != m")
        for row in self.rows:
            if not 0 <= row < 1 << self.m:
                raise ValueError("row mask wider than m bits")

    @staticmethod
    def identity(m: int) -> "Gf2Matrix":
        return Gf2Matrix(m, tuple(1 << k for k in range(m)))

    def __matmul__(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Matrix product; f o (A @ B) substitutes B into A's output, f(A(Bx))."""
        if self.m != other.m:
            raise ValueError("mixed dimensions")
        return Gf2Matrix(self.m, _product_rows(self.rows, other.rows))

    def column(self, j: int) -> int:
        """Column j as a mask over output positions (0-based j)."""
        c = 0
        for k, row in enumerate(self.rows):
            c |= ((row >> j) & 1) << k
        return c

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix(self.m, tuple(self.column(j) for j in range(self.m)))

    def rank(self) -> int:
        return len(_echelon(self.rows))

    def is_invertible(self) -> bool:
        return self.rank() == self.m

    def inverse(self) -> "Gf2Matrix":
        """The B with B @ A == identity; see the module docstring. Raises if A is singular."""
        return Gf2Matrix(self.m, _inverse_rows(self.rows, self.m))

    def to_text(self) -> str:
        """Rows as bit strings, leftmost character the x_1 coefficient."""
        return " ".join(map(_row_text(self.m)[0].__getitem__, self.rows))

    @staticmethod
    def from_text(text: str) -> "Gf2Matrix":
        parts = text.split()
        values = _row_text(len(parts))[1]
        try:
            # only m-character strings of 0 and 1 are keys: not "+1" or "1_0"
            return Gf2Matrix(len(parts), tuple(map(values.__getitem__, parts)))
        except KeyError as exc:
            raise ValueError(f"bad matrix row {exc.args[0]!r}") from None


@lru_cache(maxsize=None)
def _row_text(m: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The text of every m-bit row, leftmost character bit 0, and the row of every text."""
    if m > MAX_M:
        raise ValueError(f"no text form for matrices over more than {MAX_M} variables")
    texts = [""]
    for _ in range(m):
        texts = [t + c for c in "01" for t in texts]
    return tuple(texts), {t: row for row, t in enumerate(texts)}


@dataclass(frozen=True)
class AffineMap:
    matrix: Gf2Matrix
    shift: int = 0

    def __post_init__(self):
        if not 0 <= self.shift < 1 << self.matrix.m:
            raise ValueError("shift wider than m bits")

    @property
    def m(self) -> int:
        return self.matrix.m

    @staticmethod
    def identity(m: int) -> "AffineMap":
        return AffineMap(Gf2Matrix.identity(m), 0)

    @staticmethod
    def translation(m: int, shift: int) -> "AffineMap":
        return AffineMap(Gf2Matrix.identity(m), shift)


def as_affine(a) -> AffineMap:
    return a if isinstance(a, AffineMap) else AffineMap(a, 0)


def apply(t: TruthTable, a) -> TruthTable:
    """Table of x -> f(Mx + b), walking points in Gray order."""
    a = as_affine(a)
    if a.m != t.m:
        raise ValueError("variable count mismatch")
    m = t.m
    cols = [a.matrix.column(j) for j in range(m)]
    y = a.shift
    out = (t.bits >> y) & 1
    x = 0
    for i in range(1, 1 << m):
        flip = (i & -i).bit_length() - 1
        x ^= 1 << flip
        y ^= cols[flip]
        out |= ((t.bits >> y) & 1) << x
    return TruthTable(m, out)


def substituted_tables(a) -> list[int]:
    """Truth tables of the substituted variables: entry k is x -> b_k + <row k, x>."""
    a = as_affine(a)
    m = a.m
    full = (1 << (1 << m)) - 1
    out = []
    for k, row in enumerate(a.matrix.rows):
        t = full if (a.shift >> k) & 1 else 0
        while row:
            low = row & -row
            t ^= variable_table(low.bit_length(), m)
            row ^= low
        out.append(t)
    return out


def substitute(masks, tables: list[int], m: int) -> int:
    """Truth table of the sum of the monomials in masks with tables[k] put in for x_{k+1}."""
    full = (1 << (1 << m)) - 1
    bits = 0
    for mask in masks:
        t = full
        while mask:
            low = mask & -mask
            t &= tables[low.bit_length() - 1]
            mask ^= low
        bits ^= t
    return bits


def transform_anf(f: Anf, a) -> Anf:
    """ANF of f composed with the substitution (all degrees, not just the top)."""
    a = as_affine(a)
    if a.m != f.m:
        raise ValueError("variable count mismatch")
    bits = substitute(f.monomials, substituted_tables(a), f.m)
    return anf_from_truth_table(TruthTable(f.m, bits))


def top_image(f: Anf, a) -> Anf:
    """Degree-deg(f) part of f after the substitution."""
    return homogeneous_part(transform_anf(f, a), f.degree())


@lru_cache(maxsize=None)
def _degree_masks(d: int, m: int) -> np.ndarray:
    """The degree-d monomial masks over m variables, ascending."""
    return np.array([s for s in range(1 << m) if s.bit_count() == d], dtype=np.intp)


def stabilizer_check(e: Anf, *maps) -> bool:
    """True when every map is invertible and fixes e modulo lower-degree terms.

    Per map this is top_image(e, a) == e with a's matrix invertible; all
    maps are checked at once (see the module docstring), and a call with
    no maps is True. An e with a lower-degree monomial is never fixed.
    """
    maps = [as_affine(a) for a in maps]
    m = e.m
    if any(a.m != m for a in maps):
        raise ValueError("variable count mismatch")
    if not maps:
        return True
    n = 1 << m
    dtype = np.min_scalar_type(n - 1)
    # Shifts run on intp and the checks count nonzeros: a first uint8 shift,
    # bool reduction or uint8 popcount in a process keeps 64 KB resident.
    rows, bit = np.array([a.matrix.rows for a in maps], dtype=np.intp), np.arange(m)
    # column j of map k: bit i is bit j of row i
    cols = ((rows[:, :, None] >> bit & 1) << bit[:, None]).sum(axis=1).astype(dtype)
    y = np.empty((len(maps), n), dtype=dtype)
    y[:, 0] = [a.shift for a in maps]
    for j in range(m):
        np.bitwise_xor(y[:, : 1 << j], cols[:, j : j + 1], out=y[:, 1 << j : 2 << j])
    if np.count_nonzero(y[:, 1:] == y[:, :1]):
        return False
    if e.is_zero():
        return True
    d = e.degree()
    if not e.is_homogeneous(d):
        return False
    points = np.arange(n, dtype=dtype)
    masks = np.array(list(e.monomials), dtype=dtype)
    # e(x) is the parity of the monomials of e that x covers
    table = np.bitwise_xor.reduce((points[:, None] & masks == masks).view(np.uint8), axis=1)
    image = table.take(y)
    for i in range(m):
        pairs = image.reshape(len(maps), n >> (i + 1), 2, 1 << i)
        pairs[:, :, 1] ^= pairs[:, :, 0]
    want = np.zeros(n, dtype=np.uint8)
    want[masks] = 1
    top = _degree_masks(d, m)
    return not np.count_nonzero(image[:, top] != want[top])


def random_invertible(m: int, rng: random.Random) -> Gf2Matrix:
    """Uniform over GL(m,2) by rejection sampling."""
    while True:
        mat = Gf2Matrix(m, tuple(rng.getrandbits(m) for _ in range(m)))
        if mat.is_invertible():
            return mat
