"""Shipped reference data and its integrity checks.

Three text files ride along in rmenum/data: the full weight distribution
of R(4,9), the per-class partition sizes for the twelve quartic classes on
7 variables, and the matched-class table with transition matrices (written
in complementary-dual notation: a monomial stands for its complement in
{1..7}). Every loader verifies the file's sha256 against SHA256SUMS first;
the data is validated downstream, never silently trusted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources

from .boolfn import Anf, parse_anf
from .gf2 import Gf2Matrix
from .wenum import WeightEnumerator, _decimal, read_distribution

REFERENCE_DISTRIBUTION = "rm512_distribution.txt"
PARTITION_SIZES = "partition_sizes_m7.txt"
DUAL_TRANSITIONS = "dual_transition_m7.txt"


def _data_root():
    return resources.files("rmenum") / "data"


def data_text(name: str) -> str:
    root = _data_root()
    expected = None
    for line in (root / "SHA256SUMS").read_text().splitlines():
        fields = line.split()
        if len(fields) == 2 and fields[1] == name:
            expected = fields[0]
    if expected is None:
        raise ValueError(f"{name} has no recorded checksum")
    raw = (root / name).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != expected:
        raise ValueError(f"{name} checksum mismatch: {digest} != {expected}")
    return raw.decode()


def load_reference_distribution() -> WeightEnumerator:
    """The shipped W[z; R(4,9)], checksum-verified (but see oracle.validate_reference)."""
    import io

    return read_distribution(io.StringIO(data_text(REFERENCE_DISTRIBUTION)))


@dataclass(frozen=True)
class PartitionSizes:
    e: Anf
    raw_blocks: int
    merged_blocks: int


def load_partition_sizes() -> list[PartitionSizes]:
    out = []
    for line in data_text(PARTITION_SIZES).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        anf, raw, merged = line.split()
        out.append(PartitionSizes(parse_anf(anf, 7), _decimal(raw), _decimal(merged)))
    return out


@dataclass(frozen=True)
class DualTransition:
    count: int
    source_dual: Anf
    target_dual: Anf
    matrix: Gf2Matrix

    def source(self) -> Anf:
        return complement_dual(self.source_dual)

    def target(self) -> Anf:
        return complement_dual(self.target_dual)


def complement_dual(a: Anf) -> Anf:
    """Swap every monomial for its complement variable set (degree d <-> m-d)."""
    full = (1 << a.m) - 1
    return Anf(a.m, frozenset(full ^ mask for mask in a.monomials))


def parse_dual_transitions(text: str) -> list[DualTransition]:
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 10:
            raise ValueError(
                f"line {number} {line!r} has {len(fields)} of the 10 fields: "
                "count, source, target and 7 matrix rows"
            )
        count, src, tgt = _decimal(fields[0]), fields[1], fields[2]
        mat = Gf2Matrix.from_text(" ".join(fields[3:]))
        out.append(
            DualTransition(count, parse_anf(src, 7), parse_anf(tgt, 7), mat)
        )
    return out


def load_dual_transitions() -> list[DualTransition]:
    return parse_dual_transitions(data_text(DUAL_TRANSITIONS))


def check_dual_transitions(rows: list[DualTransition] | None = None) -> list[str]:
    """Confirm each matrix maps its source class onto its target class.

    The matrix acts on the primal quartics directly; on the dual notation the
    same map is the contragredient A^-T. Both are checked. Returns one
    "PASS ..."/"FAIL ..." line per table row.
    """
    from .boolfn import format_anf
    from .gf2 import top_image

    if rows is None:
        rows = load_dual_transitions()
    lines = []
    for i, t in enumerate(rows):
        primal_ok = top_image(t.source(), t.matrix) == t.target()
        contra = t.matrix.inverse().transpose()
        dual_ok = top_image(t.source_dual, contra) == t.target_dual
        verdict = "PASS" if primal_ok and dual_ok else "FAIL"
        lines.append(
            f"{verdict} row {i}:"
            f" {format_anf(t.source_dual)} -> {format_anf(t.target_dual)}"
            f" ({t.count} cosets)"
        )
    return lines
