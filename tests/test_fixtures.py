import pytest

from rmenum import fixtures
from rmenum.boolfn import parse_anf
from rmenum.fixtures import (
    check_dual_transitions,
    complement_dual,
    data_text,
    load_dual_transitions,
    load_partition_sizes,
    load_reference_distribution,
    parse_dual_transitions,
)
from rmenum.gf2 import top_image
from rmenum.oracle import min_weight_count, validate_reference


def test_data_text_rejects_unknown_name():
    with pytest.raises(ValueError, match="no recorded checksum"):
        data_text("nonexistent.txt")


def test_data_text_rejects_tampering(tmp_path, monkeypatch):
    (tmp_path / "sample.txt").write_text("tampered\n")
    (tmp_path / "SHA256SUMS").write_text("0" * 64 + "  sample.txt\n")
    monkeypatch.setattr(fixtures, "_data_root", lambda: tmp_path)
    with pytest.raises(ValueError, match="checksum mismatch"):
        data_text("sample.txt")


def test_reference_distribution_identities():
    dist = load_reference_distribution()
    assert dist.n == 512
    assert dist.total() == 1 << 256
    assert dist.min_weight() == 32
    assert dist.coeffs[32] == min_weight_count(4, 9) == 52955952
    report = validate_reference(dist, 4, 9)
    assert report.ok, report.lines()


def test_partition_sizes_totals():
    rows = load_partition_sizes()
    assert len(rows) == 12
    assert sum(p.raw_blocks for p in rows) == 68443
    assert sum(p.merged_blocks for p in rows) == 12885
    assert all(0 < p.merged_blocks <= p.raw_blocks for p in rows)
    for p in rows:
        assert p.e.m == 7
        assert p.e.is_zero() or p.e.is_homogeneous(4)


def test_complement_dual_is_involution():
    f = parse_anf("123+145", 7)
    assert complement_dual(complement_dual(f)) == f
    # degree 3 monomials complement to degree 4
    assert complement_dual(parse_anf("123", 7)) == parse_anf("4567", 7)


def test_dual_transitions_totals():
    rows = load_dual_transitions()
    assert len(rows) == 12
    assert sum(t.count for t in rows) == 999
    for t in rows:
        assert t.matrix.is_invertible()
        assert t.source().is_zero() or t.source().is_homogeneous(4)


def test_transition_rows_align_with_partition_rows():
    # row i of the transition table lands on the form of row i of the
    # partition table, so the two files share one class order
    parts = load_partition_sizes()
    trans = load_dual_transitions()
    assert all(t.target() == p.e for t, p in zip(trans, parts))


def test_full_scale_multiplication_budget():
    parts = load_partition_sizes()
    trans = load_dual_transitions()
    assert sum(t.count * p.merged_blocks for t, p in zip(trans, parts)) == 1827252


def test_transition_matrices_map_source_onto_target():
    for t in load_dual_transitions():
        assert top_image(t.source(), t.matrix) == t.target()
        contra = t.matrix.inverse().transpose()
        assert top_image(t.source_dual, contra) == t.target_dual


def test_check_dual_transitions_lines():
    lines = check_dual_transitions()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)


NOT_DECIMAL = ["1_4", "+1", "\u0663"]
NOT_DECIMAL_IDS = ["underscore", "sign", "arabic"]


def first_data_line(text):
    return next(ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#"))


@pytest.mark.parametrize("bad", NOT_DECIMAL, ids=NOT_DECIMAL_IDS)
def test_partition_sizes_refuse_integers_int_would_take(monkeypatch, bad):
    # both block counts are ASCII decimal digits alone
    text = data_text(fixtures.PARTITION_SIZES)
    line = first_data_line(text)
    anf, raw, merged = line.split()
    for broken in (f"{anf} {bad} {merged}", f"{anf} {raw} {bad}"):
        monkeypatch.setattr(fixtures, "data_text", lambda name: text.replace(line, broken, 1))
        with pytest.raises(ValueError, match="not an ASCII decimal integer"):
            load_partition_sizes()


@pytest.mark.parametrize("bad", NOT_DECIMAL, ids=NOT_DECIMAL_IDS)
def test_dual_transitions_refuse_integers_int_would_take(bad):
    # the count is ASCII decimal digits alone
    text = data_text(fixtures.DUAL_TRANSITIONS)
    line = first_data_line(text)
    broken = " ".join([bad, *line.split()[1:]])
    with pytest.raises(ValueError, match="not an ASCII decimal integer"):
        parse_dual_transitions(text.replace(line, broken, 1))
