"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ACCEPTANCE line so the full verdict list can be
read off a plain pytest run (the -rA summary shows them for passing tests
too). Everything is exact integer equality; there are no tolerances.
"""

import random
from pathlib import Path

from rmenum.boolfn import (
    HomogeneousSpace,
    attach_top,
    parse_anf,
)
from rmenum.classify import (
    classify_quotient,
    gl2_generators,
    merge_by_enumerator,
    orbit_partition,
)
from rmenum.cli import main
from rmenum.cosetenum import batch_coset_enumerators, coset_enumerator, coset_histograms
from rmenum.fixtures import load_partition_sizes, load_reference_distribution
from rmenum.gf2 import stabilizer_check
from rmenum.oracle import brute_force_distribution, min_weight_count, validate_reference
from rmenum.pipeline import MulCounter, coset_enum_blocks, coset_enum_split
from rmenum.wenum import read_distribution


def report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {n}: {detail}"


def test_criterion_1_pipeline_equals_oracle_r3_m5(tmp_path):
    out = tmp_path / "pipe.txt"
    assert main(["pipeline", "--r", "3", "--m", "5", "--out", str(out)]) == 0
    got = read_distribution(str(out))
    want = brute_force_distribution(3, 5)
    report(1, got == want, "pipeline R(3,5) equals the 2^26-word oracle, all coefficients")


def test_criterion_2_pipeline_equals_oracle_r2_m6(tmp_path):
    out = tmp_path / "pipe.txt"
    assert main(["pipeline", "--r", "2", "--m", "6", "--out", str(out)]) == 0
    got = read_distribution(str(out))
    want = brute_force_distribution(2, 6)
    report(2, got == want, "pipeline R(2,6) equals the 2^22-word oracle, all coefficients")


def test_criterion_3_split_identity_random_pairs():
    rng = random.Random(2026)
    e_space = HomogeneousSpace(4, 3)
    f_space = HomogeneousSpace(4, 2)
    ok = True
    for _ in range(20):
        e = e_space.anf_of(rng.randrange(e_space.size))
        f = f_space.anf_of(rng.randrange(f_space.size))
        direct = coset_enumerator(attach_top(e, f), 2, 5)
        ok = ok and coset_enum_split(e, f, 1, 4) == direct
    report(3, ok, "product-sum split equals brute cosets of R(2,5), 20 random (e,f)")


def test_criterion_4_block_factorization_counts():
    rng = random.Random(2027)
    space = HomogeneousSpace(5, 2)
    ok = True
    for rec in classify_quotient(3, 5):
        part = orbit_partition(rec.rep, rec.gens, 1, 5)
        rows = coset_histograms([rec.rep ^ space.anf_of(int(g)) for g in part.first], 1, 5)
        merged, mrows = merge_by_enumerator(part, [rows])
        for _ in range(20):
            f = space.anf_of(rng.randrange(space.size))
            counter = MulCounter()
            got = coset_enum_blocks(f, merged, mrows, counter=counter)
            ok = ok and got == coset_enum_split(rec.rep, f, 1, 5)
            ok = ok and counter.count == merged.block_count
    report(4, ok, "block-grouped evaluation matches the direct split; mults = s(e)")


def test_criterion_5_blocks_share_enumerators_exhaustively():
    part = orbit_partition(parse_anf("0", 5), gl2_generators(5), 1, 5)
    space = HomogeneousSpace(5, 2)
    enums = batch_coset_enumerators([space.anf_of(g) for g in range(space.size)], 1, 5)
    # every index lies in a block, and its enumerator is that of the block's least index
    ok = part.block_of.size == space.size
    for g in range(space.size):
        ok = ok and enums[g] == enums[int(part.first[part.block_of[g]])]
    report(5, ok, "every orbit block over e=0 shares one enumerator, all 1024 indices")


def test_criterion_6_shipped_reference_tables():
    parts = load_partition_sizes()
    ok = sum(p.raw_blocks for p in parts) == 68443
    dist = load_reference_distribution()
    rep = validate_reference(dist, 4, 9)
    ok = ok and rep.ok
    ok = ok and dist.coeffs[32] == min_weight_count(4, 9) == 52955952
    report(6, ok, "partition sizes sum to 68443; shipped R(4,9) table passes all identities")


def test_criterion_7_classification_sums_and_stabilizers():
    ok = True
    for d, m, bits in ((2, 5, 10), (3, 6, 20)):
        records = classify_quotient(d, m)
        ok = ok and sum(rec.size for rec in records) == 1 << bits
        for rec in records:
            ok = ok and all(stabilizer_check(rec.rep, a) for a in rec.gens)
    report(7, ok, "classifications of H^(2)(5) and H^(3)(6) sum to 2^10 and 2^20; gens stabilize")


def test_criterion_8_outputs_bit_identical_across_jobs(tmp_path):
    ok = True
    for r, m in ((3, 5), (2, 6)):
        blobs = []
        for jobs in ("1", "4", "8"):
            out = tmp_path / f"r{r}m{m}j{jobs}.txt"
            code = main(
                ["pipeline", "--r", str(r), "--m", str(m), "--jobs", jobs, "--out", str(out)]
            )
            ok = ok and code == 0
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    report(8, ok, "pipeline output files byte-identical for --jobs 1, 4, 8")


def test_criterion_9_large_run_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    ok = "Large runs" in readme and "R(4,9)" in readme
    report(9, ok, "full R(4,9) run is out of desk scope; procedure and costs documented")
