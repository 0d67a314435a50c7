import hashlib
import io
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest

import rmenum

from rmenum.boolfn import (
    HomogeneousSpace,
    attach_top,
    decompose_top,
    parse_anf,
    truth_table_from_anf,
)
from rmenum.classify import (
    DEFAULT_MAX_GENS,
    ClassRecord,
    Partition,
    QuotientClassification,
    classify_quotient,
    merge_by_enumerator,
    orbit_partition,
    quotient_leader,
    quotient_partition,
    write_classification,
)
from rmenum.cosetenum import (
    coset_enumerator,
    coset_histograms,
    rm_dimension,
)
from rmenum.oracle import brute_force_distribution, min_weight_count, validate_reference
from rmenum.pipeline import (
    FOURIER_LABEL,
    PIPELINE_MAX_GENS,
    MulCounter,
    _block_table,
    _fourier_terms,
    coset_enum_blocks,
    coset_enum_split,
    distribution_from_classes,
    rebase_representatives,
    run_pipeline,
)
from rmenum.wenum import WeightEnumerator, square, write_distribution


def split_reference(e, f, r, m):
    # (e + f x_{m+1}) + R(r+1,m+1) enumerated directly
    p = attach_top(e, f)
    return coset_enumerator(truth_table_from_anf(p).bits, r + 1, m + 1)


def test_split_identity_exhaustive_tiny():
    # r=0, m=2: every homogeneous pair (e of degree 2, f of degree 1)
    e_space = HomogeneousSpace(2, 2)
    f_space = HomogeneousSpace(2, 1)
    for ei in range(e_space.size):
        for fi in range(f_space.size):
            e, f = e_space.anf_of(ei), f_space.anf_of(fi)
            assert coset_enum_split(e, f, 0, 2) == split_reference(e, f, 0, 2)


def test_split_identity_random():
    rng = random.Random(13)
    e_space = HomogeneousSpace(4, 3)
    f_space = HomogeneousSpace(4, 2)
    for _ in range(8):
        e = e_space.anf_of(rng.randrange(e_space.size))
        f = f_space.anf_of(rng.randrange(f_space.size))
        counter = MulCounter()
        got = coset_enum_split(e, f, 1, 4, counter=counter)
        assert got == split_reference(e, f, 1, 4)
        assert counter.count == f_space.size


def test_split_identity_on_packed_lanes():
    # the split's packed reps span one 64-bit lane at m = 6 and two at m = 7
    rng = random.Random(59)
    for m in (6, 7):
        e_space, f_space = HomogeneousSpace(m, 2), HomogeneousSpace(m, 1)
        e = e_space.anf_of(rng.randrange(e_space.size))
        f = f_space.anf_of(rng.randrange(f_space.size))
        counter = MulCounter()
        assert coset_enum_split(e, f, 0, m, counter=counter) == split_reference(e, f, 0, m)
        assert counter.count == f_space.size


def test_split_rejects_inhomogeneous():
    with pytest.raises(ValueError, match="homogeneous"):
        coset_enum_split(parse_anf("12", 4), parse_anf("12", 4), 1, 4)


def test_split_rejects_e_over_another_variable_count(monkeypatch):
    # e over m - 1 or m + 1 variables is refused before any span is built;
    # the same forms over m variables run
    import rmenum.pipeline as pipeline

    f = parse_anf("12+45", 5)
    want = coset_enum_split(parse_anf("123", 5), f, 1, 5)

    def forbidden(*args, **kwargs):
        raise AssertionError("a span was built before the variable count check")

    monkeypatch.setattr(pipeline, "packed_words", forbidden)
    monkeypatch.setattr(pipeline, "xor_span_array", forbidden)
    for m_e in (4, 6):
        with pytest.raises(ValueError, match="e has the wrong variable count"):
            coset_enum_split(parse_anf("123", m_e), f, 1, 5)
    monkeypatch.undo()
    assert coset_enum_split(parse_anf("123", 5), f, 1, 5) == want


def test_blocks_equal_split_with_fewer_multiplications():
    # on the orbit partition of V and on the same blocks over V/W_e
    e = parse_anf("123", 5)
    rec = next(r for r in classify_quotient(3, 5) if r.rep == e)
    space = HomogeneousSpace(5, 2)
    built = []
    for part in (orbit_partition(e, rec.gens, 1, 5), quotient_partition(e, rec.gens, 1, 5)):
        leaders = quotient_leader(part.basis, part.first).tolist()
        rows = coset_histograms([e ^ space.anf_of(g) for g in leaders], 1, 5)
        built.append(merge_by_enumerator(part, [rows]))
    (full, full_rows), (merged, mrows) = built
    assert len(merged.basis) == 3 and np.array_equal(full_rows, mrows)

    rng = random.Random(19)
    for _ in range(4):
        f = space.anf_of(rng.randrange(space.size))
        c_split = MulCounter()
        c_full = MulCounter()
        c_blocks = MulCounter()
        want = coset_enum_split(e, f, 1, 5, counter=c_split)
        assert coset_enum_blocks(f, full, full_rows, counter=c_full) == want
        assert coset_enum_blocks(f, merged, mrows, counter=c_blocks) == want
        assert c_blocks.count == c_full.count == merged.block_count < c_split.count


def test_blocks_on_singleton_blocks_equal_split():
    # unmerged singleton blocks: one product per index of H^(2)(4)
    e = parse_anf("123", 4)
    space = HomogeneousSpace(4, 2)
    size = space.size
    part = Partition(e, 2, 4, np.arange(size, dtype=np.int32), np.arange(size, dtype=np.uint32))
    rows = coset_histograms([e ^ space.anf_of(g) for g in range(size)], 1, 4)
    rng = random.Random(37)
    for _ in range(4):
        f = HomogeneousSpace(4, 2).anf_of(rng.randrange(64))
        counter = MulCounter()
        assert coset_enum_blocks(f, part, rows, counter=counter) == coset_enum_split(e, f, 1, 4)
        assert counter.count == 64


def test_blocks_requires_aligned_enums():
    # 8 singleton blocks over H^(1)(3), each a row of 9 counts: too few rows,
    # rows of the wrong length and a negative count are refused before any
    # product is counted
    part = orbit_partition(parse_anf("0", 3), [], 0, 3)
    f = parse_anf("1", 3)
    rows = coset_histograms([HomogeneousSpace(3, 1).anf_of(g) for g in range(8)], 0, 3)
    want = coset_enum_split(parse_anf("0", 3), f, 0, 3)
    assert coset_enum_blocks(f, part, rows) == want
    negative = rows.copy()
    negative[3, 0] = -1
    for bad, match in (
        (rows[:7], "per block"),
        (rows[:, :8], "per block"),
        (negative, "negative"),
    ):
        counter = MulCounter()
        with pytest.raises(ValueError, match=match):
            coset_enum_blocks(f, part, bad, counter=counter)
        assert counter.count == 0


def test_run_pipeline_validates_class_sizes_before_the_sum(monkeypatch):
    # _class_order checks the sizes once, in run_pipeline, before the class
    # sum is entered, on both strategies
    import rmenum.pipeline as pipeline

    def forbidden(*args, **kwargs):
        raise AssertionError("the class sum ran over classes that do not sum")

    monkeypatch.setattr(pipeline, "distribution_from_classes", forbidden)
    short = classify_quotient(2, 4)[:-1]
    for strategy in ("blocks", "direct"):
        with pytest.raises(ValueError, match="sum to"):
            run_pipeline(2, 5, classes=short, strategy=strategy)


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_is_rejected_before_any_work(monkeypatch, jobs):
    import rmenum.pipeline as pipeline

    classes = classify_quotient(2, 4)

    def forbidden(*args, **kwargs):
        raise AssertionError("work was done before the jobs check")

    monkeypatch.setattr(QuotientClassification, "compute", staticmethod(forbidden))
    monkeypatch.setattr(pipeline, "_class_order", forbidden)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        distribution_from_classes(classes, forbidden, 32, {}, jobs=jobs)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_pipeline(3, 6, jobs=jobs)


def test_pipeline_matches_brute_force_small():
    for r, m in [(2, 4), (2, 5), (3, 4)]:
        for strategy in ("direct", "blocks"):
            assert run_pipeline(r, m, strategy=strategy) == brute_force_distribution(r, m)


def test_pipeline_r23_closed_form():
    # R(2,3) is the even-weight code on 8 points
    want = WeightEnumerator(8, [comb(8, w) if w % 2 == 0 else 0 for w in range(9)])
    assert run_pipeline(2, 3) == want


def test_pipeline_r45_closed_form():
    # R(4,5) is the even-weight code on 32 points, past the brute-force cap
    want = WeightEnumerator(32, [comb(32, w) if w % 2 == 0 else 0 for w in range(33)])
    assert run_pipeline(4, 5) == want


def test_pipeline_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_pipeline(1, 4)
    with pytest.raises(ValueError):
        run_pipeline(2, 2)
    with pytest.raises(ValueError, match="strategy"):
        run_pipeline(2, 4, strategy="magic")


def test_pipeline_accepts_classification_records_and_files(tmp_path):
    records = classify_quotient(3, 4)
    want = run_pipeline(3, 5)
    assert run_pipeline(3, 5, classes=records) == want
    path = tmp_path / "cls.txt"
    write_classification(str(path), records, 3, 4)
    assert run_pipeline(3, 5, classes=str(path)) == want
    # a file for the wrong parameters is rejected before any work
    with pytest.raises(ValueError):
        run_pipeline(2, 5, classes=str(path))


def test_pipeline_jobs_invariance():
    assert run_pipeline(2, 6, jobs=3) == run_pipeline(2, 6)


def test_import_loads_no_process_pool():
    # only a run with jobs > 1 opens a pool; importing the package, in a
    # fresh process, loads neither concurrent.futures nor multiprocessing,
    # which add about 1.5 MB
    code = "import sys, rmenum; print(sorted(m for m in sys.modules if m.split('.')[0] in "
    code += "('concurrent', 'multiprocessing')))"
    env = dict(os.environ, PYTHONPATH=str(Path(rmenum.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pipeline_checkpoint_resume(tmp_path):
    ckpt = tmp_path / "ckpt"
    first = MulCounter()
    a = run_pipeline(3, 5, checkpoint=str(ckpt), counter=first)
    assert first.count > 0
    names = sorted(p.name for p in ckpt.iterdir())
    assert names == [f"class_{i:05d}.txt" for i in range(len(names))]
    second = MulCounter()
    b = run_pipeline(3, 5, checkpoint=str(ckpt), counter=second)
    assert a == b
    assert second.count == 0


RESUME_CASES = [(given, jobs) for given in (True, False) for jobs in (1, 2)]
RESUME_IDS = [f"{'given' if given else 'self'}-jobs{jobs}" for given, jobs in RESUME_CASES]


def resume_classes(given):
    # R(2,7) sums over the 4 classes of H^(2)(6); their lower forms are the
    # 3 classes of H^(2)(5)
    return classify_quotient(2, 6, random.Random(4)) if given else None


@pytest.mark.parametrize("given, jobs", RESUME_CASES, ids=RESUME_IDS)
def test_fully_checkpointed_resume_builds_no_block_table(monkeypatch, tmp_path, given, jobs):
    import rmenum.pipeline as pipeline

    ckpt = str(tmp_path / "ckpt")
    classes = resume_classes(given)
    want = run_pipeline(2, 7, classes=classes, jobs=jobs, checkpoint=ckpt)

    def forbidden(*args, **kwargs):
        raise AssertionError("a fully checkpointed resume built a block table")

    def no_sampling(*args, **kwargs):
        raise AssertionError("a fully checkpointed resume sampled stabilizers")

    monkeypatch.setattr(pipeline, "quotient_partition", forbidden)
    monkeypatch.setattr(pipeline, "coset_histograms", forbidden)
    # rebasing reads only the lower transversals, and no class is pending
    monkeypatch.setattr(QuotientClassification, "_schreier_sample", no_sampling)
    counter = MulCounter()
    assert run_pipeline(2, 7, classes=classes, jobs=jobs, checkpoint=ckpt, counter=counter) == want
    assert counter.count == 0


@pytest.mark.parametrize("given, jobs", RESUME_CASES, ids=RESUME_IDS)
def test_partial_resume_builds_only_the_pending_lower_form(monkeypatch, tmp_path, given, jobs):
    import rmenum.pipeline as pipeline

    ckpt = tmp_path / "ckpt"
    classes = resume_classes(given)
    want = run_pipeline(2, 7, classes=classes, jobs=jobs, checkpoint=str(ckpt))
    victim = ckpt / "class_00002.txt"
    whole = victim.read_text()
    rep = next(ln.split(None, 2)[2] for ln in whole.splitlines() if ln.startswith("# rep "))
    # a class-sum file is headed by a class of H^(2)(6), whose lower part
    # names the block table; a Fourier file by the lower class of H^(2)(5)
    lower = decompose_top(parse_anf(rep, 6))[0] if given else parse_anf(rep, 5)
    victim.unlink()

    built, sampled = [], []
    sample = QuotientClassification._schreier_sample

    def spy(partition, chunks):
        built.append(partition.e)
        return merge_by_enumerator(partition, chunks)

    def sample_spy(self, rep, *args):
        sampled.append(rep)
        return sample(self, rep, *args)

    monkeypatch.setattr(pipeline, "merge_by_enumerator", spy)
    monkeypatch.setattr(QuotientClassification, "_schreier_sample", sample_spy)
    counter = MulCounter()
    got = run_pipeline(2, 7, classes=classes, jobs=jobs, checkpoint=str(ckpt), counter=counter)
    assert got == want
    # of the 3 lower classes, only the one the pending class reads is sampled
    assert sampled == [lower]
    assert built == [lower]
    assert counter.count > 0
    assert victim.read_text() == whole


def spy_draws_and_tables(monkeypatch):
    """The list that every stabilizer draw and block table of a run appends to."""
    import rmenum.pipeline as pipeline

    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    draw = QuotientClassification.stabilizer_gens
    monkeypatch.setattr(QuotientClassification, "stabilizer_gens", spy("draw", draw))
    monkeypatch.setattr(pipeline, "_block_table", spy("table", pipeline._block_table))
    return calls


@pytest.mark.parametrize("given", [True, False], ids=["given", "self"])
def test_corrupt_checkpoints_are_refused_before_any_draw_or_table(monkeypatch, tmp_path, given):
    # one class missing, another cut short: every checkpoint is read and
    # checked before the pending class's stabilizers are drawn or its table built
    ckpt = tmp_path / "ckpt"
    classes = resume_classes(given)
    run_pipeline(2, 7, classes=classes, checkpoint=str(ckpt))
    (ckpt / "class_00002.txt").unlink()
    cut = ckpt / "class_00000.txt"
    cut.write_text("".join(cut.read_text().splitlines(keepends=True)[:-1]))
    calls = spy_draws_and_tables(monkeypatch)
    with pytest.raises(ValueError, match="totals"):
        run_pipeline(2, 7, classes=classes, checkpoint=str(ckpt))
    assert calls == []


# (route, key) for every key of _checkpoint_header: the Fourier files of
# R(3,6) carry a route line, the class-sum files of R(2,7) over given classes
# do not
REPEAT_CASES = [("fourier", key) for key in ("route", "class", "rep", "size")]
REPEAT_CASES += [("given", key) for key in ("class", "rep", "size")]


@pytest.mark.parametrize("route, key", REPEAT_CASES, ids=[f"{r}-{k}" for r, k in REPEAT_CASES])
def test_resume_refuses_a_repeated_checkpoint_header(monkeypatch, tmp_path, route, key):
    # a second line for a key, even with the same value, is refused before
    # any draw or table; it was once read as the last line for that key
    r, m, classes = (3, 6, None) if route == "fourier" else (2, 7, resume_classes(True))
    ckpt = tmp_path / "ckpt"
    run_pipeline(r, m, classes=classes, checkpoint=str(ckpt))
    victim = ckpt / "class_00000.txt"
    lines = victim.read_text().splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith(f"# {key} "))
    victim.write_text("".join(lines[: at + 1] + lines[at:]))
    calls = spy_draws_and_tables(monkeypatch)
    with pytest.raises(ValueError, match=f"repeated '# {key}' header"):
        run_pipeline(r, m, classes=classes, checkpoint=str(ckpt))
    assert calls == []


@pytest.mark.parametrize("given", [True, False], ids=["given", "self"])
def test_resume_opens_each_checkpoint_at_most_twice(monkeypatch, tmp_path, given):
    # once for the route scan, once for the header and body of the read
    import builtins

    ckpt = tmp_path / "ckpt"
    classes = resume_classes(given)
    want = run_pipeline(2, 7, classes=classes, checkpoint=str(ckpt))
    files = sorted(str(path) for path in ckpt.iterdir())
    opened = dict.fromkeys(files, 0)
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) in opened:
            opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    counter = MulCounter()
    assert run_pipeline(2, 7, classes=classes, checkpoint=str(ckpt), counter=counter) == want
    monkeypatch.undo()
    assert counter.count == 0
    assert all(1 <= n <= 2 for n in opened.values()), opened


SEED_CODES = [(3, 7), (2, 8)]


@pytest.mark.parametrize("given", [True, False], ids=["given", "self"])
@pytest.mark.parametrize("r, m", SEED_CODES, ids=[f"r{r}m{m}" for r, m in SEED_CODES])
def test_outputs_do_not_depend_on_the_seed(tmp_path, r, m, given):
    # the seed picks which Schreier generators are drawn, and the merged
    # blocks do not depend on them: same distribution, count, label and
    # checkpoint bytes at seeds 0, 1 and 2, for given classes drawn from the
    # same seed too
    outputs = set()
    for seed in (0, 1, 2):
        classes = classify_quotient(r, m - 1, random.Random(seed)) if given else None
        ckpt = tmp_path / f"seed{seed}"
        counter = MulCounter()
        dist = run_pipeline(r, m, classes=classes, seed=seed, checkpoint=str(ckpt), counter=counter)
        files = tuple(path.read_bytes() for path in sorted(ckpt.iterdir()))
        outputs.add((dist.coeffs, counter.count, counter.label, files))
    assert len(outputs) == 1


def test_pipeline_checkpoint_rejects_foreign_files(tmp_path):
    ckpt = tmp_path / "ckpt"
    run_pipeline(3, 5, checkpoint=str(ckpt))
    victim = next(iter(sorted(ckpt.iterdir())))
    text = victim.read_text()
    victim.write_text(text.replace("# size", "# size 9"))
    with pytest.raises(ValueError, match="header"):
        run_pipeline(3, 5, checkpoint=str(ckpt))


def test_pipeline_checkpoint_torn_writes(tmp_path):
    # the class sum over H^(3)(5) writes 3 files, the Fourier route over H^(3)(4) 2
    for classes in (classify_quotient(3, 5), None):
        ckpt = tmp_path / ("given" if classes else "self")
        want = run_pipeline(3, 6, classes=classes, checkpoint=str(ckpt))
        victim = sorted(ckpt.iterdir())[-1]
        whole = victim.read_text()
        # a write cut short keeps the headers but loses weights: rejected on resume
        victim.write_text("".join(whole.splitlines(keepends=True)[:-3]))
        with pytest.raises(ValueError, match="totals"):
            run_pipeline(3, 6, classes=classes, checkpoint=str(ckpt))
        # a temp file left by an interrupted write is never read; the class is redone
        victim.unlink()
        leftover = ckpt / f"{victim.name}.tmp"
        leftover.write_text(whole[: len(whole) // 2])
        counter = MulCounter()
        assert run_pipeline(3, 6, classes=classes, checkpoint=str(ckpt), counter=counter) == want
        assert counter.count > 0
        assert victim.read_text() == whole
        assert not leftover.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_fourier_checkpoints_match_the_plain_run(tmp_path, jobs):
    plain, counter = MulCounter(), MulCounter()
    want = run_pipeline(2, 7, counter=plain)
    ckpt = tmp_path / "ckpt"
    assert run_pipeline(2, 7, jobs=jobs, checkpoint=str(ckpt), counter=counter) == want
    assert (counter.count, counter.label) == (plain.count, FOURIER_LABEL)
    # one file per class of H^(2)(5), each headed by its route
    files = sorted(ckpt.iterdir())
    assert [p.name for p in files] == [f"class_{i:05d}.txt" for i in range(3)]
    for path in files:
        assert path.read_text().splitlines()[1] == "# route fourier"


def drop_route_line(ckpt):
    victim = sorted(ckpt.iterdir())[-1]
    lines = victim.read_text().splitlines(keepends=True)
    victim.write_text("".join(ln for ln in lines if not ln.startswith("# route ")))


# (directory written by, run that reads it); R(2,7) self-classified sums the
# 3 classes of H^(2)(5), given the 4 classes of H^(2)(6)
FOREIGN_CASES = {
    "class-sum-dir-to-fourier": (True, False, None),
    "fourier-dir-to-class-sum": (False, True, None),
    "route-line-removed": (False, False, drop_route_line),
}


@pytest.mark.parametrize("case", FOREIGN_CASES)
def test_checkpoint_directory_of_another_route_raises(monkeypatch, tmp_path, case):
    import rmenum.pipeline as pipeline

    writer_given, reader_given, tamper = FOREIGN_CASES[case]
    ckpt = tmp_path / "ckpt"
    run_pipeline(2, 7, classes=resume_classes(writer_given), checkpoint=str(ckpt))
    if tamper is not None:
        tamper(ckpt)
    before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    classes = resume_classes(reader_given)

    def forbidden(*args, **kwargs):
        raise AssertionError("work was done before the route check")

    # the route headers are read before any classification or block table
    monkeypatch.setattr(QuotientClassification, "compute", staticmethod(forbidden))
    monkeypatch.setattr(pipeline, "_block_table", forbidden)
    monkeypatch.setattr(pipeline, "_fourier_distribution", forbidden)
    monkeypatch.setattr(pipeline, "_class_sum_term", forbidden)
    with pytest.raises(ValueError, match="header 'route'"):
        run_pipeline(2, 7, classes=classes, checkpoint=str(ckpt))
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before


def test_pipeline_final_check_rejects_wrong_sizes():
    # swapping the zero class's size with another keeps the size sum right
    # but makes W_0 wrong
    records = classify_quotient(3, 5)
    assert records[0].rep.is_zero()
    swapped = [
        replace(records[0], size=records[1].size),
        replace(records[1], size=records[0].size),
        *records[2:],
    ]
    with pytest.raises(ValueError, match="W_0"):
        run_pipeline(3, 6, classes=swapped)


def h24_classes(third):
    # the classes of H^(2)(4) are 0, rank 2 (12) and rank 4 (14+23)
    sizes = (("0", 1), ("12", 35), (third, 28))
    return [ClassRecord(rep=parse_anf(rep, 4), size=size) for rep, size in sizes]


@pytest.mark.parametrize("strategy", ["blocks", "direct"])
def test_pipeline_rejects_a_repeated_representative(tmp_path, strategy):
    assert run_pipeline(2, 5, classes=h24_classes("14+23"), strategy=strategy) == run_pipeline(2, 5)
    # the sizes still sum to 64, but the class of 12 would be counted twice
    classes = h24_classes("12")
    path = tmp_path / "classes.txt"
    write_classification(str(path), classes, 2, 4)
    for given in (classes, str(path)):
        with pytest.raises(ValueError, match="two classes have representative 12"):
            run_pipeline(2, 5, classes=given, strategy=strategy)


def test_pipeline_final_check_rejects_a_class_given_by_another_member():
    # 13 is a member of the class of 12: nothing repeats and the sizes sum,
    # but the rank-4 class is missing and the minimum-weight count is off
    classes = h24_classes("13")
    with pytest.raises(ValueError, match="minimum-weight count = 620: found 1068"):
        run_pipeline(2, 5, classes=classes, strategy="direct")
    # blocks rebases 13 onto 12 before the classes are ordered
    with pytest.raises(ValueError, match="two classes have representative 12"):
        run_pipeline(2, 5, classes=classes)


def test_given_classes_are_validated_before_any_stabilizer_or_block_table(monkeypatch):
    import rmenum.pipeline as pipeline

    records = classify_quotient(3, 5)
    bumped = [replace(records[0], size=records[0].size + 1), *records[1:]]

    def forbidden(*args, **kwargs):
        raise AssertionError("work was done before the given classes were validated")

    # rebased classes are ordered and checked before any lower class is sampled
    monkeypatch.setattr(pipeline, "_block_table", forbidden)
    monkeypatch.setattr(QuotientClassification, "stabilizer_gens", forbidden)
    with pytest.raises(ValueError, match="orbit sizes sum to 1025"):
        run_pipeline(3, 6, classes=bumped)
    with pytest.raises(ValueError, match="two classes have representative 12"):
        run_pipeline(2, 5, classes=h24_classes("12"))


@pytest.mark.parametrize("r, m", [(2, 5), (3, 6), (2, 7), (4, 7)])
def test_rebase_onto_lower_representatives(r, m):
    # the given classes of H^(r)(m-1) of R(r,m), rebased through H^(r)(m-2)
    lower = QuotientClassification.compute(r, m - 2)

    def representative(e):
        return lower.records[lower.class_of[lower.space.index_of(e)]].rep

    classes = classify_quotient(r, m - 1)
    rebased = rebase_representatives(classes, lower)
    assert [rec.size for rec in rebased] == [rec.size for rec in classes]
    kept = 0
    for old, new in zip(classes, rebased):
        e_old, f_old = decompose_top(old.rep)
        e_new, f_new = decompose_top(new.rep)
        assert e_new == representative(e_new)
        if e_old == representative(e_old):
            assert new.rep == old.rep
            kept += 1
        # same class, same W[z; rep + R(r-1,m-1)], as a product-sum over H^(r-1)(m-2)
        assert coset_enum_split(e_new, f_new, r - 2, m - 2) == coset_enum_split(
            e_old, f_old, r - 2, m - 2
        )
    # both cases occur: some lower parts are already representatives, some move
    assert 0 < kept < len(classes)


def test_pipeline_multiplication_counts():
    blocks = MulCounter()
    run_pipeline(3, 5, strategy="blocks", counter=blocks)
    direct = MulCounter()
    run_pipeline(3, 5, strategy="direct", counter=direct)
    # direct pays the whole product-sum for each class; blocks only the
    # merged block counts
    assert direct.count == len(classify_quotient(3, 4)) * HomogeneousSpace(3, 2).size
    assert 0 < blocks.count < direct.count


def test_counter_label_names_the_route():
    fourier, class_sum = MulCounter(), MulCounter()
    run_pipeline(3, 5, counter=fourier)
    run_pipeline(3, 5, classes=classify_quotient(3, 4), counter=class_sum)
    assert fourier.label == FOURIER_LABEL
    assert class_sum.label == "polynomial multiplications"


# Every (r, m) with 3 <= m <= 7 whose block sweeps over R(r-2, m-2) visit at
# most 2**16 words; R(5,7) would sweep 2**26 words per block in both routes.
SMALL_CODES = [
    (r, m) for m in range(3, 8) for r in range(2, m + 1) if rm_dimension(r - 2, m - 2) <= 16
]
# Codes whose direct product-sums take well under a second.
DIRECT_CHEAP = {(r, m) for r, m in SMALL_CODES if m <= 6} | {(2, 7)}


def test_fourier_route_equals_class_sum_and_direct():
    assert {(2, 3), (4, 5), (5, 5), (6, 6)} <= set(SMALL_CODES)
    for r, m in SMALL_CODES:
        fourier = run_pipeline(r, m)
        class_sum = run_pipeline(r, m, classes=classify_quotient(r, m - 1))
        assert fourier == class_sum, (r, m)
        if (r, m) in DIRECT_CHEAP:
            assert fourier == run_pipeline(r, m, strategy="direct"), (r, m)


def test_fourier_route_classifies_only_the_lower_forms(monkeypatch, tmp_path):
    import rmenum.pipeline as pipeline

    seen = []
    compute = QuotientClassification.compute

    def spy(d, m, *args, **kwargs):
        seen.append((d, m))
        return compute(d, m, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Fourier route took a class-sum step")

    monkeypatch.setattr(QuotientClassification, "compute", staticmethod(spy))
    monkeypatch.setattr(pipeline, "rebase_representatives", forbidden)
    want = brute_force_distribution(2, 6)
    # a checkpoint directory or workers do not change the route
    for ckpt, jobs in ((None, 1), ("a", 1), ("b", 2), (None, 2)):
        seen.clear()
        ckpt = ckpt and str(tmp_path / ckpt)
        counter = MulCounter()
        assert run_pipeline(2, 6, jobs=jobs, checkpoint=ckpt, counter=counter) == want
        assert seen == [(2, 4)]
        # two squarings per distinct transform row
        assert counter.count > 0 and counter.count % 2 == 0


SINGLETON_CODES = [(3, 6), (2, 7), (4, 7), (3, 7)]


@pytest.mark.parametrize("r, m", SINGLETON_CODES, ids=[f"r{r}m{m}" for r, m in SINGLETON_CODES])
def test_fourier_route_over_a_singleton_source(monkeypatch, tmp_path, r, m):
    # The Fourier route reads only records, in packed-rep order, and
    # stabilizer_gens of a lower classification. A source that lists every
    # form of H^(r)(m-2) as its own class, with no generators, needs no
    # classification at all and must give the same distribution.
    want = run_pipeline(r, m)
    drawn = []

    class SingletonSource:
        def __init__(self, d, m0):
            space = HomogeneousSpace(m0, d)
            self.records = [ClassRecord(rep=space.anf_of(i), size=1) for i in range(space.size)]

        def stabilizer_gens(self, cid, rng, max_gens):
            drawn.append(cid)
            return ()

    def singletons(d, m0, *args, **kwargs):
        return SingletonSource(d, m0)

    monkeypatch.setattr(QuotientClassification, "compute", staticmethod(singletons))
    ckpt = tmp_path / "ckpt"
    assert run_pipeline(r, m, checkpoint=str(ckpt)) == want
    forms = 1 << comb(m - 2, r)
    assert drawn == list(range(forms))
    # a resume draws for its pending classes alone, in ascending class id
    for cid in (forms - 1, 1):
        (ckpt / f"class_{cid:05d}.txt").unlink()
    drawn.clear()
    assert run_pipeline(r, m, checkpoint=str(ckpt)) == want
    assert drawn == [1, forms - 1]


# sha256 of write_distribution(W) and the direct product-sum counts, R(r,m) -> (digest, count)
DIRECT_PINS = {
    (3, 6): ("4db37e0d5ceb85fe383dc7ed358c76abb60950c2cdd397415bcebff080fe2186", 192),
    (2, 7): ("87e470cf8da51d9373d1a74ef6f7609195b13ccfba35c2fab540a197c8b5b371", 128),
    (3, 7): ("2bb5d3ad1b74f8645e635d70b6a0c0706d780a9397ea797fa7974c1bd86fbaae", 6144),
}


def test_direct_route_samples_no_top_stabilizers(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("direct sampled stabilizers of H^(r)(m-1)")

    monkeypatch.setattr(QuotientClassification, "_schreier_sample", forbidden)
    for (r, m), (digest, count) in DIRECT_PINS.items():
        counter = MulCounter()
        dist = run_pipeline(r, m, strategy="direct", counter=counter)
        buf = io.StringIO()
        write_distribution(buf, dist)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest, (r, m)
        assert counter.count == count, (r, m)


# the ladder codes R(r, m), and R(3,8): run_pipeline partitions above H^(r)(m-2)
LADDER = [(3, 6), (2, 7), (4, 7), (3, 7), (2, 8)]
BUDGET_CODES = [*LADDER, (3, 8)]


@pytest.mark.parametrize("r, m", BUDGET_CODES, ids=[f"r{r}m{m}" for r, m in BUDGET_CODES])
def test_block_tables_do_not_depend_on_the_budget(r, m):
    # singleton blocks are the finest refinement of every stabilizer orbit,
    # and merging by enumerator still lands on the 64-generator table
    for rec in classify_quotient(r, m - 2, random.Random(0), max_gens=DEFAULT_MAX_GENS):
        want = _block_table(rec, r, m - 2)
        got = _block_table(replace(rec, gens=()), r, m - 2)
        assert np.array_equal(got[0].block_of, want[0].block_of)
        assert np.array_equal(got[0].first, want[0].first)
        assert got[1].dtype == want[1].dtype == np.int64
        assert np.array_equal(got[1], want[1])


def test_singleton_block_table_is_swept_in_chunks():
    # x1x2x3 in 7 variables with no generators: the 2**18 singleton blocks of
    # V/W_e, V = H^(2)(7), merge into 7. Rows are swept and merged a chunk at
    # a time, so the traced peak is about 10.6 MB; it was 563 MB when every
    # raw block held a WeightEnumerator.
    rec = ClassRecord(parse_anf("123", 7), 1)
    tracemalloc.start()
    try:
        merged, rows = _block_table(rec, 3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"traced peak {peak / 2**20:.1f} MB"
    assert merged.block_of.size == 1 << 18 and len(merged.basis) == 3
    assert merged.block_count == len(rows) == 7
    assert len({row.tobytes() for row in rows}) == 7
    # every coset carries the row of its merged block
    space = HomogeneousSpace(7, 2)
    rng = np.random.default_rng(3)
    s = np.concatenate([merged.first, rng.integers(0, 1 << 18, 32)])
    words = [rec.rep ^ space.anf_of(int(g)) for g in quotient_leader(merged.basis, s)]
    assert np.array_equal(coset_histograms(words, 1, 7), rows[merged.block_of[s]])


FRESH_CASES = [(r, m, given) for r, m in LADDER for given in (False, True)]


@pytest.mark.parametrize(
    "r, m, given",
    FRESH_CASES,
    ids=[f"r{r}m{m}-{'given' if given else 'self'}" for r, m, given in FRESH_CASES],
)
def test_fresh_run_partitions_every_lower_class_as_compute_samples_it(monkeypatch, r, m, given):
    # a fresh run reads every lower class, so its per-class draws, made in
    # class order, give the generators that classify_quotient draws for all of
    # them
    import rmenum.pipeline as pipeline

    seed = 1
    built = []

    def spy(e, gens, r0, m0):
        part = quotient_partition(e, gens, r0, m0)
        built.append((e, len(gens), part.block_count, part.block_of.tobytes()))
        return part

    monkeypatch.setattr(pipeline, "quotient_partition", spy)
    classes = classify_quotient(r, m - 1, random.Random(4), max_gens=0) if given else None
    run_pipeline(r, m, classes=classes, seed=seed)
    want = []
    for rec in classify_quotient(r, m - 2, random.Random(seed), PIPELINE_MAX_GENS):
        part = quotient_partition(rec.rep, rec.gens, r - 2, m - 2)
        want.append((rec.rep, len(rec.gens), part.block_count, part.block_of.tobytes()))
    assert built == want


@pytest.mark.parametrize("r, m", LADDER, ids=[f"r{r}m{m}" for r, m in LADDER])
def test_pipeline_budget_does_not_change_outputs(monkeypatch, r, m):
    # the budget is a module constant read at call time: no generators
    # (singleton blocks of V/W_e) and a classification file's 64 give the
    # default run's distribution, counter count and label
    import rmenum.pipeline as pipeline

    budgets = []
    draw = QuotientClassification.stabilizer_gens

    def spy(self, cid, rng, max_gens):
        budgets.append(max_gens)
        return draw(self, cid, rng, max_gens)

    monkeypatch.setattr(QuotientClassification, "stabilizer_gens", spy)
    default = MulCounter()
    want = run_pipeline(r, m, counter=default)
    for budget in (0, DEFAULT_MAX_GENS):
        monkeypatch.setattr(pipeline, "PIPELINE_MAX_GENS", budget)
        budgets.clear()
        counter = MulCounter()
        assert run_pipeline(r, m, counter=counter) == want, budget
        assert (counter.count, counter.label) == (default.count, default.label), budget
        assert budgets and set(budgets) == {budget}


# Two squarings per distinct row of the transform over V/W_e, summed over
# the lower classes; the zero rows off W_e^perp never occur.
FOURIER_COUNTS = {
    (3, 6): 10,
    (2, 7): 12,
    (4, 7): 12,
    (3, 7): 22,
    (2, 8): 14,
    (3, 8): 82,
    (2, 9): 16,
}


@pytest.mark.parametrize("r, m", FOURIER_COUNTS, ids=[f"r{r}m{m}" for r, m in FOURIER_COUNTS])
def test_fourier_counts_are_pinned(r, m):
    counter = MulCounter()
    run_pipeline(r, m, counter=counter)
    assert (counter.count, counter.label) == (FOURIER_COUNTS[r, m], FOURIER_LABEL)


@pytest.mark.parametrize("r, m", [(3, 6), (2, 7)], ids=["r3m6", "r2m7"])
def test_fourier_term_equals_the_sum_over_f(r, m):
    # size * 2**(4k-N) * sum_u' Ahat'_u'**4 is size * sum_f W^2[z; (e + f x) +
    # R(r-1,m-1)], the plain product-sums, both when N > 4k (the zero class,
    # a divisibility check) and when N <= 4k (a left shift)
    contribution, unit_total = _fourier_terms(r, m)
    space = HomogeneousSpace(m - 2, r - 1)
    regimes = set()
    for rec in classify_quotient(r, m - 2, random.Random(0), max_gens=PIPELINE_MAX_GENS):
        k = len(quotient_partition(rec.rep, (), r - 2, m - 2).basis)
        regimes.add(space.nbits > 4 * k)
        coeffs, _ = contribution(rec)
        want = WeightEnumerator(1 << m, [0] * ((1 << m) + 1))
        for f in range(space.size):
            enum = coset_enum_split(rec.rep, space.anf_of(f), r - 2, m - 2)
            want = want + WeightEnumerator(1 << m, [c * rec.size for c in square(enum).coeffs])
        assert list(coeffs) == list(want.coeffs), rec.rep
        assert sum(coeffs) == rec.size * unit_total
    assert regimes == {True, False}


def test_r38_at_desk_scale():
    dist = run_pipeline(3, 8)
    assert validate_reference(dist, 3, 8).ok
    assert dist.coeffs[32] == min_weight_count(3, 8) == 777240


def test_fourier_route_refuses_oversized_runs_before_classifying(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classification started")

    monkeypatch.setattr(QuotientClassification, "compute", staticmethod(forbidden))
    # R(4,9), R(5,9): transforms over 2**35 indices, N = C(7,3) = C(7,4)
    for r, m in ((4, 9), (5, 9)):
        with pytest.raises(ValueError, match="cap"):
            run_pipeline(r, m)
    # every route sweeps cosets of R(r-2, m-2): 2**99 words for R(6,9), and
    # 2**42 for direct R(5,8), whose own classification is of H^(5)(7)
    for r, m, strategy, dim in ((6, 9, "blocks", 99), (5, 8, "direct", 42)):
        with pytest.raises(ValueError, match=f"2\\*\\*{dim} codewords exceed the cap"):
            run_pipeline(r, m, strategy=strategy)


def test_direct_route_refuses_an_oversized_product_sum_space(monkeypatch):
    # R(4,9) over one given class of H^(4)(8): its split runs over H^(3)(7),
    # 2**35 forms, whose packed span would take 512 GiB; the sweep cap of
    # R(2,7) alone lets it through
    import rmenum.pipeline as pipeline

    def forbidden(*args, **kwargs):
        raise AssertionError("the product-sum span was built")

    monkeypatch.setattr(pipeline, "xor_span_array", forbidden)
    classes = [ClassRecord(rep=parse_anf("0", 8), size=2**70)]
    with pytest.raises(ValueError, match="2\\*\\*35 forms, past the cap of 2\\*\\*25"):
        run_pipeline(4, 9, classes=classes, strategy="direct")


def test_fourier_route_refuses_an_oversized_sweep():
    # R(9,10): N = 1, but each block sweep visits 2**dim R(7,8) = 2**255 words
    with pytest.raises(ValueError, match="2\\*\\*255 codewords exceed the cap"):
        run_pipeline(9, 10)


def test_pipeline_reads_the_sweep_cap_at_call_time(monkeypatch):
    # R(3,6) sweeps cosets of R(1,4), 2**5 words each, on both routes; under
    # a cap of 16 codewords every route refuses before its first sweep
    from rmenum import cosetenum

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran past the cap")

    monkeypatch.setattr(cosetenum, "DEFAULT_CAP", 16)
    monkeypatch.setattr(cosetenum, "_gray_histograms", forbidden)
    for strategy in ("direct", "blocks"):
        with pytest.raises(ValueError, match="2\\*\\*5 codewords exceed the cap of 16"):
            run_pipeline(3, 6, strategy=strategy)


def test_fourier_route_rejects_a_corrupted_block_table(monkeypatch):
    import rmenum.pipeline as pipeline

    def bumped(partition, chunks):
        merged, rows = merge_by_enumerator(partition, chunks)
        rows[-1, -1] += 1
        return merged, rows

    monkeypatch.setattr(pipeline, "merge_by_enumerator", bumped)
    with pytest.raises(ValueError):
        run_pipeline(3, 6)


def test_fourier_route_rejects_an_inexact_transform(monkeypatch):
    import rmenum.pipeline as pipeline

    # without the butterfly the fourth-power sum is not a multiple of 2**N
    monkeypatch.setattr(pipeline, "_walsh_hadamard", lambda table: None)
    with pytest.raises(ValueError, match="divisible"):
        run_pipeline(3, 6)


def test_kronecker_pack_rejects_negative_rows():
    import numpy as np

    from rmenum.pipeline import _kronecker_pack

    rows = np.array([[3, 1, 0, 2**40], [2**61, 0, 1, 7]], dtype=np.int64)
    for width in (64, 72, 128):
        want = [sum(int(c) << (width * w) for w, c in enumerate(row)) for row in rows]
        assert _kronecker_pack(rows, width) == want
        for signed in (-rows, rows - 4):
            with pytest.raises(ValueError, match="negative"):
                _kronecker_pack(signed, width)
