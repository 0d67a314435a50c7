"""The benchmark's workloads: fixed task lists built from a seed, with checks.

Each task calls the public rmenum API (or rmenum.cli.main) and has a check
that either raises CheckFailed or returns a fingerprint of the output, so
that passes, traced or not, can be compared for identical results. Every
task looks its rmenum function up at call time, which lets the tracer's
wrappers see the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())["digests"]

# The ROADMAP code ladder, self-classified with the blocks strategy.
LADDER = ((3, 6), (2, 7), (4, 7), (3, 7), (2, 8))
# cosets: random cosets of R(2,5), (e, f) splits at r=1 m=5, brute-force codes.
COSETS_R, COSETS_M, COSETS_N = 2, 5, 48
SPLIT_R, SPLIT_M, SPLIT_PAIRS = 1, 5, 16
BRUTE = ((3, 5), (2, 6))
# files: the CLI route of a long run.
FILES_CODES = ((3, 7), (2, 8))
FILES_JOBS = 2


class CheckFailed(Exception):
    pass


class Task(NamedTuple):
    name: str
    group: str  # the end-to-end metric this task's time adds to
    run: Callable[[], object]
    check: Callable[[object], str]


class Workload(NamedTuple):
    tasks: list
    prepare: Callable[[], None]  # untimed, before each pass


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dist_check(rm, r: int, m: int, dist) -> str:
    """validate_reference plus the digest in reference.json; returns the digest."""
    report = rm.validate_reference(dist, r, m)
    if not report.ok:
        fails = [line for line in report.lines() if line.startswith("FAIL")]
        raise CheckFailed(f"R({r},{m}): " + "; ".join(fails))
    buf = io.StringIO()
    rm.write_distribution(buf, dist)
    got = _digest(buf.getvalue().encode())
    if got != REFERENCE[f"R({r},{m})"]:
        raise CheckFailed(f"R({r},{m}) text digest {got[:16]} differs from the reference")
    return got


def _ladder(rm, seed: int, workdir: Path) -> Workload:
    tasks = []
    for r, m in LADDER:
        tasks.append(
            Task(
                f"R({r},{m})",
                f"r{r}m{m}_s",
                lambda r=r, m=m: rm.run_pipeline(r, m, strategy="blocks", seed=seed),
                lambda dist, r=r, m=m: _dist_check(rm, r, m, dist),
            )
        )
    return Workload(tasks, lambda: None)


def _cosets(rm, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    words = [rng.getrandbits(1 << COSETS_M) for _ in range(COSETS_N)]
    espace = rm.HomogeneousSpace(SPLIT_M, SPLIT_R + 2)
    fspace = rm.HomogeneousSpace(SPLIT_M, SPLIT_R + 1)
    pairs = [
        (espace.anf_of(rng.randrange(espace.size)), fspace.anf_of(rng.randrange(fspace.size)))
        for _ in range(SPLIT_PAIRS)
    ]
    expected = {}

    def check_batch(enums):
        dim = rm.rm_dimension(COSETS_R, COSETS_M)
        if len(enums) != COSETS_N:
            raise CheckFailed(f"{len(enums)} enumerators for {COSETS_N} cosets")
        bad = [k for k, enum in enumerate(enums) if enum.total() != 1 << dim]
        if bad:
            raise CheckFailed(f"cosets {bad[:4]} do not total 2**{dim}")
        return _digest(repr([enum.coeffs for enum in enums]).encode())

    def check_split(enum):
        dim = rm.rm_dimension(SPLIT_R + 1, SPLIT_M + 1)
        if enum.n != 1 << (SPLIT_M + 1) or enum.total() != 1 << dim:
            raise CheckFailed(f"split enumerator has length {enum.n}, total {enum.total()}")
        return _digest(repr(enum.coeffs).encode())

    def check_brute(dist, r, m):
        if (r, m) not in expected:
            expected[(r, m)] = rm.run_pipeline(r, m, seed=seed)
        if dist != expected[(r, m)]:
            raise CheckFailed(f"brute force R({r},{m}) differs from run_pipeline")
        return _dist_check(rm, r, m, dist)

    tasks = [
        Task(
            f"batch {COSETS_N} x R({COSETS_R},{COSETS_M})",
            "coset_batch_s",
            lambda: rm.batch_coset_enumerators(words, COSETS_R, COSETS_M),
            check_batch,
        )
    ]
    for k, (e, f) in enumerate(pairs):
        tasks.append(
            Task(
                f"split {k}",
                "coset_split_s",
                lambda e=e, f=f: rm.coset_enum_split(e, f, SPLIT_R, SPLIT_M),
                check_split,
            )
        )
    for r, m in BRUTE:
        tasks.append(
            Task(
                f"brute R({r},{m})",
                "brute_s",
                lambda r=r, m=m: rm.brute_force_distribution(r, m),
                lambda dist, r=r, m=m: check_brute(dist, r, m),
            )
        )
    return Workload(tasks, lambda: None)


def _cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def _files(rm, seed: int, workdir: Path) -> Workload:
    import rmenum.cli as cli

    def prepare():
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

    def ok(result, what):
        rc, text = result
        if rc != 0:
            raise CheckFailed(f"{what} exited {rc}: " + " | ".join(text.strip().splitlines()[-3:]))

    def check_classify(result, r, m, cls):
        ok(result, "classify")
        rm.ingest_classification(str(cls), expect_d=r, expect_m=m - 1)
        return _digest(cls.read_bytes())

    def check_pipeline(result, r, m, cls, ckpt, out):
        ok(result, "pipeline")
        classes = sum(1 for line in cls.read_text().splitlines() if line.startswith("class "))
        stored = len(list(ckpt.glob("class_*.txt")))
        if stored != classes:
            raise CheckFailed(f"{stored} checkpoints for {classes} classes")
        _dist_check(rm, r, m, rm.read_distribution(str(out)))
        return _digest(out.read_bytes())

    def check_resume(result, r, m, fresh, out):
        ok(result, "resumed pipeline")
        if out.read_bytes() != fresh.read_bytes():
            raise CheckFailed(f"resumed R({r},{m}) output differs from the fresh run")
        return _digest(out.read_bytes())

    def check_verify(result):
        ok(result, "verify")
        fails = [line for line in result[1].splitlines() if line.startswith("FAIL")]
        if fails:
            raise CheckFailed("; ".join(fails))
        return result[1]

    tasks = []
    for r, m in FILES_CODES:
        tag = f"r{r}m{m}"
        cls, ckpt = workdir / f"{tag}.classes", workdir / f"{tag}.ckpt"
        fresh, resumed = workdir / f"{tag}.dist", workdir / f"{tag}.resumed.dist"
        common = ["--r", r, "--m", m, "--classes", cls, "--checkpoint", ckpt, "--jobs", FILES_JOBS]
        common += ["--seed", seed, "--out"]
        tasks += [
            Task(
                f"classify {tag}",
                "classify_cmd_s",
                lambda r=r, m=m, cls=cls: _cli(
                    cli, ["classify", "--d", r, "--m", m - 1, "--seed", seed, "--out", cls]
                ),
                lambda res, r=r, m=m, cls=cls: check_classify(res, r, m, cls),
            ),
            Task(
                f"pipeline {tag}",
                "pipeline_cmd_s",
                lambda c=common, out=fresh: _cli(cli, ["pipeline", *c, out]),
                lambda res, r=r, m=m, a=(cls, ckpt, fresh): check_pipeline(res, r, m, *a),
            ),
            Task(
                f"resume {tag}",
                "resume_cmd_s",
                lambda c=common, out=resumed: _cli(cli, ["pipeline", *c, out]),
                lambda res, r=r, m=m, a=(fresh, resumed): check_resume(res, r, m, *a),
            ),
            Task(
                f"verify {tag}",
                "verify_cmd_s",
                lambda r=r, m=m, out=fresh: _cli(
                    cli, ["verify", "--dist", out, "--r", r, "--m", m]
                ),
                check_verify,
            ),
        ]
    return Workload(tasks, prepare)


BUILDERS = {"ladder": _ladder, "cosets": _cosets, "files": _files}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Import the program and make the workload's inputs: the set-up step."""
    import rmenum

    return BUILDERS[name](rmenum, seed, workdir)
