"""Command-line surface: `rmenum` (also available as `python -m rmenum`).

Subcommands cover the whole workflow: brute-force distributions, single
coset enumerators, quotient classification, the doubling pipeline, file
verification, exact form equivalence, and the shipped dual-transition
check. Output files are bit-identical across reruns and across pipeline
--jobs values; brute sweeps in one process and takes no --jobs. classify
--seed picks the stabilizer generators it writes; pipeline --seed only
picks which Schreier generators are drawn, and no output depends on it,
but the "# seed" header line records it. equiv draws nothing and takes no
--seed.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import __version__
from .boolfn import format_anf, parse_anf
from .classify import classify_quotient, equivalence, write_classification
from .cosetenum import coset_enumerator, rm_dimension
from .fixtures import (
    check_dual_transitions,
    load_dual_transitions,
    parse_dual_transitions,
)
from .oracle import brute_force_distribution, validate_reference
from .pipeline import MulCounter, run_pipeline
from .wenum import polynomial_text, write_distribution


def _emit_distribution(dist, out, comments):
    if out:
        write_distribution(out, dist, comments=comments)
        print(f"wrote {out}")
    else:
        write_distribution(sys.stdout, dist, comments=comments)


def _cmd_brute(args) -> int:
    # brute_force_distribution raises unless the total is 2**dim
    dist = brute_force_distribution(args.r, args.m)
    _emit_distribution(dist, args.out, [f"R({args.r},{args.m})"])
    print(f"total {dist.total()} = 2^{rm_dimension(args.r, args.m)} ok")
    return 0


def _cmd_coset(args) -> int:
    rep = parse_anf(args.anf, args.m)
    dist = coset_enumerator(rep, args.r, args.m)
    print(polynomial_text(dist))
    if args.out:
        comments = [f"{format_anf(rep)} + R({args.r},{args.m})"]
        write_distribution(args.out, dist, comments=comments)
        print(f"wrote {args.out}")
    return 0


def _cmd_classify(args) -> int:
    if args.d < 1:
        # degree-0 forms are constants, which a classification file cannot name
        raise ValueError(f"--d must be at least 1, got {args.d}")
    records = classify_quotient(args.d, args.m, random.Random(args.seed))
    write_classification(args.out, records, args.d, args.m, seed=args.seed)
    sizes = sorted(rec.size for rec in records)
    print(f"wrote {args.out}")
    print(f"{len(records)} classes, sizes sum to {sum(sizes)}, largest {sizes[-1]}")
    return 0


def _cmd_pipeline(args) -> int:
    counter = MulCounter()
    dist = run_pipeline(
        args.r,
        args.m,
        classes=args.classes,
        strategy=args.strategy,
        seed=args.seed,
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        counter=counter,
    )
    comments = [f"R({args.r},{args.m})", f"seed {args.seed}"]
    _emit_distribution(dist, args.out, comments)
    print(f"{counter.count} {counter.label}")
    return 0


def _cmd_verify(args) -> int:
    report = validate_reference(args.dist, args.r, args.m)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_equiv(args) -> int:
    e1 = parse_anf(args.e1, args.m)
    e2 = parse_anf(args.e2, args.m)
    d = max(e1.degree(), e2.degree())
    mat = equivalence(e1, e2)
    if mat is None:
        print(f"not equivalent: the degree-{d} parts lie in different GL({args.m},2) classes")
        return 1
    for row in mat.to_text().split():
        print(row)
    print("PASS (e1 o A) + e2 " + (f"has degree below {d}" if d else "is zero"))
    return 0


def _cmd_dualcheck(args) -> int:
    if args.table is None:
        rows = load_dual_transitions()
    else:
        with open(args.table) as fh:
            rows = parse_dual_transitions(fh.read())
    lines = check_dual_transitions(rows)
    for line in lines:
        print(line)
    return 0 if all(line.startswith("PASS") for line in lines) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmenum",
        description="Exact weight distributions of Reed-Muller codes and their cosets.",
        epilog="Installed as `rmenum`; `python -m rmenum` works as well.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "brute", help="enumerate every codeword of R(r,m) in one serial sweep (dim <= 28, m <= 16)"
    )
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="distribution file (default: stdout)")
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("coset", help="weight enumerator of anf + R(r,m)")
    p.add_argument("--anf", required=True, help='monomial string, e.g. "12+34", "0" for zero')
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", help="optional distribution file")
    p.set_defaults(func=_cmd_coset)

    p = sub.add_parser("classify", help="classes of H^(d)(m) under invertible substitution")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pipeline", help="full R(r,m) distribution via the doubling recursion")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--classes",
        help=(
            "classification file for H^(r)(m-1), summed class by class; omit it to "
            "self-classify (with the blocks strategy only H^(r)(m-2) is classified "
            "and the Fourier route sums its classes)"
        ),
    )
    p.add_argument("--strategy", choices=("direct", "blocks"), default="blocks")
    p.add_argument("--jobs", type=int, default=1, help="worker processes; each takes whole classes")
    p.add_argument("--checkpoint", help="per-class resume directory; another route's is refused")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="distribution file (default: stdout)")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="check a distribution file against R(r,m) identities")
    p.add_argument("--dist", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "equiv", help="decide whether a substitution carries e1 onto e2, and print one"
    )
    p.add_argument("--e1", required=True)
    p.add_argument("--e2", required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("dualcheck", help="verify the shipped class-transition table")
    p.add_argument("--table", help="alternate table file (default: shipped data)")
    p.set_defaults(func=_cmd_dualcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
