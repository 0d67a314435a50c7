#!/usr/bin/env python3
"""rmenum benchmark: closed-loop passes over a workload's task list, checked.

    python3 benchmarks/run.py --workload {ladder,cosets,files} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. Each workload is a fixed task list made
from the seed (see workloads.py); passes run back to back until S seconds
have gone, at least MIN_PASSES of them, and every task's output is checked
after its pass, outside the timed region.

--trace 0 reports the end-to-end metrics: pass_norm, the median pass time
in units of a calibration loop timed beside the tasks (see Calibration);
setup_s, the median set-up time of SETUP_PROBES fresh processes that import
the program and make the inputs; and peak_rss_mb. It also reports raw
seconds per pass and per task group, which drift with the host's load.
--trace 1 runs untraced passes for half the time and traced passes for the
other half, and reports per-layer metrics from spans recorded around the
calls into each module (see tracer.py), with the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; its metric names and units are those of BENCHMARK.json.
Everything else, including every metric not listed there, is printed above
it and written to .bench_out/<workload>-seed<N>-trace<T>.json; traced runs
also write their spans to .bench_out/spans-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
MIN_PASSES = 3
TRACED_MIN_PASSES = 2
CAL_LOOPS, CAL_REPEATS, CAL_EVERY_S = 15_000, 3, 0.5

# Per-layer metric -> (kind, source). kind "total" and "self" are span
# seconds, "calls" counts spans, "count" reads a tracer counter, and "rate"
# divides a counter by a span total.
LAYER_METRICS = {
    "classify.compute_s": ("total", "classify.compute"),
    "classify.compute_calls": ("calls", "classify.compute"),
    "classify.transversal_s": ("total", "classify.transversal"),
    "classify.transversal_calls": ("calls", "classify.transversal"),
    "classify.orbit_partition_s": ("total", "classify.orbit_partition"),
    "classify.merge_s": ("total", "classify.merge"),
    "classify.raw_blocks": ("count", "classify.raw_blocks"),
    "classify.merged_blocks": ("count", "classify.merged_blocks"),
    "classify.classes": ("count", "classify.classes"),
    "classify.write_s": ("total", "classify.write"),
    "classify.ingest_s": ("total", "classify.ingest"),
    "gf2.matmul_calls": ("count", "gf2.matmul_calls"),
    "gf2.stabilizer_check_calls": ("calls", "gf2.stabilizer_check"),
    "gf2.stabilizer_check_s": ("total", "gf2.stabilizer_check"),
    "cosetenum.sweep_s": ("total", "cosetenum.sweep"),
    "cosetenum.sweep_calls": ("calls", "cosetenum.sweep"),
    "cosetenum.sweep_words": ("count", "cosetenum.sweep_words"),
    "cosetenum.words_per_s": ("rate", ("cosetenum.sweep_words", "cosetenum.sweep")),
    "oracle.brute_s": ("total", "oracle.brute"),
    "oracle.brute_words": ("count", "oracle.brute_words"),
    "oracle.words_per_s": ("rate", ("oracle.brute_words", "oracle.brute")),
    "pipeline.rebase_s": ("total", "pipeline.rebase"),
    "pipeline.block_products_s": ("total", "pipeline.block_products"),
    "pipeline.block_mults": ("count", "pipeline.block_mults"),
    "pipeline.split_s": ("total", "pipeline.split"),
    "pipeline.split_mults": ("count", "pipeline.split_mults"),
    "pipeline.classes_sum_s": ("self", "pipeline.classes_sum"),
    "pipeline.checkpoint_write_s": ("total", "pipeline.checkpoint_write"),
    "pipeline.checkpoint_read_s": ("total", "pipeline.checkpoint_read"),
    "pipeline.checkpoint_bytes": ("count", "pipeline.checkpoint_bytes"),
    "wenum.mul_calls": ("calls", "wenum.mul"),
    "wenum.mul_s": ("total", "wenum.mul"),
    "wenum.square_scale_s": ("total", "wenum.square_scale"),
}
# Machine-independent: must repeat exactly between traced passes of one seed.
COUNT_METRICS = [
    name for name, (kind, _) in LAYER_METRICS.items() if kind in ("calls", "count")
]


def layer_unit(name: str) -> str:
    kind = LAYER_METRICS[name][0]
    if kind == "count":
        return "bytes" if name.endswith("_bytes") else "count"
    return {"total": "s", "self": "s", "calls": "count", "rate": "words/s"}[kind]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass(frozen=True)
class _Rows:
    """A small validated record, built and thrown away as GF(2) matrices are."""

    m: int
    rows: tuple

    def __post_init__(self):
        if any(not 0 <= row < 1 << self.m for row in self.rows):
            raise ValueError("row wider than m bits")


class Calibration:
    """Times fixed work of the benchmark's own: the machine's speed right now.

    The work has the three shapes the program's time goes to: an integer and
    dict loop, products of small validated row records, and a numpy gather
    and popcount over a 4 MB table. No change to the program moves it, so
    dividing a task's time by it cancels most of the drift in speed that a
    shared host shows over minutes. A call returns the sum of the three
    parts' medians over CAL_REPEATS timings each.
    """

    def __init__(self):
        import numpy as np  # not at the top: set-up probes time numpy's import

        self._np = np
        self._table = np.arange(1 << 20, dtype=np.uint32)
        self._perm = np.random.default_rng(0).permutation(1 << 20).astype(np.uint32)

    @staticmethod
    def _ints() -> float:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(CAL_LOOPS):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = (i, acc.bit_count())
        return time.perf_counter() - t0

    @staticmethod
    def _objects() -> float:
        t0 = time.perf_counter()
        mat = _Rows(6, (1, 2, 4, 8, 16, 32))
        for i in range(CAL_LOOPS // 10):
            rows = []
            for row in mat.rows:
                acc, bits = 0, row ^ (i & 63) or 1
                while bits:
                    low = bits & -bits
                    acc ^= mat.rows[low.bit_length() - 1]
                    bits ^= low
                rows.append(acc & 63)
            mat = _Rows(6, tuple(rows))
        return time.perf_counter() - t0

    def _numpy(self) -> float:
        t0 = time.perf_counter()
        gathered = self._table[self._perm] ^ self._np.uint32(0x5555)
        self._np.bitwise_count(gathered).sum()
        return time.perf_counter() - t0

    def __call__(self) -> float:
        parts = (self._ints, self._objects, self._numpy)
        return sum(statistics.median(part() for _ in range(CAL_REPEATS)) for part in parts)


def run_passes(wl, seconds, min_passes, tracer=None):
    """Back-to-back passes, each timed as a whole and per task.

    A calibration runs before the first task and again after any task that
    ends CAL_EVERY_S or more after the last one, outside the task timings.
    Each task's time is divided by the mean of the calibrations on either
    side of it, which gives its time in "cal" units.
    """
    passes, walls = [], []
    calibration = Calibration()
    cal_prev = calibration()
    deadline = time.perf_counter() + seconds
    # Start another pass only if a typical one still ends before the deadline.
    while len(passes) < min_passes or time.perf_counter() + statistics.median(walls) <= deadline:
        t_wall = time.perf_counter()
        wl.prepare()
        if tracer is not None:
            span_lo = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
        outcomes, segment, cals = [], [], []
        since_cal = 0.0
        for k, task in enumerate(wl.tasks):
            t0 = time.perf_counter()
            try:
                out, err = task.run(), None
            except Exception:
                out, err = None, traceback.format_exc()
            secs = time.perf_counter() - t0
            segment.append([task, secs, out, err, None])
            since_cal += secs
            if since_cal >= CAL_EVERY_S or k == len(wl.tasks) - 1:
                cal_now = calibration()
                for item in segment:
                    item[4] = (cal_prev + cal_now) / 2
                cals.append(cal_now)
                outcomes += segment
                segment, since_cal, cal_prev = [], 0.0, cal_now
        record = {
            "pass_s": sum(item[1] for item in outcomes),
            "pass_norm": sum(item[1] / item[4] for item in outcomes),
            "cal_s": statistics.mean(cals),
            "groups": {},
            "groups_norm": {},
            "failures": [],
            "fingerprints": [],
        }
        if tracer is not None:
            left = tracer.remove()
            record["span_range"] = (span_lo, len(tracer.spans))
            record["counts"] = dict(tracer.counts)
            if left:
                record["failures"].append(f"wrappers left installed: {left}")
        for task, secs, out, err, cal in outcomes:
            groups, norms = record["groups"], record["groups_norm"]
            groups[task.group] = groups.get(task.group, 0.0) + secs
            norms[task.group] = norms.get(task.group, 0.0) + secs / cal
            if err is None:
                try:
                    record["fingerprints"].append(task.check(out))
                    continue
                except Exception:
                    err = traceback.format_exc()
            record["failures"].append(f"{task.name}: {err.strip().splitlines()[-1]}")
            record["fingerprints"].append(None)
            print(f"FAILED {task.name}\n{err}", file=sys.stderr)
        passes.append(record)
        walls.append(time.perf_counter() - t_wall)
    return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def well_sampled_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, each importing the program."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def machine_record(seed: int) -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rmenum").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def layer_values(tracer, record):
    """Per-layer metric values of one traced pass, and its span summary."""
    agg = summarize(tracer.spans, *record["span_range"])
    counts = record["counts"]
    out = {}
    for name, (kind, src) in LAYER_METRICS.items():
        if kind == "count":
            out[name] = counts.get(src, 0)
        elif kind == "rate":
            secs = agg.get(src[1], [0, 0.0, 0.0])[1]
            out[name] = counts.get(src[0], 0) / secs if secs else 0.0
        else:
            out[name] = agg.get(src, [0, 0.0, 0.0])[{"calls": 0, "total": 1, "self": 2}[kind]]
    return out, agg


def write_spans(tracer, passes, path: Path):
    with open(path, "w") as fh:
        for k, record in enumerate(passes):
            lo, hi = record["span_range"]
            for idx in range(lo, hi):
                name, start, end, parent = tracer.spans[idx]
                fh.write(json.dumps([idx, parent, name, start, end, k]) + "\n")


def global_failures(passes) -> list[str]:
    """Outputs must repeat exactly across passes, traced or not."""
    first = passes[0]["fingerprints"]
    return [
        f"pass {k} outputs differ from pass 0"
        for k, p in enumerate(passes[1:], 1)
        if p["fingerprints"] != first
    ]


def measure_untraced(wl, args):
    """End-to-end metrics: closed-loop passes, then the set-up probes."""
    passes = run_passes(wl, args.seconds, MIN_PASSES)
    setups = setup_seconds(args.workload, args.seed)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_norm": (median_of(passes, "pass_norm"), "cal"),
        "pass_s": (median_of(passes, "pass_s"), "s"),
        "cal_s": (median_of(passes, "cal_s"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    for group in passes[0]["groups"]:
        metrics[group] = (statistics.median(p["groups"][group] for p in passes), "s")
        norm = statistics.median(p["groups_norm"][group] for p in passes)
        metrics[group.removesuffix("_s") + "_norm"] = (norm, "cal")
    samples = [p["pass_s"] for p in passes]
    pctl = well_sampled_percentile(samples)
    extra = {
        "setup_samples_s": setups,
        "pass_samples_s": samples,
        "pass_samples_norm": [p["pass_norm"] for p in passes],
        "cal_samples_s": [p["cal_s"] for p in passes],
        "pass_s_percentile": {"percentile": pctl[0], "value_s": pctl[1]} if pctl else None,
        "notes": [
            f"pass_s and task groups are medians over {len(passes)} passes; "
            + (f"p{pctl[0]} of pass_s = {pctl[1]:.6g} s" if pctl
               else "no percentile of pass_s is well sampled (20 passes needed)"),
            f"setup_s is the median of {len(setups)} fresh processes",
        ],
    }
    return passes, metrics, extra


def measure_traced(wl, args):
    """Per-layer metrics: untraced passes, then traced passes of the same inputs."""
    plain = run_passes(wl, args.seconds / 2, TRACED_MIN_PASSES)
    tracer = Tracer()
    traced = run_passes(wl, args.seconds / 2, TRACED_MIN_PASSES, tracer)
    per_pass = [layer_values(tracer, p) for p in traced]
    metrics = {}
    for name in LAYER_METRICS:
        vals = [vals[name] for vals, _ in per_pass]
        value = vals[0] if name in COUNT_METRICS else statistics.median(vals)
        metrics[name] = (value, layer_unit(name))
    overhead = median_of(traced, "pass_s") - median_of(plain, "pass_s")
    metrics["trace.overhead_s"] = (overhead, "s")
    overhead_norm = median_of(traced, "pass_norm") / median_of(plain, "pass_norm") - 1
    for name in COUNT_METRICS:
        if len({vals[name] for vals, _ in per_pass}) != 1:
            traced[-1]["failures"].append(f"count {name} differs between traced passes")
    if tracer.errors or tracer.missing:
        traced[-1]["failures"].append(f"tracer: {tracer.errors[:3]} missing {tracer.missing}")
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    write_spans(tracer, traced, spans_path)
    extra = {
        "self_times": {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(per_pass[0][1].items())
        },
        "untraced_pass_s": [p["pass_s"] for p in plain],
        "traced_pass_s": [p["pass_s"] for p in traced],
        "spans_per_pass": [p["span_range"][1] - p["span_range"][0] for p in traced],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "notes": [
            f"{len(plain)} untraced and {len(traced)} traced passes; times are medians over"
            " the traced passes and trace.overhead_s is traced minus untraced median pass_s",
            f"tracing overhead from pass_norm, which discounts host drift: {overhead_norm:+.1%}",
            "*_s metrics are inclusive span time, except pipeline.classes_sum_s (self time)",
            "spans inside --jobs worker processes are out of reach and not recorded",
        ],
    }
    return plain + traced, metrics, extra


def print_report(result, metrics, path):
    m = result["machine"]
    print(f"rmenum benchmark: workload {result['workload']}, seed {m['seed']}, "
          f"trace {result['trace']}")
    print(f"machine: {m['cpu_model']}, nproc {m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, commit {m['git_commit']}")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:30s} {shown} {unit}")
    for name, row in result.get("self_times", {}).items():
        print(f"  span {name:25s} calls {row['calls']:7d}  total {row['total_s']:.4f} s"
              f"  self {row['self_s']:.4f} s")
    for line in result["notes"]:
        print(f"note: {line}")
    for line in result["failures"]:
        print(f"FAILURE: {line}")
    print(f"results: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmenum" / "__init__.py").is_file():
        print(f"error: no rmenum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_probe:
        t0 = time.perf_counter()
        workloads.build(args.workload, args.seed, workdir)
        print(time.perf_counter() - t0)
        return 0

    import rmenum

    if not Path(rmenum.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported rmenum from {rmenum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, workdir)
    result = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    result["machine"] = machine_record(args.seed)
    try:
        measure = measure_traced if args.trace else measure_untraced
        passes, metrics, extra = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]] + global_failures(passes)
    attempted = len(passes) * len(wl.tasks)
    failed = sum(fp is None for p in passes for fp in p["fingerprints"])
    metrics["failed_frac"] = (failed / attempted, "fraction")
    result.update(extra)
    result.update(
        passes=len(passes),
        tasks_per_pass=len(wl.tasks),
        attempted=attempted,
        failed=failed,
        failures=failures,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_report(result, metrics, path)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    final = {e["name"]: {"value": metrics[e["name"]][0], "unit": e["unit"]} for e in wanted}
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
