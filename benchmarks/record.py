#!/usr/bin/env python3
"""Record one point of the bench trajectory: every workload, untraced and traced.

    python3 benchmarks/record.py --seed 1 --out benchmarks/results/NAME.json

Runs benchmarks/run.py on each workload with --trace 0 and then --trace 1,
for the run_seconds that BENCHMARK.json sets, prints every metric of every
run by name and unit, and writes the runs' full results (machine, versions,
commit, seed, metrics, self times, failures) to one JSON file. Exits 1 if a
run reports a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="trajectory file to write")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", wl, "--seed", str(args.seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            print(done.stdout.rsplit("\n", 2)[0], flush=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            summary = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and summary["correct"]
            path = ROOT / ".bench_out" / f"{wl}-seed{args.seed}-trace{trace}.json"
            runs.setdefault(wl, {})[f"trace{trace}"] = json.loads(path.read_text())
    Path(args.out).write_text(json.dumps({"seed": args.seed, "runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
