#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and prints, per
metric, the median, the quartiles and the spread (Q3 - Q1) / median.

    python3 stackbench/steady.py --workload oltp --seeds 1-10 [--seconds 20] [--trace 0]

Run it from the repository root. The benchmark binary is built once with
cargo (CARGO_TARGET_DIR is honoured); every run's JSON line is appended to
.bench_out/steady-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()

    cmd = ["cargo", "run", "--release", "--quiet", "--manifest-path", "stackbench/Cargo.toml", "--"]
    os.makedirs(".bench_out", exist_ok=True)
    log = open(f".bench_out/steady-{a.workload}.jsonl", "a")
    runs = []
    for s in seeds(a.seeds):
        p = subprocess.run(
            cmd + ["--workload", a.workload, "--seed", str(s), "--seconds", str(a.seconds), "--trace", a.trace],
            capture_output=True,
            text=True,
        )
        if p.returncode != 0:
            sys.exit(f"seed {s}: exit {p.returncode}\n{p.stderr}")
        line = p.stdout.strip().splitlines()[-1]
        log.write(line + "\n")
        r = json.loads(line)
        runs.append(r)
        print(f"seed {s}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
