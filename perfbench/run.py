#!/usr/bin/env python3
"""End-to-end `comsig serve` benchmark: build, then run.

One run (the result object is the last stdout line):

    python3 perfbench/run.py --workload persist-tt --seed 1 --seconds 15 --trace 0

Every workload, end-to-end and traced, with a metric table:

    python3 perfbench/run.py --all [--seed 1] [--seconds 15]

Builds the `comsig` binary and the benchmark from source first, into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root).
Exits non-zero, without a result, when a build or a correctness check
fails, or when the repository sources are missing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["persist-tt", "hub-rwr", "sketch-query"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds both binaries; returns (comsig, perfbench) paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        fail(f"no repository sources at {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["-p", "comsig-cli", "--bin", "comsig"],
        ["--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return target / "release" / "comsig", target / "release" / "perfbench"


def bench_cmd(binary, comsig, workload, seed, seconds, trace):
    return [
        str(binary),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--comsig", str(comsig),
        "--root", str(ROOT),
    ]


def run_all(binary, comsig, seed, seconds):
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                bench_cmd(binary, comsig, workload, seed, seconds, trace),
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {kind}")
            if proc.returncode != 0 or not lines:
                print(f"   FAILED (exit {proc.returncode})")
                failed = True
                continue
            for line in lines[:-1]:
                print(f"   {line}")
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                print(f"   {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    return 1 if failed else 0


def main(argv):
    run_every = "--all" in argv
    argv = [a for a in argv if a != "--all"]
    args = dict(zip(argv[0::2], argv[1::2]))
    if run_every:
        comsig, binary = build()
        seed = int(args.get("--seed", 1))
        seconds = args.get("--seconds", 15)
        sys.exit(run_all(binary, comsig, seed, seconds))
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in args:
            fail(f"missing {flag}; usage: run.py --workload W --seed N --seconds S --trace 0|1")
    comsig, binary = build()
    cmd = bench_cmd(binary, comsig, args["--workload"], args["--seed"], args["--seconds"], args["--trace"])
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
