#!/usr/bin/env python3
"""Build and run the ReliableSketch benchmark.

    python3 perfbench/run.py --workload ingest-shared|read-mix|embedded \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `rsk-serve` and the benchmark in
release mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs
one measurement. The last line of standard output is the JSON result.
Build output goes to standard error. Exits non-zero, without a result,
if anything fails to build or run.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# Sources whose content defines what is measured.
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "src/**/*", "crates/**/*", "vendor/**/*",
                "perfbench/Cargo.toml", "perfbench/Cargo.lock", "perfbench/src/**/*"]
# A run may take this long after its build; the benchmark's own limit.
RUN_TIMEOUT_S = 170


def source_digest():
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g)
                    if p.is_file() and "target" not in p.parts})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cargo(*args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml"), *args]
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cargo("-p", "rsk-serve", "--bin", "rsk-serve", env=env)
    cargo("-p", "rsk-perfbench", env=env)

    cmd = [str(target / "release" / "rsk-perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--server-bin", str(target / "release" / "rsk-serve"),
           "--out", str(ROOT / ".bench_out"),
           "--commit", commit(), "--source", source_digest()]
    # Its own process group, so a hung run is stopped with the server
    # it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
