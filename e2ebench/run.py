#!/usr/bin/env python3
"""End-to-end polarizability benchmark.

Builds the AEQP library and the benchmark driver from this checkout, runs
one workload (or all three) and relays the driver's output; the last stdout
line is the JSON result.

    python3 e2ebench/run.py --workload raman_h2o --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 0 --trace 0

--trace 0 is the timed run (end-to-end metrics), --trace 1 the traced run
(per-layer metrics, with AEQP_TRACE=summary and AEQP_MEMAUDIT=on),
--seconds 0 the untimed correctness pass. See e2ebench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
EXE = BUILD / "aeqp_e2ebench"
WORKLOADS = ("raman_h2o", "chain_alpha", "chain_ranks4")

# Variables that change what the library computes or how it schedules
# work. A run with any of them set would not measure the library defaults.
BEHAVIOUR_VARS = (
    "AEQP_TUNE_FILE",
    "AEQP_TRACE",
    "AEQP_MEMAUDIT",
    "AEQP_MEM_BUDGET",
    "AEQP_ADAPTIVE_TIMEOUT",
    "AEQP_GUARDS",
    "AEQP_FLIGHT",
    "AEQP_NUM_THREADS",
)
TRACED_ENV = {"AEQP_TRACE": "summary", "AEQP_MEMAUDIT": "on"}
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "aeqp.hpp").is_file():
        fail(f"{ROOT} is not an AEQP checkout (no CMakeLists.txt or src/)")
    # Build chatter goes to stderr: stdout is reserved for the result.
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "aeqp_e2ebench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(workload, args, sha):
    env = dict(os.environ)
    if args.trace == 1:
        env.update(TRACED_ENV)
    cmd = [str(EXE), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--commit", sha]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 0:
        fail("--seconds must be >= 0")

    set_vars = [v for v in BEHAVIOUR_VARS if v in os.environ]
    if set_vars:
        fail("refusing to run with behaviour-changing variables set: " + ", ".join(set_vars), 3)

    build()
    sha = commit()
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        code = run(workload, args, sha)
        if code != 0:
            fail(f"{workload} exited with code {code}", code)


if __name__ == "__main__":
    main()
