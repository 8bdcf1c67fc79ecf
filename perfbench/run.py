#!/usr/bin/env python3
"""Builds the linvar benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <paths|chains|irdrop|serve> \
        --seed <n> --seconds <s> --trace <0|1>

The Rust package beside this script is compiled with cargo into
$CARGO_TARGET_DIR (default: .bench_build in the current directory) and
run as its own process, so every workload's peak memory is its own.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A build failure or a run
that fails its correctness gate exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paths", "chains", "irdrop", "serve"]
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--bless", action="store_true",
                    help="rewrite the stored default-seed result rows")
    args = ap.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [os.path.join(target, "release", "linvar-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected", args.workload + ".txt")]
    if args.bless:
        cmd.append("--bless")
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
