#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oneshot-ba --seed 1 --seconds 30 --trace 0

The benchmark is the Go module in perfbench/, which uses the repository's
packages through a replace directive. This script builds it into
.bench_build/ (the Go build cache lives there too, so nothing is written
outside the checkout), then runs it. The binary's last line of standard
output is the result: one JSON object with the keys correct, attempted,
failed and metrics. Workloads: oneshot-ba, session-churn, chaos-sharded.
"""

import argparse
import os
import subprocess
import sys

# Upper bound on one benchmark run; a run that exceeds it is killed and fails.
RUN_TIMEOUT_S = 170


def source_commit(root):
    """The checkout's commit when it is a git work tree, else "unknown"."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOPATH=os.path.join(out, "gopath"),
               XDG_CONFIG_HOME=os.path.join(out, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               GOFLAGS="-buildvcs=false")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", source_commit(root)]
    if args.trace:
        cmd += ["-spans", os.path.join(out, "spans", f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
