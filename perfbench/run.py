#!/usr/bin/env python3
"""Build and run the real-domain allocator benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/main.exe with dune,
runs it on the workload (threadtest, larson or remote-free) and passes
its output through. Every line is "name value unit" or a provenance,
segment, unscaled or explain line; the last line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

The end-to-end ops/s are medians over short segments, each scaled by
how fast a fixed sort ran on the same domains right after it (see
main.ml), leaving out segments in which a domain lost its CPU; set-up
times are scaled the same way. On a shared host this takes out most of
the drift in the host's own speed.

It runs main.exe with a 4 Mi-word (32 MiB) minor heap per domain
(OCAMLRUNPARAM=s=4M). Every minor collection stops both worker domains
until the slower one reaches it, so with the default 256 Ki words a
domain that loses its CPU for a moment stalls its peer dozens of times
a second; the larger heap makes those stalls 16 times rarer.

If the build or the run fails, it exits with a non-zero code and prints
no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("threadtest", "larson", "remote-free")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MINOR_HEAP = "s=4M"


def commit():
    """The checked-out commit, read from .git; "unknown" elsewhere."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def is_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return isinstance(r, dict) and set(r) == {
        "correct", "attempted", "failed", "metrics"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    env = dict(os.environ, OCAMLRUNPARAM=MINOR_HEAP)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("error: benchmark run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not is_result(lines[-1]):
        sys.stderr.write(done.stdout)
        print(f"error: benchmark run failed (exit {done.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
