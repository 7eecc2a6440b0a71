#!/bin/sh
# A/B comparison of two checkouts on the real-domain benchmark
# (perfbench/, declared in BENCHMARK.json).
#
#   scripts/ab_bench.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS
#
# Runs PAIRS pairs of `python3 perfbench/run.py --trace 0`, one run in
# each checkout per pair, for SECONDS seconds each. Pair i uses seed i;
# odd pairs run the parent first, even pairs the change first, so drift
# in the host's speed hits both sides alike. Then prints, per metric,
# each side's median and quartiles, how many pairs the change won (ties
# count for neither side) and whether the pairs support a claimed gain:
# the change wins at least nine tenths of the pairs and the medians
# differ, in the better direction, by more than the parent's
# interquartile range. The direction of each metric comes from
# CHANGE_DIR/BENCHMARK.json.
#
# Each run's output is kept in $AB_OUT (default: a fresh temporary
# directory), one file per side and pair. The two worker domains need
# both CPUs of a 2-CPU host: run nothing else meanwhile.
set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SECONDS" >&2
  exit 1
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seconds=$5
out=${AB_OUT:-$(mktemp -d)}
mkdir -p "$out"

run() { # side dir seed
  if ! (cd "$2" && python3 perfbench/run.py --workload "$workload" \
      --seed "$3" --seconds "$seconds" --trace 0) \
      > "$out/$1.$3.txt" 2> "$out/$1.$3.err"; then
    echo "run failed: $1 seed $3 (see $out/$1.$3.err)" >&2
    exit 1
  fi
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
  echo "pair $i/$pairs done" >&2
  i=$((i + 1))
done

python3 - "$out" "$pairs" "$change/BENCHMARK.json" "$workload" <<'EOF'
import json, sys

out, pairs, bench, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
with open(bench) as f:
    spec = json.load(f)
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def metrics(side, seed):
    with open(f"{out}/{side}.{seed}.txt") as f:
        last = f.read().splitlines()[-1]
    return {k: v["value"] for k, v in json.loads(last)["metrics"].items()}


def quartiles(xs):
    xs = sorted(xs)

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


runs = {s: [metrics(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}
names = [n for n in runs["parent"][0] if n in runs["change"][0]]
print(f"workload {workload}: {pairs} pairs, results in {out}")
print(f"{'metric':<32} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'wins':>6}  gain")
for n in names:
    p = [r[n] for r in runs["parent"]]
    c = [r[n] for r in runs["change"]]
    sign = 1 if better.get(n, "higher") == "higher" else -1
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    pq, cq = quartiles(p), quartiles(c)
    claim = wins * 10 >= 9 * pairs and sign * (cq[1] - pq[1]) > pq[2] - pq[0]
    rel = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{n:<32} {fmt(pq):>34} {fmt(cq):>34} {wins:>3}/{pairs:<2}  "
          f"{rel:+.1f}% {'claim' if claim else '-'}")
EOF
