#!/bin/sh
# Tier-1 gate: full build, static analysis (mm-lint and the
# flow-sensitive mm-sa), then the whole test tree — the alcotest
# suites plus the check-quick schedule-exploration gate and the
# @lint / @sa aliases wired into `dune runtest` (see bin/dune and the
# root dune file).
set -eu
cd "$(dirname "$0")/.."
dune build
# Machine-readable lint report, kept as a CI artifact even when the
# enforcement gates below fail.
mkdir -p _build/ci
dune exec bin/lint.exe -- --root . --format json lib bin \
  > _build/ci/lint-report.json || true
# Machine-readable mm-sa report (DESIGN.md §16) over the typed ASTs;
# @check guarantees the .cmt files exist.
dune build @check
dune exec bin/sa.exe -- --root . --format json \
  > _build/ci/sa-report.json || true
# Machine-readable contention census (DESIGN.md §12): the threadtest
# failed-CAS report on the seeded simulator, archived so per-site retry
# rates are diffable across commits.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --format json > _build/ci/trace-report.json || true
# The same census for the block cache and the owner-biased lists, whose
# simulated schedules are pinned only by test_specialization.ml.
for allocator in new-cached new-ob; do
  dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
    --allocator "$allocator" --format json \
    > "_build/ci/trace-report-$allocator.json" || true
done
# Machine-readable benchmark results (quick mode): bechamel estimates
# plus every experiment table, archived so the bench trajectory is
# diffable across commits (BENCH_0.json in the repo root is the seed).
MM_BENCH_JSON=_build/ci/bench-report.json dune exec bench/main.exe || true
# Real-runtime latency gate (DESIGN.md §18): contention-free
# malloc+free on the specialized real stack must stay under the bounds
# below. They were set from ~203 ns ("new") and ~80 ns ("new-cached")
# at the commit that functorized the stack, vs 268.8 / 120.7 ns on the
# value-dispatched runtime it replaced (BENCH_3.json vs BENCH_4.json).
# On a shared 2-CPU host (OCaml 5.1.1, no flambda) the same rows read
# 305-407 ns and 108-162 ns with the allocation-free hot path, and
# 318-423 ns and 118-128 ns just before it, over 8-9 runs each: both
# gates fail on that host. A single-thread pair never paid for the minor collections
# and shared cache lines that hot path removed. A breach means
# per-operation dispatch overhead crept back into the hot path. Exit
# code 2 fails the gate.
dune exec bench/main.exe -- --gate-only \
  --max-ns-per-op malloc+free/new:240 \
  --max-ns-per-op malloc+free/new-cached:105 > /dev/null
# OS-traffic regression gate: the 16-thread threadtest churn on the
# paper allocator must keep simulated mmap syscalls under 2 per 1k
# allocator ops (measured 0.27/1k). The store's superblock pool
# recycles every EMPTY superblock without a syscall, so a rate above 2
# means that recycling path regressed. Exit code 2 fails the gate.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --max-mmap-per-1k 2.0 > /dev/null
# Large-path OS-traffic gate (DESIGN.md §15): the 8-thread large-alloc
# churn with the page manager on must keep large-path mmap calls (site
# store.mmap.large) under 5 per 1k allocator ops (measured 0.00/1k at
# the commit that introduced the page manager vs 250.75/1k without it,
# so any rate above 5 means large blocks stopped routing through the
# span reservoir). Exit code 2 fails the gate.
dune exec bin/trace.exe -- report large-alloc --threads 8 \
  --page-manager --max-large-mmap-per-1k 5.0 > /dev/null
# Reclamation gate (DESIGN.md §17): the reuse-in-place descriptor pool
# must record ZERO hazard-pointer scans on the 16-thread threadtest —
# it never retires, so a single hp.scan event means a hazard-protected
# path leaked back into the Reuse variant. Exit code 2 fails the gate.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --allocator new-reuse --max-hp-scan 0 > /dev/null
# Anchor-contention gate (DESIGN.md §19): the owner-biased free-list
# mode on the one-heap 16-thread threadtest must keep the summed
# anchor.pop+anchor.free failed-CAS count under 5 per 1k allocator ops
# (measured 0.00/1k at the commit that introduced the mode vs
# 1915.59/1k under the anchor mode on the same run — the private LIFO
# absorbs owner frees and the pub word batches remote ones, so any
# rate above 5 means frees leaked back onto the shared anchor). Exit
# code 2 fails the gate.
dune exec bin/trace.exe -- report threadtest --threads 16 --heaps 1 \
  --allocator new-ob --max-failed-cas-per-1k anchor.pop+anchor.free:5.0 \
  > /dev/null
dune build @lint
dune build @sa
dune runtest
# Executable docs: run every fenced `dune exec` command in README.md,
# EXPERIMENTS.md and DESIGN.md (scripts/doc_check.sh).
dune build @doc-check
