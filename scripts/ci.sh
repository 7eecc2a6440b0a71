#!/bin/sh
# Tier-1 gate: full build, static analysis (mm-lint and the
# flow-sensitive mm-sa), then the whole test tree — the alcotest
# suites plus the check-quick schedule-exploration gate and the
# @lint / @sa aliases wired into `dune runtest` (see bin/dune and the
# root dune file).
set -eu
cd "$(dirname "$0")/.."
dune build
# Build-profile guard (DESIGN.md §18): dune-workspace makes release the
# default profile, so the allocator is not compiled with -opaque. The
# dev profile adds -opaque, which turns every cross-module call on the
# hot path (Lf_alloc -> Anchor, Active_word, Store, ...) into an
# indirect call that cannot be inlined. The root dune file's env
# stanza keeps the dev profile's fatal warnings under every profile.
# Both are read off the compile rule of Lf_alloc itself.
lf_rule=$(dune rules -m \
  _build/default/lib/core/.mm_core.objs/native/mm_core__Lf_alloc.cmx)
case $lf_rule in
  *-opaque*)
    echo "ci: Lf_alloc is compiled with -opaque (dev profile?)" >&2
    exit 1 ;;
esac
case $lf_rule in
  *@1..3@5..28*) ;;
  *)
    echo "ci: Lf_alloc is compiled without the dev warning spec" >&2
    exit 1 ;;
esac
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
# Machine-readable benchmark results (quick mode): every experiment
# table with its OS-census counters, archived so the bench trajectory
# is diffable across commits (BENCH_0.json in the repo root is the
# seed).
dune exec bin/experiments.exe -- run --json _build/ci/bench-report.json \
  || true
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
# The test tree includes the real-runtime hot-path gate
# (test/test_hot_path.ml): a malloc+free through the typed API on
# Real_rt must allocate at most 0.5 minor words per pair on every
# configuration, so a closure or boxed value creeping back into a CAS
# loop fails here whatever the host's speed.
dune runtest
# Executable docs: run every fenced `dune exec` command in README.md,
# EXPERIMENTS.md and DESIGN.md (scripts/doc_check.sh).
dune build @doc-check
