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
# Hot-path gate (DESIGN.md §18): each allocator library is compiled once
# per runtime, so in the real copy every Rt.* call and every call into a
# sibling or lower-layer module on the hot path is direct. Read off the
# real-domain benchmark's executable, which reaches Lf_alloc through the
# Make shims, so this also shows that they resolve to the real copy: the
# Active/anchor/pub steps and the three malloc paths may hold no
# caml_apply and no indirect call. malloc and free may each keep exactly
# one indirect call: the stdlib's Domain.DLS.get behind Rt.self, which
# is not inlined across the stdlib boundary.
objdump -d --no-show-raw-insn _build/default/perfbench/main.exe | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $2; gsub(/[<>:]/, "", fn)
    if (fn ~ /^camlMm_core__Lf_alloc\.[a-z_]+_[0-9]+$/) {
      base = fn; sub(/^camlMm_core__Lf_alloc\./, "", base)
      sub(/_[0-9]+$/, "", base)
      seen[base] = 1
    } else base = ""
    next
  }
  base != "" && /call.*(\*|caml_apply)/ { indirect[base]++ }
  END {
    split("reserve_active pop_blocks anchor_push pub_push " \
          "malloc_from_active malloc_from_partial malloc_from_new_sb", zero)
    for (i in zero) limit[zero[i]] = 0
    limit["malloc"] = 1; limit["free"] = 1
    bad = 0
    for (f in limit) {
      if (!(f in seen)) {
        printf "ci: Lf_alloc.%s not found in perfbench/main.exe\n", f
        bad = 1
      } else if (indirect[f] + 0 > limit[f]) {
        printf "ci: Lf_alloc.%s makes %d indirect calls (at most %d)\n",
          f, indirect[f], limit[f]
        bad = 1
      }
    }
    exit bad
  }' >&2
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
# Anchor-contention gates (DESIGN.md §19): the owner-biased free-list
# mode on the one-heap 16-thread threadtest and larson must keep the
# summed anchor.pop+anchor.free failed-CAS count under 5 per 1k
# allocator ops. Owners malloc from and free to their private lists
# and remote frees into owned superblocks go to the public list, so
# only frees into handed-off superblocks, and the acquirer's freeze of
# one, touch the anchor. threadtest never hands a superblock off
# (measured 0.00/1k, vs 1915.59/1k under the anchor mode on the same
# run); larson's slot handoffs free into a handed-off superblock
# (measured 0.08/1k). A rate above 5 means owner or owned-superblock
# frees leaked back onto the shared anchor. Exit code 2 fails the gate.
for workload in threadtest larson; do
  dune exec bin/trace.exe -- report "$workload" --threads 16 --heaps 1 \
    --allocator new-ob --max-failed-cas-per-1k anchor.pop+anchor.free:5.0 \
    > /dev/null
done
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
