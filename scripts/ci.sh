#!/bin/sh
# Tier-1 gate: full build, static analysis (mm-sa over the typed
# ASTs), then the whole test tree — the alcotest suites plus the
# check-quick schedule-exploration gate and the @sa alias wired into
# `dune runtest` (see bin/dune and the root dune file).
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
# Active/anchor/pub steps, the three malloc paths, HeapGetPartial
# with its owner-biased walk of the sibling heaps' lists and the
# owner-biased free may hold no caml_apply and no indirect call. malloc and free (Lf_alloc's and
# Block_cache's) may each keep exactly one indirect call: the stdlib's
# Domain.DLS.get behind Rt.self, which is not inlined across the stdlib
# boundary.
# Straight-line gate: the functions an active-hit malloc+free runs
# (Fig. 4's MallocFromActive, Fig. 6's push, the block cache's hit and
# free, the owner-biased LIFO pop in malloc, the owner's private pop and
# the owner-biased free with its private and LIFO pushes) must also
# hold no idiv and no call to a per-operation helper that is meant to
# be inlined: the word codecs, Descriptor.get, Stripes,
# Size_class, Store's word accessors (read_word, read_word_racy,
# write_word), Real_rt's label/CAS/obs wrappers and word access, and
# Lf_alloc's own heap_at/block_index/finish_block/classify, its
# owner-biased row access ob_row/ob_col and the LIFO and private
# pops and pushes (lifo_pop/lifo_push/priv_pop/priv_push). Without
# flambda the compiler inlines only what is marked [@inline] or is of
# size 10 or less, so an edit that pushes a helper over the limit or
# drops its attribute brings the call back; a helper in tail position
# comes back as a jmp, which counts as a call. The cold hook bodies
# (label_hooked, obs_event_hooked, Rt_base.obs_cas) are allowed.
# caml_call_gc is not gated: the poll points of `let rec` retry loops
# call it legitimately. No function of Lf_alloc or Block_cache may
# hold a Double_array_tag test (`and $0xff` then `cmp $0xfe`): the
# generic array load an element of unknown type compiles to, which the
# flat id->record tables of DESIGN.md §18 and the visible
# Partial_list.t (behind MallocFromPartial and free-to-PARTIAL) avoid.
objdump -d --no-show-raw-insn _build/default/perfbench/main.exe | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $2; gsub(/[<>:]/, "", fn)
    if (fn ~ /^camlMm_core__(Lf_alloc|Block_cache)\.[a-z_]+_[0-9]+$/) {
      base = fn; sub(/^camlMm_core__/, "", base); sub(/_[0-9]+$/, "", base)
      seen[base] = 1
    } else base = ""
    next
  }
  base == "" { next }
  /call.*(\*|caml_apply)/ { indirect[base]++ }
  /idiv/ { idiv[base]++ }
  /cmp +\$0xfe,/ && prev ~ /and +\$0xff,/ { tagtest[base]++ }
  /call|jmp/ {
    callee = $NF; gsub(/[<>]/, "", callee)
    if (callee ~ /^camlMm_core__(Anchor|Active_word|Pub_word|Descriptor|Stripes)\./ ||
        callee ~ /^camlMm_mem__Size_class\./ ||
        callee ~ /^camlMm_mem__Store\.(read_word|write_word)/ ||
        callee ~ /^camlMm_runtime__Real_rt\.(label|compare_and_set|obs_event|read_word|write_word)_[0-9]+$/ ||
        callee ~ /^camlMm_core__Lf_alloc\.(heap_at|block_index|finish_block|classify|ob_row|ob_col|lifo_pop|lifo_push|priv_pop|priv_push)_[0-9]+$/) {
      sub(/^caml/, "", callee); sub(/_[0-9]+$/, "", callee)
      helper[base, callee]++
      helpers[base] = 1
    }
  }
  { prev = $0 }
  END {
    split("reserve_active pop_blocks anchor_push pub_push " \
          "malloc_from_active malloc_from_partial malloc_from_new_sb " \
          "heap_get_partial steal_partial free_ob", zero)
    for (i in zero) limit["Lf_alloc." zero[i]] = 0
    limit["Lf_alloc.malloc"] = 1; limit["Lf_alloc.free"] = 1
    limit["Block_cache.malloc"] = 1; limit["Block_cache.free"] = 1
    split("Lf_alloc.malloc Lf_alloc.free Lf_alloc.malloc_from_active " \
          "Lf_alloc.reserve_active Lf_alloc.pop_blocks Lf_alloc.anchor_push " \
          "Lf_alloc.malloc_ob Lf_alloc.free_ob " \
          "Block_cache.malloc Block_cache.free", flat)
    for (i in flat) straight[flat[i]] = 1
    bad = 0
    for (f in limit) {
      if (!(f in seen)) {
        printf "ci: %s not found in perfbench/main.exe\n", f
        bad = 1
      } else if (indirect[f] + 0 > limit[f]) {
        printf "ci: %s makes %d indirect calls (at most %d)\n",
          f, indirect[f], limit[f]
        bad = 1
      }
    }
    for (f in tagtest) {
      printf "ci: %s holds %d Double_array_tag tests\n", f, tagtest[f]
      bad = 1
    }
    for (f in straight) {
      if (idiv[f] + 0 > 0) {
        printf "ci: %s holds %d idiv\n", f, idiv[f]
        bad = 1
      }
      if (f in helpers)
        for (k in helper) {
          split(k, part, SUBSEP)
          if (part[1] == f) {
            printf "ci: %s calls %s (%d call sites)\n", f, part[2], helper[k]
            bad = 1
          }
        }
    }
    exit bad
  }' >&2
# The same rule for the Blelloch-Wei yardstick, which perfbench does not
# link: read off bin/experiments.exe, Bw_alloc.malloc and Bw_alloc.free
# may make no call to a Store word accessor, so neither pays an
# out-of-line word access per operation.
objdump -d --no-show-raw-insn _build/default/bin/experiments.exe | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = $2; gsub(/[<>:]/, "", fn)
    base = ""
    if (fn ~ /^camlMm_baselines__Bw_alloc\.(malloc|free)_[0-9]+$/) {
      base = fn; sub(/^camlMm_baselines__/, "", base); sub(/_[0-9]+$/, "", base)
      seen[base] = 1
    }
    next
  }
  base != "" && /call/ {
    callee = $NF; gsub(/[<>]/, "", callee)
    if (callee ~ /^camlMm_mem__Store\.(read_word|write_word)/) {
      sub(/^caml/, "", callee); sub(/_[0-9]+$/, "", callee)
      calls[base, callee]++
    }
  }
  END {
    bad = 0
    split("Bw_alloc.malloc Bw_alloc.free", fns)
    for (i in fns)
      if (!(fns[i] in seen)) {
        printf "ci: %s not found in bin/experiments.exe\n", fns[i]
        bad = 1
      }
    for (k in calls) {
      split(k, part, SUBSEP)
      printf "ci: %s calls %s (%d call sites)\n", part[1], part[2], calls[k]
      bad = 1
    }
    exit bad
  }' >&2
# Machine-readable mm-sa report (DESIGN.md §16) over the typed ASTs,
# kept as a CI artifact even when the enforcement gates below fail;
# @check guarantees the .cmt files exist.
mkdir -p _build/ci
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
dune build @sa
# The test tree includes the real-runtime hot-path gate
# (test/test_hot_path.ml): a malloc+free through the typed API on
# Real_rt must allocate at most 0.5 minor words per pair on every
# configuration, so a closure or boxed value creeping back into a CAS
# loop fails here whatever the host's speed.
dune runtest
# Benchmark self-test (perfbench/test_bench.py): same-seed inputs are
# byte-identical, and a one-second run of every workload, untraced and
# traced, verifies its outputs and emits exactly the metrics
# BENCHMARK.json lists, so a census site the allocator drops or adds
# fails here rather than in a benchmark run.
python3 perfbench/test_bench.py
# Executable docs: run every fenced `dune exec` command in README.md,
# EXPERIMENTS.md and DESIGN.md (scripts/doc_check.sh).
dune build @doc-check
