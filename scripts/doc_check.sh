#!/bin/sh
# Executable docs: extract every `dune exec ...` command from the fenced
# code blocks of README.md, EXPERIMENTS.md and DESIGN.md and run it, so
# a documented CLI invocation cannot rot — if a flag is renamed or a
# subcommand removed, this script (the `@doc-check` alias, part of
# scripts/ci.sh) fails.
#
# Commands run in documented order (a walkthrough may record a trace
# file and then report on it). Backslash continuations are joined and
# trailing `# comment` text is stripped. Exit codes 0 AND 2 both count
# as a pass: 2 is the designed "findings reported" outcome of the check
# and sa CLIs (a documented command that *demonstrates* a planted
# violation is working as documented); anything else fails.
#
# Two modes:
#   ./scripts/doc_check.sh        standalone: builds once, then runs the
#                                 built executables from the repo root.
#   DOC_CHECK_IN_DUNE=1 ...       invoked by the @doc-check alias with
#                                 cwd=_build/default; executables are
#                                 run directly (./bin/x.exe) because
#                                 nested `dune exec` would contend for
#                                 the dune lock.
set -eu

if [ "${DOC_CHECK_IN_DUNE:-0}" = "1" ]; then
  root=.
else
  cd "$(dirname "$0")/.."
  dune build
  root=_build/default
fi

docs="${*:-README.md EXPERIMENTS.md DESIGN.md}"

extract() {
  awk '
    /^```/ { fence = !fence; next }
    {
      if (!fence) next
      if (cont) buf = buf " " $0
      else if ($0 ~ /^[[:space:]]*dune exec /) buf = $0
      else next
      if (buf ~ /\\[[:space:]]*$/) { sub(/\\[[:space:]]*$/, "", buf); cont = 1; next }
      cont = 0
      sub(/[[:space:]]+#.*$/, "", buf)
      print buf
    }
  ' "$1"
}

pass=0
fail=0
for doc in $docs; do
  extract "$doc" > /tmp/doc_check_cmds.$$
  while IFS= read -r line; do
    # "dune exec EXE [-- args...]" -> run the built EXE directly.
    eval "set -- $line"
    shift 2
    exe=$1
    shift
    [ "${1:-}" = "--" ] && shift
    rc=0
    "$root/$exe" "$@" > /dev/null 2>&1 || rc=$?
    case $rc in
    0 | 2)
      pass=$((pass + 1))
      printf 'doc-check PASS (%s, rc=%d): %s\n' "$doc" "$rc" "$line"
      ;;
    *)
      fail=$((fail + 1))
      printf 'doc-check FAIL (%s, rc=%d): %s\n' "$doc" "$rc" "$line" >&2
      ;;
    esac
  done < /tmp/doc_check_cmds.$$
  rm -f /tmp/doc_check_cmds.$$
  printf 'doc-check: %s done (%d passed so far, %d failed)\n' \
    "$doc" "$pass" "$fail"
done

if [ "$fail" -gt 0 ]; then
  echo "doc-check: $fail documented command(s) broken" >&2
  exit 1
fi
echo "doc-check: all $pass documented commands run"
