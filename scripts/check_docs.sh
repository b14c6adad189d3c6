#!/usr/bin/env bash
# check_docs.sh — keep the docs honest. Two classes of rot are checked:
#
#  1. Broken intra-repo markdown links: every relative (path) target in
#     every tracked *.md must exist on disk (anchors are stripped;
#     external http(s)/mailto links are skipped).
#  2. Stale flag references between the binaries and the operator manual:
#     every flag a binary actually registers (parsed from its -help
#     output) must be documented in docs/OPERATIONS.md, and every
#     backticked `-flag` token OPERATIONS.md mentions must still exist in
#     one of the binaries. Renaming or removing a flag without touching
#     the manual — or documenting a flag that was never shipped — fails CI.
#  3. Stale series names between the registry and the metrics catalog:
#     every "prochlo_…" series name in non-test Go (what the daemons
#     register and the examples read back) must appear backticked in
#     docs/OPERATIONS.md, and every backticked `prochlo_…` name there must
#     still be in the code. benchmark/ is skipped: it is a separate module
#     that scrapes exposition-format names (…_sum, …_count).
#
# Usage: scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. intra-repo markdown links -----------------------------------------
while IFS= read -r md; do
  # PAPER.md / PAPERS.md / SNIPPETS.md are generated retrieval artifacts
  # (they reference figures that were never vendored); skip them.
  case "$md" in PAPER.md|PAPERS.md|SNIPPETS.md) continue ;; esac
  dir="$(dirname "$md")"
  # Extract ](target) link targets; keep only relative file paths.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"           # strip anchor
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $md -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed 's/^](//; s/)$//')
done < <(git ls-files '*.md')

# --- 2. flags vs docs/OPERATIONS.md ---------------------------------------
ops=docs/OPERATIONS.md
helpdir="$(mktemp -d)"
trap 'rm -rf "$helpdir"' EXIT
go run ./cmd/prochlod -h >"$helpdir/prochlod" 2>&1 || true
go run ./cmd/prochloload -h >"$helpdir/prochloload" 2>&1 || true

# Flag names as registered: help lines of the form "  -name ..." (flag
# package format).
real_flags="$(grep -hoE '^  -[a-z][a-z0-9-]*' "$helpdir"/* | tr -d ' ' | sort -u)"
if [ -z "$real_flags" ]; then
  echo "could not parse any flags from -help output" >&2
  exit 1
fi

# Forward: every registered flag is documented.
while IFS= read -r f; do
  if ! grep -q -- "\`$f\`" "$ops"; then
    echo "UNDOCUMENTED FLAG: $f (registered by a binary, missing from $ops)" >&2
    fail=1
  fi
done <<<"$real_flags"

# Reverse: every backticked -flag token in the manual still exists.
doc_flags="$(grep -oE '`[^`]+`' "$ops" | grep -oE '(^|[` ])-[a-z][a-z0-9-]*' | tr -d '` ' | sort -u)"
while IFS= read -r f; do
  [ -z "$f" ] && continue
  if ! grep -qx -- "$f" <<<"$real_flags"; then
    echo "STALE FLAG REFERENCE: $f (in $ops, registered by no binary)" >&2
    fail=1
  fi
done <<<"$doc_flags"

# --- 3. metric series vs docs/OPERATIONS.md ---------------------------------
code_series="$(git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' |
  xargs grep -hoE '"prochlo_[a-z_]+"' | tr -d '"' | sort -u)"
if [ -z "$code_series" ]; then
  echo "could not find any prochlo_ series name in the Go sources" >&2
  exit 1
fi
doc_series="$(grep -oE '`prochlo_[a-z_]+' "$ops" | tr -d '`' | sort -u)"

while IFS= read -r m; do
  if ! grep -qx -- "$m" <<<"$doc_series"; then
    echo "UNDOCUMENTED SERIES: $m (named in the Go sources, missing from $ops)" >&2
    fail=1
  fi
done <<<"$code_series"

while IFS= read -r m; do
  [ -z "$m" ] && continue
  if ! grep -qx -- "$m" <<<"$code_series"; then
    echo "STALE SERIES REFERENCE: $m (in $ops, named by no Go source)" >&2
    fail=1
  fi
done <<<"$doc_series"

if [ "$fail" -ne 0 ]; then
  echo "docs check failed" >&2
  exit 1
fi
echo "docs check passed: links resolve; flags, metric series and $ops agree"
