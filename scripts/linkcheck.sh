#!/usr/bin/env bash
# linkcheck.sh — verify that every relative markdown link and every
# backticked repo path in README.md and docs/ points at something that
# exists. Run from anywhere: the script anchors itself at the repo root.
#
# Hardened against the failure modes the inline CI step had:
#   - set -euo pipefail: a grep/sed pipeline failure is an error, not a
#     silent pass;
#   - nullglob: an empty docs/*.md glob contributes no files instead of
#     the literal pattern (and an empty file list fails loudly);
#   - links containing parentheses — [spec](spec_(v2).md) — are parsed
#     with one level of nesting instead of being truncated at the first
#     ")".
#
# It also checks that every *.md path cited in a non-test .go file
# exists, beside the citing file or from the repo root.
set -euo pipefail
shopt -s nullglob

cd "$(dirname "$0")/.."

# The docs glob must actually match: with nullglob an empty docs/
# would otherwise silently shrink coverage to the two literal files.
docs=(docs/*.md)
if [ "${#docs[@]}" -eq 0 ]; then
  echo "linkcheck: docs/*.md matched no files" >&2
  exit 1
fi
files=(README.md "${docs[@]}" bench/README.md)

fail=0
for f in "${files[@]}"; do
  if [ ! -f "$f" ]; then
    echo "linkcheck: $f vanished mid-run" >&2
    fail=1
    continue
  fi
  dir=$(dirname "$f")

  # Markdown link targets: ](...) tolerating one nested (...) pair.
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    target=${link%%#*}
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "$f: broken link ($link)"
      fail=1
    fi
  done < <(grep -oE '\]\(([^()]|\([^()]*\))+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' || true)

  # Backticked repo paths must exist.
  while IFS= read -r path; do
    if [ ! -e "$path" ]; then
      echo "$f: references missing path $path"
      fail=1
    fi
  done < <(grep -oE '`(cmd|docs|examples|internal|scripts|bench)/[A-Za-z0-9_./-]*`' "$f" | tr -d '`' || true)
done

# Markdown files cited from Go comments must exist too.
while IFS= read -r -d '' gofile; do
  dir=$(dirname "$gofile")
  while IFS= read -r path; do
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "$gofile: cites missing file $path"
      fail=1
    fi
  done < <(grep -oE '[A-Za-z0-9_./-]+\.md\b' "$gofile" | sort -u || true)
done < <(find . -name '*.go' ! -name '*_test.go' -not -path './.git/*' -print0)

if [ "$fail" -ne 0 ]; then
  echo "linkcheck: failures found" >&2
fi
exit "$fail"
