#!/usr/bin/env bash
# Verifies that the documentation's cross-references are honest:
#
#  1. Every local file referenced from the docs exists — markdown links
#     `[text](target)` plus bare mentions of `*.md` files (the docs
#     cross-link heavily — README → FAULT_MODEL → THEORY — and a rename
#     must not leave dangling pointers).
#  2. Every intra-doc `#anchor` link (same-file `[x](#sec)` or cross-file
#     `[x](DOC.md#sec)`) resolves to a real heading of the target file,
#     using the GitHub anchor derivation (lowercase, punctuation dropped,
#     spaces to hyphens).
#  3. Every mentioned source path (src/..., scripts/..., bench/...,
#     tests/..., tools/..., examples/...) exists in the tree — with
#     `{h,cc}`-style brace alternatives expanded, `*` globs matched, and
#     extensionless mentions tried as .h/.cc — so prose can't keep
#     pointing at renamed modules.
#
# Checks README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md, docs/*.md and
# .claude/skills/*/SKILL.md.
# http(s) URLs are skipped. File targets resolve relative to the
# referencing file's directory, then the repo root.
#
# Usage: scripts/check_docs_links.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

FILES=()
for f in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md \
         .claude/skills/*/SKILL.md; do
  [[ -f "$f" ]] && FILES+=("$f")
done

missing=0
checked=0

resolve() {  # resolve <referencing-file> <target> → 0 if target exists
  local from_dir target="$2"
  from_dir="$(dirname "$1")"
  [[ -e "$from_dir/$target" || -e "$ROOT/$target" ]]
}

resolve_path() {  # <referencing-file> <target> → echo resolved path or fail
  local from_dir target="$2"
  from_dir="$(dirname "$1")"
  if [[ -e "$from_dir/$target" ]]; then
    echo "$from_dir/$target"
  elif [[ -e "$ROOT/$target" ]]; then
    echo "$ROOT/$target"
  else
    return 1
  fi
}

# GitHub-style anchors of every markdown heading in <file>: lowercase,
# everything but alphanumerics/spaces/hyphens/underscores dropped, spaces
# to hyphens. (Duplicate-heading -1 suffixes are not derived; the docs
# don't repeat heading titles.)
anchors_of() {
  grep -E '^#{1,6} ' "$1" 2>/dev/null | sed -E 's/^#+[[:space:]]+//' |
    tr '[:upper:]' '[:lower:]' |
    sed -E 's/[^a-z0-9 _-]//g; s/[[:space:]]+/-/g' || true
}

# 0 iff a source-path mention exists, after brace expansion, glob
# matching, and .h/.cc suffix tries for extensionless mentions.
source_exists() {
  local target="$1" alt prefix suffix body
  if [[ "$target" == *"{"*"}"* ]]; then
    prefix="${target%%\{*}"
    body="${target#*\{}"
    body="${body%%\}*}"
    suffix="${target#*\}}"
    local alts
    IFS=',' read -ra alts <<< "$body"
    for alt in "${alts[@]}"; do
      source_exists "${prefix}${alt}${suffix}" || return 1
    done
    return 0
  fi
  if [[ "$target" == *"*"* ]]; then
    compgen -G "$target" >/dev/null
    return
  fi
  [[ -e "$target" || -e "$target.h" || -e "$target.cc" || -e "$target.cpp" ]]
}

for f in "${FILES[@]}"; do
  # --- 1. markdown link targets + bare .md mentions -----------------------
  targets="$(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' |
             sed -E 's/#.*$//' | grep -vE '^(https?:|mailto:|$)' || true)"
  bare="$(grep -oE '[A-Za-z0-9_./-]+\.md' "$f" | grep -vE '^https?:' || true)"
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    checked=$((checked + 1))
    if ! resolve "$f" "$target"; then
      echo "MISSING: $f references '$target'" >&2
      missing=$((missing + 1))
    fi
  done <<< "$targets"$'\n'"$bare"

  # --- 2. #anchor links ---------------------------------------------------
  anchored="$(grep -oE '\]\([^)]*#[^)]+\)' "$f" |
              sed -E 's/^\]\(//; s/\)$//' |
              grep -vE '^(https?:|mailto:)' || true)"
  while IFS= read -r link; do
    [[ -z "$link" ]] && continue
    checked=$((checked + 1))
    file_part="${link%%#*}"
    anchor="${link#*#}"
    if [[ -z "$file_part" ]]; then
      anchor_file="$f"
    elif ! anchor_file="$(resolve_path "$f" "$file_part")"; then
      continue  # Already reported as MISSING by pass 1.
    fi
    if ! anchors_of "$anchor_file" | grep -qxF "$anchor"; then
      echo "BAD ANCHOR: $f links '#$anchor' but $anchor_file has no such" \
           "heading" >&2
      missing=$((missing + 1))
    fi
  done <<< "$anchored"

  # --- 3. source-path mentions --------------------------------------------
  # (?<!...) skips build-output paths like ./build/tools/csod — only
  # source-tree mentions are checked.
  sources="$(grep -oP '(?<![A-Za-z0-9_/-])(?<!build/)(src|scripts|bench|tests|tools|examples)/[A-Za-z0-9_./{},*-]+' "$f" |
             sed -E 's/:[0-9]+$//; s/[.,:;]+$//' | sort -u || true)"
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    checked=$((checked + 1))
    if ! source_exists "$target"; then
      echo "MISSING SOURCE: $f mentions '$target'" >&2
      missing=$((missing + 1))
    fi
  done <<< "$sources"
done

if (( missing > 0 )); then
  echo "$missing dangling documentation reference(s)." >&2
  exit 1
fi
echo "Docs link check passed ($checked references in ${#FILES[@]} files)."
