#!/usr/bin/env bash
# Runs the recovery-engine benchmark (BENCH_recovery.json at the repo
# root): the AMP-vs-BOMP wall-time crossover at N = 100k, the three-engine
# table behind `--solver=`, AMP output digests across thread limits
# {1,2,8} x {portable, native} SIMD dispatch, and the two-phase
# wire-byte comparison on the Figure 7 production workload.
#
# The bench runs twice; timings differ run to run, so the determinism
# check (same pattern as run_bench_streaming.sh) diffs only the
# output_digest / bit_identical lines, which must be byte-identical —
# and the bench itself exits nonzero if any (thread limit, SIMD level)
# pair moves a single output bit or either crossover engine misses the
# exact top-k.
#
# The script then gates:
#  - bit_identical: the six AMP digests agree;
#  - the crossover: AMP strictly faster than BOMP at the largest swept k
#    (the DESIGN.md §14 claim — AMP's per-iteration cost is flat in k);
#  - two-phase savings: >= 30% fewer wire bytes than the cheapest fixed-M
#    configuration at matched precision/recall
#    (TWO_PHASE_MIN_SAVINGS_PCT overrides).
#
# Usage: scripts/run_bench_recovery.sh
#   BUILD_DIR=<dir>                 build directory (default: build)
#   RECOVERY_FLAGS=<f>              extra bench flags (e.g. "--quick=true")
#   TWO_PHASE_MIN_SAVINGS_PCT=<x>   override the byte-savings threshold
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" --target bench_recovery -j "$(nproc)"

TMP_A="$(mktemp)"
TMP_B="$(mktemp)"
trap 'rm -f "$TMP_A" "$TMP_B"' EXIT

# shellcheck disable=SC2086
"$BUILD_DIR/bench/bench_recovery" --out="$TMP_A" ${RECOVERY_FLAGS:-}
# shellcheck disable=SC2086
"$BUILD_DIR/bench/bench_recovery" --out="$TMP_B" ${RECOVERY_FLAGS:-} \
  >/dev/null

DIGEST_RE='output_digest|bit_identical'
if ! diff <(grep -E "$DIGEST_RE" "$TMP_A") \
          <(grep -E "$DIGEST_RE" "$TMP_B") >/dev/null; then
  echo "FAIL: two bench_recovery runs produced different output digests" >&2
  diff <(grep -E "$DIGEST_RE" "$TMP_A") \
       <(grep -E "$DIGEST_RE" "$TMP_B") >&2 || true
  exit 1
fi
echo "Recovery determinism check passed: digests identical across two runs."

if ! grep -q '"bit_identical": true' "$TMP_A"; then
  echo "FAIL: AMP output digests differ across thread limits / SIMD" >&2
  exit 1
fi
echo "Recovery bit-identity gate passed: one digest across {1,2,8} x" \
     "{portable, native}."

# Crossover gate: at the largest swept k, AMP must beat BOMP on wall time.
read -r LAST_K BOMP_MS AMP_MS <<< "$(sed -n \
  's/.*"k": \([0-9]*\), "bomp_ms": \([0-9.]*\), "amp_ms": \([0-9.]*\).*/\1 \2 \3/p' \
  "$TMP_A" | tail -1)"
if [[ -z "${AMP_MS:-}" ]]; then
  echo "FAIL: no crossover rows in bench output" >&2
  exit 1
fi
if ! awk -v a="$AMP_MS" -v b="$BOMP_MS" 'BEGIN {exit !(a < b)}'; then
  echo "FAIL: AMP (${AMP_MS} ms) not faster than BOMP (${BOMP_MS} ms)" \
       "at k = ${LAST_K}" >&2
  exit 1
fi
echo "Recovery crossover gate passed: AMP ${AMP_MS} ms < BOMP ${BOMP_MS} ms" \
     "at k = ${LAST_K}."

# Two-phase byte-savings gate.
TWO_PHASE_MIN_SAVINGS_PCT="${TWO_PHASE_MIN_SAVINGS_PCT:-30}"
SAVINGS="$(sed -n \
  's/.*"two_phase": .*"savings_vs_fixed_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' \
  "$TMP_A")"
if [[ -z "$SAVINGS" ]]; then
  echo "FAIL: no two-phase savings in bench output" >&2
  exit 1
fi
if ! awk -v s="$SAVINGS" -v min="$TWO_PHASE_MIN_SAVINGS_PCT" \
     'BEGIN {exit !(s >= min)}'; then
  echo "FAIL: two-phase savings ${SAVINGS}% below threshold" \
       "${TWO_PHASE_MIN_SAVINGS_PCT}%" >&2
  exit 1
fi
echo "Two-phase byte gate passed: ${SAVINGS}% >=" \
     "${TWO_PHASE_MIN_SAVINGS_PCT}% fewer bytes than fixed-M."

cp "$TMP_A" "$ROOT/BENCH_recovery.json"
echo "Wrote $ROOT/BENCH_recovery.json"
