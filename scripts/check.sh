#!/usr/bin/env bash
# check.sh — the repo's standing check gate.
#
# Runs the legs every change must pass before merging:
#   1. go build ./...        the tree compiles
#   2. go vet ./...          stock toolchain analysis, and gofmt -l:
#                            every file outside internal/lint/testdata
#                            (whose fixtures pin directive placement)
#                            must be gofmt-clean
#   3. hsd-vet ./...         project contracts: determinism, numerics,
#                            concurrency, errors, hot-path allocation,
#                            observability clock policy
#                            (see DESIGN.md "Determinism & numerics rules")
#   4. go test -race ./...   unit + parity tests under the race detector
#   5. bench smoke           hsd-bench -exp infer with a few fixed reps:
#                            gates fused-vs-layered bit parity on every
#                            Table 1 geometry before timing anything, so a
#                            kernel change that alters numbers fails here
#   6. scripts/smoke         hsd-serve end-to-end smoke: boot on an
#                            ephemeral port, predict, healthz, metrics,
#                            -pprof debug surface, SIGINT drain, zero exit
#   7. scripts/trainsmoke    hsd-train observability smoke: tiny suite,
#                            -telemetry JSONL (manifest/epoch/result) and
#                            -metrics-out stage summaries parse and assert
#   8. scripts/scansmoke     hsd-scan full-layout smoke: tiny die, shifted
#                            boundary, asserts region merge, one-DCT-per-
#                            block accounting, the exact cache hit rate,
#                            incremental re-scan dirty counts and the
#                            hsd_scan_* metrics series
#   9. scripts/activesmoke   hsd-active smoke: tiny pool, budget sized to
#                            exhaust mid-batch, asserts exact ODST-seconds
#                            accounting, truncation, the JSONL manifest and
#                            the hsd_litho_*/hsd_active_* metrics series
#  10. scripts/tracesmoke    hsd-serve trace smoke: /debug/trace dark by
#                            default (404), then -trace with mixed
#                            fast/slow/429 traffic asserting tail-keep
#                            retention, request/batch stage trees with
#                            cross-linkage, and the p99 trace-ID exemplar
#                            on the metrics scrape
#
# Usage: scripts/check.sh [-short|-lint-only]
#   -short      pass -short to go test (skips the slow experiment suites)
#   -lint-only  run legs 1-3 only (build, vet + gofmt, hsd-vet) — the fast
#               pre-commit loop; the analyzers alone catch contract
#               breaches without waiting for the race suite
set -euo pipefail
cd "$(dirname "$0")/.."

short=""
lint_only=""
case "${1:-}" in
-short) short="-short" ;;
-lint-only) lint_only=1 ;;
esac

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l"
unformatted="$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)"
if [[ -n "${unformatted}" ]]; then
    echo "gofmt: these files need formatting (run gofmt -w):" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "==> hsd-vet ./..."
go run ./cmd/hsd-vet ./...

if [[ -n "${lint_only}" ]]; then
    echo "check gate: lint legs green (-lint-only)"
    exit 0
fi

echo "==> go test -race ${short} ./..."
go test -race ${short} ./...

echo "==> infer bench smoke (fused/layered parity gate)"
infer_tmp="$(mktemp)"
go run ./cmd/hsd-bench -exp infer -infer-reps 3 -infer-out "${infer_tmp}" > /dev/null
rm -f "${infer_tmp}"

echo "==> hsd-serve smoke"
go run ./scripts/smoke

echo "==> hsd-train smoke"
go run ./scripts/trainsmoke

echo "==> hsd-scan smoke"
go run ./scripts/scansmoke

echo "==> hsd-active smoke"
go run ./scripts/activesmoke

echo "==> hsd-serve trace smoke"
go run ./scripts/tracesmoke

echo "check gate: all legs green"
