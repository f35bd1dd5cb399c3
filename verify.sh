#!/usr/bin/env bash
# verify.sh — the canonical tier-1 entry point: everything CI (and a
# human before pushing) runs, in dependency order. Exits non-zero on the
# first failure.
#
#   ./verify.sh          # full verification
#   ./verify.sh -short   # skip the -race stress tests' slow bodies
set -euo pipefail
cd "$(dirname "$0")"

short=""
if [[ "${1:-}" == "-short" ]]; then
    short="-short"
fi

echo "==> gofmt -l (any file listed fails; bench/.build is build output)"
unformatted=$(find . -name '*.go' -not -path './bench/.build/*' -print0 | xargs -0 gofmt -l)
if [[ -n "$unformatted" ]]; then
    echo "$unformatted"
    echo "verify: gofmt would rewrite the files above" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> kwslint ./..."
go run ./cmd/kwslint ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test $short ./...

echo "==> bench module: go vet + go test (nested module, invisible to root ./...)"
(cd bench && go vet ./... && go test $short ./...)

echo "==> go test -race (concurrency-bearing packages)"
go test -race $short ./internal/cn/... ./internal/invindex/... \
    ./internal/cache/... ./internal/exec/... ./internal/lca/... ./internal/obs/... \
    ./internal/resilience/... ./internal/core/... ./internal/server/... \
    ./internal/plan/... ./internal/shard/...

# The gate runs before the fuzz smokes: their leftover load inflates
# its baseline.
echo "==> observability overhead gate (E38 budget: 5%)"
go run ./cmd/benchrunner -obs-overhead

echo "==> fuzz smoke (10s): pool == TopKSerial on generated corpora"
go test -run '^$' -fuzz FuzzPoolMatchesSerial -fuzztime 10s ./internal/exec/

echo "==> fuzz smoke (5s): levels, the unanchored scan-binding search and tiled EvaluateRoots == anchored EvaluateCN on generated self-referencing corpora, 1-3 terms"
go test -run '^$' -fuzz FuzzKernelsAgree -fuzztime 5s ./internal/cn/

echo "==> fuzz smoke (5s): join index == Table.SelectEq on generated foreign keys"
go test -run '^$' -fuzz FuzzJoinIndexMatchesSelectEq -fuzztime 5s ./internal/cn/

echo "==> fuzz smoke (5s): compiled binder == full-scan binding on generated corpora and terms"
go test -run '^$' -fuzz FuzzBinderMatchesScan -fuzztime 5s ./internal/cn/

echo "==> fuzz smoke (5s): cn.Top == SortResults plus truncation on any batched stream"
go test -run '^$' -fuzz FuzzTopKMatchesSort -fuzztime 5s ./internal/cn/

echo "==> fuzz smoke (5s): /query and /batch decoders answer every body with a wire status"
go test -run '^$' -fuzz FuzzServeQuery -fuzztime 5s ./internal/server/

echo "==> fuzz smoke (5s): histogram bucket row and snapshot differences == a brute-force tally"
go test -run '^$' -fuzz '^FuzzHistogram$' -fuzztime 5s ./internal/obs/

echo "verify: OK"
