# Convenience targets; verify.sh is the canonical sequence.

.PHONY: verify verify-short fmt-check build test race fuzz-smoke lint lint-fix bench bench-plan obs-bench

verify:
	./verify.sh

verify-short:
	./verify.sh -short

# Same check as verify.sh's first step: gofmt -l must print nothing
# (bench/.build is build output, not source).
fmt-check:
	@out=$$(find . -name '*.go' -not -path './bench/.build/*' -print0 | xargs -0 gofmt -l); \
	if [ -n "$$out" ]; then echo "$$out"; echo "gofmt would rewrite the files above" >&2; exit 1; fi

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/cn/... ./internal/invindex/... \
		./internal/cache/... ./internal/exec/... ./internal/lca/... ./internal/obs/... \
		./internal/resilience/... ./internal/core/... ./internal/server/... \
		./internal/plan/... ./internal/shard/...

# Same steps as verify.sh: ten seconds of generated corpora, queries, pool
# sizes and job sizes against the serial oracle (FuzzPoolMatchesSerial),
# then five seconds each of the level-wise and tiled root-range kernels
# against the depth-first search on generated corpora with a
# self-referencing foreign key and hub joins (FuzzKernelsAgree),
# generated foreign-key columns against
# Table.SelectEq (FuzzJoinIndexMatchesSelectEq), compiled bindings
# against the full-scan binding on generated corpora and 1–4 term
# queries (FuzzBinderMatchesScan), batched result streams
# through cn.Top against SortResults (FuzzTopKMatchesSort), arbitrary /query and
# /batch bodies against the wire's status contract (FuzzServeQuery), log
# strings against json.Marshal (FuzzAppendJSONValue), and histogram
# observations against a brute-force tally of the lifetime row, every
# window and BadFraction (FuzzHistogram).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzPoolMatchesSerial -fuzztime 10s ./internal/exec/
	go test -run '^$$' -fuzz FuzzKernelsAgree -fuzztime 5s ./internal/cn/
	go test -run '^$$' -fuzz FuzzJoinIndexMatchesSelectEq -fuzztime 5s ./internal/cn/
	go test -run '^$$' -fuzz FuzzBinderMatchesScan -fuzztime 5s ./internal/cn/
	go test -run '^$$' -fuzz FuzzTopKMatchesSort -fuzztime 5s ./internal/cn/
	go test -run '^$$' -fuzz FuzzServeQuery -fuzztime 5s ./internal/server/
	go test -run '^$$' -fuzz FuzzAppendJSONValue -fuzztime 5s ./internal/obs/
	go test -run '^$$' -fuzz '^FuzzHistogram$$' -fuzztime 5s ./internal/obs/

lint:
	go run ./cmd/kwslint ./...

lint-fix:
	go run ./cmd/kwslint -fix ./...

bench:
	go run ./cmd/benchrunner

bench-plan:
	go test -bench 'PlanCache|Enumerate' -benchmem -run zz ./internal/plan/

obs-bench:
	go test -bench ObsSuiteOverhead -benchmem -run zz .
	go run ./cmd/benchrunner -obs-overhead
