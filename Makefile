# Convenience targets; verify.sh is the canonical sequence.

.PHONY: verify verify-short build test race lint lint-fix bench bench-plan obs-bench

verify:
	./verify.sh

verify-short:
	./verify.sh -short

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/parallel/... ./internal/cn/... \
		./internal/cache/... ./internal/exec/... ./internal/lca/... ./internal/obs/... \
		./internal/resilience/... ./internal/core/... ./internal/server/... \
		./internal/analysis/... ./internal/plan/... ./internal/shard/...

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
