# Convenience targets. verify.sh is the canonical sequence and the only
# copy of its gofmt check, -race package list and fuzz smokes: run
# `make verify` (or ./verify.sh) for those.

.PHONY: verify verify-short build test lint lint-fix bench bench-plan obs-bench

verify:
	./verify.sh

verify-short:
	./verify.sh -short

build:
	go build ./...

test:
	go test ./...

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
