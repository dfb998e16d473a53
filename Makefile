# Tier-1 gate: everything CI runs. `make` = build + vet + gofmt check +
# navlint + race-enabled short tests + the benchmark module check (the
# ~13s benchmark-backed experiment tests only run in `make test-full`).

GO ?= go

.PHONY: all build vet fmt-check lint test test-full e2e-check bench bench-all bench-smoke api-smoke metrics-smoke trace-smoke chaos-smoke load-smoke ci

all: ci

ci: build vet fmt-check lint test e2e-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file needs gofmt, listing the files.
fmt-check:
	@drift=$$(gofmt -l .); \
	if [ -n "$$drift" ]; then echo "gofmt needed on:" >&2; echo "$$drift" >&2; exit 1; fi

# lint runs the repository's own invariant analyzers (internal/lint via
# cmd/navlint): hot-path purity, lock discipline, plane separation and
# API-handler hygiene. Also usable as `go vet -vettool`.
lint:
	$(GO) run ./cmd/navlint ./...

test:
	$(GO) test -race -short ./...

test-full:
	$(GO) test -race ./...

# e2e-check vets and tests the end-to-end benchmark module. e2ebench/ is
# a separate module (replace repro => ../), so ./... at the root never
# compiles it, yet it calls the server's exported API.
e2e-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# bench runs the serve/persist benchmarks and records the summary in
# BENCH_serve.json (ns/op, B/op, allocs/op per benchmark).
bench:
	GO="$(GO)" scripts/bench.sh

# bench-all runs every benchmark in the repository.
bench-all:
	$(GO) test -run xxx -bench . -benchtime 1s ./...

# bench-smoke executes each benchmark once so benchmark code cannot rot
# (CI runs this).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# api-smoke boots a real navserve with -api-token, drives navctl
# through a structure swap over the control plane, and asserts the
# ETag rotation stays within the swapped family (CI runs this).
api-smoke:
	GO="$(GO)" scripts/api_smoke.sh

# metrics-smoke boots a real navserve, drives traffic plus one
# mutation, and asserts /metrics exposes every layer's series and
# /api/v1/events traces the mutation (CI runs this).
metrics-smoke:
	GO="$(GO)" scripts/metrics_smoke.sh

# trace-smoke boots a real navserve with tracing on and an injected
# store stall, and asserts the slow request is captured with its phase
# breakdown and that W3C trace context propagates (CI runs this).
trace-smoke:
	GO="$(GO)" scripts/trace_smoke.sh

# chaos-smoke boots a real navserve on the file store, SIGKILLs it
# mid-flight, restarts it, and asserts the visitor trail resumed and
# /readyz reports ready (CI runs this).
chaos-smoke:
	GO="$(GO)" scripts/chaos_smoke.sh

# load-smoke drives thousands of seeded navload sessions against a real
# navserve on the file store, gates on SLOs and the back/forward history
# mirror, then SIGKILLs and restarts the server asserting zero session
# loss (CI runs this).
load-smoke:
	GO="$(GO)" scripts/load_smoke.sh
