# Developer entry points. CI runs the same commands (.github/workflows/ci.yml),
# so a green `make lint test` locally means the gates pass remotely too.

GO ?= go

.PHONY: all build test lint spatiallint fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the repo's static gates: gofmt, go vet, and the spatiallint
# suite (the determinism / arena-aliasing / snapshot-completeness analyzers
# under internal/analysis — see internal/analysis/README.md for the waiver
# syntax). staticcheck and govulncheck also run when installed; CI always
# installs them, locally they are optional.
lint: spatiallint
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipped (CI runs it)"; fi

# spatiallint runs standalone (sources via go list) and again under
# `go vet -vettool`, which additionally covers _test.go files.
spatiallint:
	$(GO) run ./cmd/spatiallint ./...
	$(GO) build -o $(CURDIR)/.bin/spatiallint ./cmd/spatiallint
	$(GO) vet -vettool=$(CURDIR)/.bin/spatiallint ./...

# fuzz gives the wire formats a short adversarial shake — the stats JSON
# round trip, the binary ingest frame decoder and the NDJSON event scanner
# (against encoding/json); CI runs the same legs on every push.
fuzz:
	$(GO) test ./internal/engine -run FuzzStatsJSONRoundTrip -fuzz FuzzStatsJSONRoundTrip -fuzztime 10s
	$(GO) test ./internal/wire -run FuzzWireFrameRoundTrip -fuzz FuzzWireFrameRoundTrip -fuzztime 10s
	$(GO) test ./internal/server -run FuzzWireEventJSON -fuzz FuzzWireEventJSON -fuzztime 10s
