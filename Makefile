GO ?= go

.PHONY: check build test race vet staticcheck sivet fuzz-smoke bench smoke bench-smoke overhead-gate

## check: the CI gate — vet, build, the sivet project analyzers and
## race-enabled tests.
check: vet build sivet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## GATES: the sibench scenarios that fail on a regression; each one's
## rationale is the doc comment on its row in cmd/sibench/main.go.
GATES = live flat serve metricsz views reorder

## bench: every sibench scenario at full size — the paper suite, then the
## gates and the shard-scaling throughput table.
bench:
	$(GO) run ./cmd/sibench
	$(GO) run ./cmd/sibench $(GATES) shardscale

## smoke: the CI gate — every gate in quick mode; exits nonzero if any
## fails, after running the rest.
smoke:
	$(GO) run ./cmd/sibench -quick $(GATES)

## bench-smoke: the CI benchmark gate — every benchmark runs once, with
## allocation reporting.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

## staticcheck: run honnef.co/go/tools if installed (CI runs it always).
staticcheck:
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; CI runs it (https://staticcheck.dev)"

## sivet: the project-invariant analyzers — uncharged reads past the
## ExecStats charge points, lock-discipline violations on `guarded by`
## fields, untyped or wrongly-compared errors, and wire structs whose
## JSON tags drift from snake_case. Exits nonzero with file:line
## diagnostics; DESIGN.md §10 maps each analyzer to the invariant it pins.
sivet:
	$(GO) run ./cmd/sivet ./...

## fuzz-smoke: the CI fuzz gate — each native fuzz target gets a 10s
## coverage-guided run: the DSL parser (no panics, positioned errors,
## print→parse fixpoint), the Prometheus exporter against its own strict
## parser, and the injective tuple-key encoding every index ride on.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzDSLParser -fuzztime=10s ./internal/parser/
	$(GO) test -run=NONE -fuzz=FuzzExpfmtRoundTrip -fuzztime=10s ./internal/obs/
	$(GO) test -run=NONE -fuzz=FuzzTupleKeyInjective -fuzztime=10s ./internal/relation/

## overhead-gate: the CI instrumentation budget — default-on telemetry
## must cost at most 5% wall time on the prepared-exec hot path.
overhead-gate:
	SI_OVERHEAD_GATE=1 $(GO) test -run TestInstrumentationOverheadGate -v .
