# universalnet — build, test, and regenerate the evaluation.

GO ?= go

.PHONY: all build check linkcheck test test-race perfbench-test fuzz-smoke bench bench-json bench-compare bench-smoke load-smoke cluster-smoke trace-smoke bigsim-smoke redblue-smoke report report-golden examples cover clean

# Explicit bench-compare tolerances (percent growth allowed per metric). CI
# and local runs share these so the gate's verdict is reproducible.
BENCH_TOL_NS ?= 25
BENCH_TOL_BYTES ?= 10
BENCH_TOL_ALLOCS ?= 10

all: build test

build:
	$(GO) build ./...

# Static gate: formatting, vet, and a full compile. `make test` runs it first.
check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...

# Dead-export gate: builds the ten binaries (the root module's main packages
# and perfbench) with inlining off, since an inlined function may leave no
# symbol of its own, and fails when an exported function of internal/ or the
# facade is linked into none of them and is not listed with a reason in
# scripts/linkcheck/allow.txt. It also holds PAPER_MAP.md to the code: each
# name in a Code cell is declared, uninet links the functions of a row that
# claims an experiment, a paper: allow entry sits on a row with Experiment
# "—", and each cited test exists. It stays out of check so that
# `make test` does not pay for ten builds; CI's check job runs both.
linkcheck:
	$(GO) run ./scripts/linkcheck

test: check
	$(GO) test ./...

# The second run repeats the tests of the ahead drains ten times under the
# race detector: DrainAhead's core and the bookkeeping it feeds run on two
# goroutines, and one run can miss the interleaving that races.
test-race: check
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestDrainAhead|TestReplayCostedMatchesAppendStep' ./internal/pebble ./internal/redblue

# perfbench/ is a module of its own, so the root `go test ./...` skips it.
# This vets and tests it against the current packages, so a change to an
# API the benchmark calls breaks here rather than at benchmark time.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Differential fuzz smoke: random guests, hosts and op streams through the
# map-based oracle, State, StreamValidator and ValidateSharded (every shard
# count and window) for 30 s. Any verdict divergence or panic fails. Then
# the two decoders (graph JSON, UPB1), the
# X-Uninet-Trace header parser and the Prometheus text parser that
# `uninet trace` runs on a peer's /metrics for 10 s each: malformed input
# must be an error, never a panic or an out-of-memory crash. Then the
# chunk step codec for 10 s: decoded steps must re-encode to the reference
# encoder's bytes. Then the routers' packet loop for 30 s, since its
# reference is what guards the edge queues: on small connected graphs it
# must match the map-based reference loop result for result and error for
# error, and make the reference's hop calls in order, less, under
# fixed-hop rules, each packet's repeats from the node it last asked from. Then /v1 request decoding plus Validate for 10 s: nothing may
# panic, and an accepted small request's host, guest and route pattern
# must build, failing only by random-generation chance. Last, the stub
# matcher for 10 s: on degree sequences of at most 48 vertices, with or
# without a forbidden edge set, it must return the reference matcher's
# graph or error from the same seed and leave the same next draw.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzLegalityEngines -fuzztime 30s ./internal/pebble
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSON$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 10s ./internal/pebble
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpanContext$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzStepCodec$$' -fuzztime 10s ./internal/pebble
	$(GO) test -run '^$$' -fuzz '^FuzzStepPackets$$' -fuzztime 30s ./internal/routing
	$(GO) test -run '^$$' -fuzz '^FuzzRequestValidate$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDegreeSequence$$' -fuzztime 10s ./internal/topology

bench:
	$(GO) test -bench=. -benchmem ./...

# BENCH_RUN runs every benchmark into the file named by the shell variable
# raw, which bench-json and bench-compare then convert with benchjson. It
# writes a file, not a pipe into benchjson, because sh has no pipefail: a
# pipe would hide a failing or panicking benchmark. On failure it prints the
# output and exits.
BENCH_RUN = if ! $(GO) test -bench=. -benchmem -run=^$$ ./... > $$raw; then \
	cat $$raw; rm -f $$raw; echo "benchmarks failed"; exit 1; fi

# Machine-readable benchmark baseline: BENCH_<date>.json maps each benchmark
# name to ns/op, B/op, and allocs/op (see README "Benchmark baselines"),
# and its "stamp" key names the machine and commit. `go run` stamps the
# commit into benchjson only with -buildvcs=true.
bench-json:
	@raw=$$(mktemp); $(BENCH_RUN); \
	out=BENCH_$$(date +%Y-%m-%d).json; \
	$(GO) run -buildvcs=true ./cmd/benchjson < $$raw > $$out; status=$$?; rm -f $$raw; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	echo "wrote $$out"

# Regression gate: measure afresh and diff against the newest committed
# BENCH_*.json baseline. Exits non-zero when any benchmark fails or panics,
# or when any shared benchmark exceeds the explicit tolerances above
# (ns/op +$(BENCH_TOL_NS)%, B/op +$(BENCH_TOL_BYTES)%,
# allocs/op +$(BENCH_TOL_ALLOCS)%). Required in CI.
bench-compare:
	@base=$$(ls BENCH_*.json 2>/dev/null | sort | tail -1); \
	if [ -z "$$base" ]; then echo "no committed BENCH_*.json baseline"; exit 1; fi; \
	echo "comparing against $$base"; \
	raw=$$(mktemp); $(BENCH_RUN); \
	tmp=$$(mktemp); \
	$(GO) run -buildvcs=true ./cmd/benchjson < $$raw > $$tmp || { rm -f $$raw $$tmp; exit 1; }; \
	$(GO) run ./cmd/benchjson -compare $$base $$tmp \
		-tol-ns $(BENCH_TOL_NS) -tol-bytes $(BENCH_TOL_BYTES) -tol-allocs $(BENCH_TOL_ALLOCS); \
	status=$$?; rm -f $$raw $$tmp; exit $$status

# CI smoke: every benchmark must still run (one iteration), catching bit-rot
# in the bench harness without paying for full measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Streaming-scale smoke: n=10⁵ build+validate through the streaming
# pipeline with one and with two validator shards, under a hard Go heap
# budget. Asserts peak resident chunk bytes stay within budget + one open
# chunk, that the one-shard run prints the pinned stream fingerprint, and
# that the two-shard run matches it (see scripts/bigsim_smoke.sh).
bigsim-smoke:
	sh scripts/bigsim_smoke.sh

# End-to-end service smoke: serve + uninetload, asserting zero errors,
# cache hits in the warm phase, and at least one 429 under an over-capacity
# burst (see scripts/load_smoke.sh).
load-smoke:
	sh scripts/load_smoke.sh

# Fault-tolerance smoke: three serve nodes in a full mesh, warm forwarded
# traffic, then a seeded SIGKILL of one node mid-run. Every request must
# succeed (survivors fail over to local compute), responses must stay
# consistent, and survivors must report the dead peer open-circuited (see
# scripts/cluster_smoke.sh).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Tracing smoke: three tracing nodes under slow-net forwarded load with
# client-stamped trace IDs. Asserts valid Prometheus /metrics, a fired
# slow-request watchdog with an automatic CPU capture, a live runtime
# sampler, and at least one cross-node joined trace after a graceful stop
# (see scripts/trace_smoke.sh).
trace-smoke:
	sh scripts/trace_smoke.sh

# Red-blue cost-model smoke: one r-sweep on a wrapped-butterfly host,
# asserting the trade-off the model exists to show — per eviction policy,
# I/O strictly grows as the red budget shrinks while compute and stores
# stay exactly constant, and unbounded red never reloads. The oracle test
# re-certifies Belady against the brute-force optimum on small DAGs.
redblue-smoke:
	$(GO) run ./cmd/uninet redblue -assert-monotone-io -seed 1
	$(GO) test -run TestOracleMatchesBeladyReplay ./internal/redblue/

# Run the full E1..E24 evaluation suite and print every table + figure.
# Pass flags through REPORT_FLAGS, e.g. `make report REPORT_FLAGS="-parallel 0"`.
report: build
	$(GO) run ./cmd/uninet report $(REPORT_FLAGS)

# Rewrite the report that TestReportGolden (cmd/uninet) pins. Run it after
# an intended change to an experiment's output and commit the diff.
REPORT_GOLDEN = cmd/uninet/testdata/report_seed7.golden
report-golden:
	$(GO) run ./cmd/uninet report -seed 7 -parallel 1 > $(REPORT_GOLDEN).tmp
	mv $(REPORT_GOLDEN).tmp $(REPORT_GOLDEN)

# Run the six examples (about 2 s together). They build graphs the way a
# user of the facade does, through the Builder and the stub matcher, so
# CI's test job runs them after `make test`; `make check` only compiles them.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/lowerbound
	$(GO) run ./examples/dependencytree
	$(GO) run ./examples/butterflyhost
	$(GO) run ./examples/cellular
	$(GO) run ./examples/pebbleanalysis

cover:
	$(GO) test ./... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out uninet
