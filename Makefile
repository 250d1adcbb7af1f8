GO ?= go
FUZZTIME ?= 10s

.PHONY: build test bench-test microbench ci lint fuzz-smoke e2e soak-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test runs the end-to-end benchmark harness's own tests. bench/ is a
# nested module, so the root `go test ./...` never reaches it; these tests
# drive every workload at test size, including the churn workload's
# repair-ladder rung counts.
bench-test:
	cd bench && $(GO) test ./...

microbench:
	$(GO) test -bench=. -benchmem ./...

# soak-smoke drives the sustained-churn harness's full test suite under the
# race detector: seeded add/remove/reroute/re-budget streams with node-fault
# batches against a live grid, concurrent runs over the shared scratch
# pools, and the replay oracle asserting zero schedule drift throughout.
# The server half is the multi-worker queue sweep (four schedule jobs plus
# two simulate jobs on a Workers=4 pool, each schedule compared byte for
# byte against a serial in-process run), and the scheduler half pins the
# indexed schedulers byte-identical to the reference scans and runs delta
# churn streams on distinct grids at once, through the shared pooled
# scratch, each equal to its serial replay. The jobs half
# runs simulate, converge, manage and reschedule jobs concurrently on one
# network's shared Testbed and compares every part with a serial run.
# `wsansim soak` runs the same churn harness at evaluation scale (500 flows);
# its flag handling (TestSoakRejectsBadConfig, matched by TestSoak) runs here
# too.
soak-smoke:
	$(GO) test -race -count=1 -run 'TestSoak|TestQueueSweepMultiWorker|TestScanVsIndexIdentical|TestConcurrentJobsShareTestbed|TestConcurrentDeltaGrids' \
		./internal/soak/ ./internal/server/ ./internal/scheduler/ ./internal/jobs/ ./cmd/wsansim/

# lint runs go vet always, on the root module and on the nested bench/
# module that `go vet ./...` at the root never reaches, and staticcheck when
# it is on PATH. Locally the staticcheck half degrades to a notice so a bare
# toolchain still passes; the GitHub workflow installs staticcheck, making
# it blocking there. It also enforces that wsanclient imports no other
# package of this module: the daemon encodes the client's wire types, so
# the dependency must only ever point from the server to the client.
lint:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@deps=$$($(GO) list -deps ./wsanclient | grep -E '^wsan(/|$$)' | grep -vx 'wsan/wsanclient'); \
	if [ -n "$$deps" ]; then \
		echo "wsanclient must depend on the standard library only; it pulls in:"; \
		echo "$$deps"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

# ci is the tier-1+ gate: formatting, lint, the short test set under the
# race detector, one iteration of every scheduler, schedule, radio and
# analysis benchmark (so a benchmark that panics or no longer builds fails here,
# about a second), and the benchmark harness's tests. Run it before sending
# changes.
ci: lint
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) test -race -short ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/scheduler ./internal/schedule ./internal/radio ./internal/analysis
	$(MAKE) bench-test

# e2e starts a real daemon and drives it over the wire with the wsanclient
# SDK. Phase 1 (examples/stream): register a network, run a schedule job,
# then a manage job whose per-iteration health verdicts must arrive on the
# SSE stream before the job completes. Phase 2 (examples/persist): prime a
# schedule artifact into the durable store, RESTART the daemon over the
# same -store-dir, and assert the resubmitted job is a disk-served cache
# hit — same artifact, byte-identical part, server.cache.hits >= 1 and
# server.cache.stored == 0 (no recompute). The examples wait for the
# daemon to come up; daemons and the store are torn down whatever the
# outcome.
E2E_ADDR ?= 127.0.0.1:18080
e2e:
	@$(GO) build -o /tmp/wsansim-e2e ./cmd/wsansim
	@dir=$$(mktemp -d /tmp/wsansim-e2e.XXXXXX); \
	trap 'kill $$pid 2>/dev/null; rm -rf $$dir' EXIT; \
	/tmp/wsansim-e2e serve -addr $(E2E_ADDR) -workers 2 -queue 16 -store-dir $$dir/store & \
	pid=$$!; \
	$(GO) run ./examples/stream -addr http://$(E2E_ADDR) -timeout 90s || exit 1; \
	$(GO) run ./examples/persist -addr http://$(E2E_ADDR) -mode prime -state $$dir/state.json -timeout 60s || exit 1; \
	kill $$pid; wait $$pid 2>/dev/null; \
	/tmp/wsansim-e2e serve -addr $(E2E_ADDR) -workers 2 -queue 16 -store-dir $$dir/store & \
	pid=$$!; \
	$(GO) run ./examples/persist -addr http://$(E2E_ADDR) -mode verify -state $$dir/state.json -timeout 60s

# fuzz-smoke gives every fuzz target a short budget ($(FUZZTIME) each) —
# enough to catch regressions in the decoder hardening (the schedule
# decoder's canonical-form fast path must also give exactly the
# encoding/json reference's result or error on any input), in the PHY's
# saturation shortcut (bit-identical to the full BER series), in the
# simulator's per-frame decision (for any draw, signal, denominator and
# frame length, the PRR bound tables decide exactly as draw < PRR, and the
# reference PRR lies between any bounds they claim), in whole slots through
# Env.Evaluate (for any slot shape, path gains, non-finite and beyond the
# ±300 dBm guard included, noise floor, interference factor and external
# power, every outcome and the next random draw equal the reference's), in the
# hoisted delay-bound fixed point (identical to the reference analysis),
# in the dense latency table (for duplicate flow IDs, unlisted flows, stray
# or missing instances and over-long periods, the reference's exact result
# or error text),
# in job parameter canonicalization (never panics; canonical forms are
# fixed points), in the SDK's SSE decoder (never panics; reports exactly
# what it delivered; fails only on undecodable events), and in the
# artifact store's blob table (every Get matches a map model; refcounts
# match the resident parts after every operation), in the schedule's
# indexes (after any Place/Remove/RemoveFlow/Reset/Clone sequence every
# cell lists its occupants in placement order, the packed link column,
# busy, occupancy and slot-full bitsets agree with the transmission list,
# Validate's verdict matches the reference's, and Diff matches the two-set
# reference's delta), and in the delta
# engine (after any batch of add/remove/reroute/rebudget/repair/compact ops,
# told all or part of the workload, a failed batch
# leaves the grid as it was, Apply(Invert(Changes)) undoes a successful
# one, and no flow missing from the workload loses a transmission), in the
# delta journal's netting (on any place/remove journal of a valid grid,
# with slots anywhere below 2^31 - 1, schedule.NetJournal's net equals the
# map-and-SortChanges reference byte for byte),
# and in the link survey's step table (for random receiver settings, the
# table returns exactly the reference measuredPRR at random powers and
# around its own edges, falling back to the BER series wherever its
# certificate does not hold), and in the detour router (on random
# ascending-built graphs, the masked BFS returns exactly the minimum-hop
# path of a copy rebuilt without the avoided nodes, for every endpoint pair
# and for avoid sets holding endpoints or out-of-range IDs), without
# stalling CI.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzLoadTestbed -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz=FuzzLoadWorkload -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz=FuzzLoadSchedule -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz=FuzzLoadFaultScenario -fuzztime=$(FUZZTIME) .
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/schedule
	$(GO) test -run=^$$ -fuzz=FuzzScheduleOps -fuzztime=$(FUZZTIME) ./internal/schedule
	$(GO) test -run=^$$ -fuzz=FuzzDeltaOps -fuzztime=$(FUZZTIME) ./internal/scheduler
	$(GO) test -run=^$$ -fuzz=FuzzJournalNet -fuzztime=$(FUZZTIME) ./internal/scheduler
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -run=^$$ -fuzz=FuzzShortestPathAvoiding -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run=^$$ -fuzz=FuzzSurveyPRR -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -run=^$$ -fuzz=FuzzKSTest -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=^$$ -fuzz=FuzzQuantile -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -run=^$$ -fuzz=FuzzPRR802154 -fuzztime=$(FUZZTIME) ./internal/radio
	$(GO) test -run=^$$ -fuzz=FuzzPRRDecision -fuzztime=$(FUZZTIME) ./internal/radio
	$(GO) test -run=^$$ -fuzz=FuzzEvaluate -fuzztime=$(FUZZTIME) ./internal/radio
	$(GO) test -run=^$$ -fuzz=FuzzDelayAnalysis -fuzztime=$(FUZZTIME) ./internal/analysis
	$(GO) test -run=^$$ -fuzz=FuzzLatencies -fuzztime=$(FUZZTIME) ./internal/analysis
	$(GO) test -run=^$$ -fuzz=FuzzCanonicalParams -fuzztime=$(FUZZTIME) ./internal/jobs
	$(GO) test -run=^$$ -fuzz=FuzzStreamRelay -fuzztime=$(FUZZTIME) ./wsanclient
	$(GO) test -run=^$$ -fuzz=FuzzStoreOps -fuzztime=$(FUZZTIME) ./internal/server/storage
