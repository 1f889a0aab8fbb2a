GO ?= go
# FUZZTIME bounds each fuzz target's smoke run inside ci; raise it for real
# exploration sessions (e.g. make fuzz-smoke FUZZTIME=10m).
FUZZTIME ?= 10s

.PHONY: ci vet build test race verify-props bench-smoke bench-scale-smoke bench-e2e-smoke bench-full-smoke bench-snapshot chaos-smoke fuzz-smoke scenario-smoke obs-smoke clean

# ci is the tier-1 gate (see ROADMAP.md): everything must pass before a
# change lands.
ci: vet build test race verify-props chaos-smoke fuzz-smoke bench-smoke bench-scale-smoke bench-e2e-smoke bench-full-smoke scenario-smoke obs-smoke

# vet also fails on any tracked Go file that gofmt would change, bench/
# included; the untracked .bench_build/ is not listed.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -z '*.go' | xargs -0 -r gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order so inter-test state
# dependencies can't hide; the shuffle seed is printed on failure.
test:
	$(GO) test -shuffle=on ./...

# race re-runs the suite under the race detector; the concurrent paths
# (market.RunReplications, experiments.forEachPoint, the WAL decoder
# goroutine) carry differential tests that exercise them.
# quality.ObserveBatch is no longer concurrent: it batches EM through the
# lane kernel on the calling goroutine.
race:
	$(GO) test -race ./...

# verify-props re-runs the mechanism-verification suite on its own: the
# internal/verify checkers' self-tests (truthfulness probes, differential
# oracles, counterexample shrinker) and the property tests that call them
# from internal/core. See TESTING.md for the invariant catalog.
verify-props:
	$(GO) test ./internal/verify/ ./internal/core/ -count 1

# bench-smoke runs every benchmark once — a compile-and-liveness check, not
# a measurement.
bench-smoke:
	$(GO) test . -run '^$$' -bench . -benchtime 1x

# bench-scale-smoke single-shots the n=10^5 auction-scale kernels through
# the real melody-bench harness (full build, stateful kernel, incremental
# churn): a liveness gate for the million-worker auction path without the
# multi-minute n=10^6 kernels. -smoke writes no snapshot.
bench-scale-smoke:
	$(GO) run ./cmd/melody-bench -smoke -filter '^alloc/melody(_state|_inc|_scratch)?/n100000($$|_)'

# chaos-smoke re-runs the seeded fault-injection suite on its own: the
# chaos harness unit tests, the 20-run soak season with a mid-season kill
# and WAL recovery (internal/platform/chaos_soak_test.go), and the
# segmented-engine soaks with mid-segment / mid-rotation / mid-snapshot
# kills and primary-kill replica promotion
# (internal/platform/segmented_soak_test.go). A -run pattern that matches
# nothing still exits 0, so the target also fails unless each of the three
# soaks reports "--- PASS" in the -v output: a renamed soak cannot drop
# out of the gate unnoticed.
chaos-smoke:
	@out=$$($(GO) test ./internal/chaos/ ./internal/platform/ -run 'TestChaosSoakSeason|TestSegmentedChaosSoakSeason|TestReplicaPromotionSoak|TestTransport|TestMiddleware|TestFailpoints' -count 1 -v 2>&1); \
	status=$$?; echo "$$out"; [ $$status -eq 0 ] || exit $$status; \
	for soak in TestChaosSoakSeason TestSegmentedChaosSoakSeason TestReplicaPromotionSoak; do \
		echo "$$out" | grep -q "^--- PASS: $$soak " || { echo "chaos-smoke: $$soak did not run and pass"; exit 1; }; \
	done

# fuzz-smoke gives each native fuzz target a short budget on top of its
# committed seed corpus (testdata/fuzz/ in each package); any crasher is a
# hard failure. See TESTING.md for how to run longer sessions and how to
# promote new corpus entries.
fuzz-smoke:
	$(GO) test ./internal/verify/ -run '^$$' -fuzz '^FuzzMelodyAuction$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/verify/ -run '^$$' -fuzz '^FuzzIncrementalAuction$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventlog/ -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventlog/ -run '^$$' -fuzz '^FuzzRecordDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventlog/ -run '^$$' -fuzz '^FuzzSegmentHeaderDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/eventlog/ -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger/ -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz '^FuzzRunArchive$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/platform/ -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lds/ -run '^$$' -fuzz '^FuzzKalmanFilter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lds/ -run '^$$' -fuzz '^FuzzEMStats$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lds/ -run '^$$' -fuzz '^FuzzEMLanes$$' -fuzztime $(FUZZTIME)

# scenario-smoke runs every load scenario through the one loadgen harness
# (internal/loadgen), each of which checks the books (money conserved,
# escrow and epoch pool drained, tenant quotas, every run completed) and
# goroutine leaks:
#   - the closed loop over the real serving path (loopback HTTP, WAL
#     group-commit backend, batched bids): work accepted, runs completed,
#     clean shutdown;
#   - the overload SLO gate (TESTING.md "The SLO gate"): calibrate the
#     machine's ungated capacity, then a rated run (shedding rare, bounded
#     tail) and a 3x overload (shedding engages, every run settles);
#   - the serve/overload kernels through melody-bench (-smoke writes no
#     snapshot);
#   - multirun, 2 tenants x 4 runs over HTTP, serially then concurrently:
#     every run's outcome byte-identical across the passes;
#   - fairness, 8 quota-bounded tenants closing in synchronized volleys
#     behind the weighted-fair gate: max/min per-tenant median close latency
#     <= 2, every over-quota open refused, spend equal to the ledger outflow,
#     quotas surviving WAL replay, outcomes byte-identical to serial.
scenario-smoke:
	$(GO) run ./cmd/melody-load -backend wal -workers 8 -runs 2 -bids-per-worker 4 -batch 4 -seed 1 -check
	$(GO) run ./cmd/melody-load -scenario slo-smoke -duration 1s
	$(GO) run ./cmd/melody-bench -smoke -filter '^serve/overload'
	$(GO) run ./cmd/melody-load -scenario multirun -tenants 2 -runs 4 -workers 8 -epoch-every 2 -seed 1 -check
	$(GO) run ./cmd/melody-load -scenario fairness -seed 1 -check

# bench-e2e-smoke vets and tests the end-to-end benchmark in bench/, its own
# module, which the targets above never compile: every workload runs at 2%
# scale with all of its correctness checks, so a change to an identifier
# the benchmark uses fails here rather than when the benchmark is next run.
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-full-smoke runs each end-to-end workload once at full history
# scale, with 2-second windows and no traced pass, and fails on a non-zero
# exit: a failed request, boot, history write or correctness check.
# bench-e2e-smoke's 2% scale cuts bids_open_r1000 to one history run per
# tenant, so only this target replays the histories a benchmark run does.
# Each workload takes about 3-5 s; the tables go to stdout.
BENCH_WORKLOADS = lifecycle_wal bids_open_r1000 auction_wal recovery_wal
bench-full-smoke:
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench-full-smoke: $$w"; \
		bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || { echo "bench-full-smoke: $$w failed"; exit 1; }; \
	done

# obs-smoke boots the real melody-platform binary with -metrics and a WAL,
# drives one complete run over HTTP, and scrapes /metrics + /debug/traces,
# failing unless the documented series and lifecycle spans are present; it
# then boots the binary on -wal-dir with a snapshot per record, drives the
# run, stops and reboots it, and fails unless the reboot replayed no record
# and serves the run's outcome unchanged (cmd/melody-obs-smoke; no curl
# needed).
obs-smoke:
	$(GO) run ./cmd/melody-obs-smoke

# bench-snapshot records a full BENCH_<n>.json regression snapshot against
# the latest committed one (see cmd/melody-bench). Includes the serve/
# kernels, which re-measure serving-path throughput via internal/loadgen.
bench-snapshot:
	$(GO) run ./cmd/melody-bench -baseline $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)

clean:
	$(GO) clean ./...
