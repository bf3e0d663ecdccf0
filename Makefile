GO ?= go

.PHONY: check build vet test race fuzz bench bench-vet golden chaos chaos-scale chaos-churn soak lint

# check is the CI entry point: vet, build, full test suite, the ledger's own
# module, bench smoke run.
check: vet build test bench-vet bench

# lint is the repo's static-analysis gate: a gofmt check, go vet, and the
# in-tree analyzer suite (tools/morpheuslint — wallclock, mapiter,
# borrowedbuf, goactor; see DESIGN.md "Static analysis") over both wire
# planes. The tree must be lint-clean: every legitimate wall-only site
# carries a justified //lint:<analyzer>-ok directive, and the linter
# rejects empty, unknown, and unused directives.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags morpheus_portable ./...
	$(GO) run ./tools/morpheuslint ./...
	$(GO) run ./tools/morpheuslint -tags morpheus_portable ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector in short mode (socket-bound
# udpnet tests skip themselves under -short, keeping the job reliable).
race:
	$(GO) test -race -short ./...

# fuzz gives each native fuzz target a short budget beyond its seed corpus
# (which plain `go test` already runs): the udpnet datagram parser, the
# reliable layer's handling of sequence numbers, NACK ranges and stability
# vectors off the wire, and Core's decoders of the deployment record and the
# membership announcements. The minimizer is capped so the budget is spent on
# new inputs; a crasher is written to the package's testdata/fuzz — commit it.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/netio/udpnet -run '^$$' -fuzz '^FuzzHandleDatagram$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/group -run '^$$' -fuzz '^FuzzNakWire$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzCoreWire$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s

# golden replays the virtualized experiments (figure3, E5, E6, E9, E10)
# three times each and checks the counter-matrix hashes against the pins in
# internal/experiment/testdata/golden.json. Regenerate pins after an
# intentional behavior change with:
#   go test ./internal/experiment -run TestGoldenReplay -update-golden
golden:
	$(GO) test ./internal/experiment -run TestGoldenReplay -count=1 -v

# chaos sweeps 1000 seeded fault schedules (E12) on virtual time and checks
# the full invariant suite per run — ~50 s wall. A failing seed is a
# complete failure artifact; reproduce it with:
#   go run ./cmd/morpheus-bench -replay <seed>
chaos:
	$(GO) run ./cmd/morpheus-bench -run chaos -seeds 1000 -seed 1

# chaos-scale is the scheduler-pool population smoke: the same fault
# schedules while every node additionally hosts 1000 quiet groups on the
# shared worker pool. Invariants must hold exactly as without them, and
# crash-stops exercise pooled teardown at population scale.
chaos-scale:
	$(GO) run ./cmd/morpheus-bench -run chaos -seeds 50 -seed 2001 -groups 1000

# chaos-churn is the membership-lifecycle sweep (E12b): the same seeded
# fault schedules with two graceful-churn waves appended per seed — a fresh
# group bootstrapped without one member, that member folded in late via
# JoinVia state transfer, flooded, and departed gracefully mid-run (the
# survivors must drain their send windows within a stability round).
# Reproduce a failing seed with:
#   go run ./cmd/morpheus-bench -replay <seed> -churns 2
chaos-churn:
	$(GO) run ./cmd/morpheus-bench -run churn -seeds 300 -seed 1 -churns 2

# soak exercises the real-socket wire plane end to end: the live demo (UDP
# on localhost, batched coalescer + vectored syscalls on by default) runs
# repeatedly. Each round covers the full membership lifecycle across four
# OS processes — the bootstrap trio runs reliable multicast in two groups
# plus a live plain->mecho reconfiguration, a fourth process then joins the
# *running* group late through a seed member (-join-via semantics: state
# transfer, gap-free start at the frontier), and one member is SIGTERMed
# mid-run so its graceful leave must converge the survivors' views well
# under the failure-detection threshold. IP-multicast is not required (the
# demo is unicast on 127.0.0.1); rounds with `make soak SOAK_ROUNDS=20`.
SOAK_ROUNDS ?= 5
soak:
	@i=1; while [ $$i -le $(SOAK_ROUNDS) ]; do \
		echo "soak: round $$i/$(SOAK_ROUNDS)"; \
		$(GO) run ./examples/live || exit 1; \
		i=$$((i+1)); \
	done

# bench runs every benchmark once as a smoke test (catches bit-rot without
# paying for stable numbers). The recorded numbers are the cast-path ledger:
# `bash bench/run.sh --all`, see bench/README.md.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-vet builds and short-tests the ledger. bench/ is its own module, so
# the root `./...` targets never compile it: this is where an internal-API
# change that breaks the benchmark's frozen surface shows up before push.
bench-vet:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
