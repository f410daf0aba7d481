# Local targets mirror .github/workflows/ci.yml step for step, so a green
# `make check` locally means a green CI run.

GO ?= go

# The staticcheck version CI pins; the lint workflow installs exactly this
# (via `make -s print-staticcheck-version`) so the Makefile is the single
# source of truth for the linter toolchain.
STATICCHECK_VERSION ?= 2025.1

.PHONY: build test test-short test-full golden-check golden-update flake-check swarm-smoke soak fuzz-smoke bench-smoke bench bench-compare overlap fmt vet bartervet docs-check lint print-staticcheck-version size check

# The deterministic packages — the bartervet allowlist. Mirrored by
# TestDeterministicPackagesAreClean and docs/DETERMINISM.md; change all
# three together.
DETERMINISTIC_PKGS = ./internal/sim ./internal/eventq ./internal/index \
	./internal/core ./internal/credit ./internal/strategy \
	./internal/workload ./internal/experiment ./internal/runner \
	./internal/rng ./internal/metrics

build:
	$(GO) build ./...

## test-short: the race-enabled quick suite CI runs on every push.
test-short:
	$(GO) test -race -short ./...

## test: the full suite (figure sweeps included), no race detector.
test:
	$(GO) test ./...

## test-full: full suite exactly as CI's long job runs it.
test-full:
	$(GO) test -count=1 ./...

## golden-check: the byte-identity oracle (ROADMAP Open item 3). Regenerates
## `exchsim -all -quick` and paper-scale `exchsim -experiment fig4` at seeds 1
## and 7, paper-scale `figw` and `ablation-credit` at seed 1, and the
## `exchsim -trace` replay of testdata/golden/wave-flash.trace, each at
## -parallel 1 and -parallel 8, and cmps all fourteen outputs against
## testdata/golden/; a step of CI's full-tests job (~35 s on 2 cores).
golden-check:
	./scripts/golden.sh check

## golden-update: the only way the goldens move. The commit that runs it
## names in CHANGES.md which series moved and why.
golden-update:
	./scripts/golden.sh update

## flake-check: "green" means every run out of every run under -race, not
## "usually" (ROADMAP aim 3). The node suite is where the live stack's
## scheduling races surface first — lane grants, stall recovery, audits, ring
## commits — so CI runs it a hundred times on every push, next to swarm-smoke;
## transport, mediator and medclient — the packages whose buffers a block now
## passes through without being copied — run fifty times each (seconds apiece).
## The swarm suite runs ten times (~60 s on 2 cores): the send window (PR 25)
## sets the timing of every unpaced scenario it drives (flashcrowd, mixed,
## churn, cheater, wave).
flake-check:
	$(GO) test -race -short -count=100 ./internal/node
	$(GO) test -race -short -count=50 ./internal/transport ./internal/mediator ./internal/medclient
	$(GO) test -race -short -count=10 ./internal/swarm

## swarm-smoke: the twelve race-enabled live-network scenario lines CI runs
## on every push — a 120-node flash crowd in memory and again over TCP
## (every downloader queues behind a few seeds, so the standby providers a
## stalled download asks one at a time are asked under real queues, with the
## codec in the path), a 100-node churn run (60 close/restart cycles), a
## 120-node cheater run (junk rejected block by block against the digests;
## its nodes use no mediator, so it starts no tier), the same cheater mix
## with downloads striped across 3 origins on the plain lane path, a medfail
## run that kills mediator shards mid-run (each stays down for half the kill
## interval, so siblings drop records and clients fail over), the same
## striped across 3 origins on the mediated path (per-origin escrow and
## audits), again at full size (64-block objects, whose lanes queue at the
## one honest seed long past the stall window: a verified lane must survive
## the wait), the same unstriped over a durable tier (-meddata: WAL replay
## on every restart, then a restart of the whole tier from its logs), a
## 100-node medfail run over TCP with the default kills (every shard
## restarts at least once and must re-bind its own port, or every mediated
## upload strands), an 80-node adversary run (adaptive flips, whitewash
## identity churns) and a 60-node wave run whose "waves" spec has an early
## cohort depart, so shutdown, backpressure, striping, failover, durability
## and every kind of event the fault schedule plays stay exercised outside
## the unit suite too. exchswarm's exit status is the verdict
## (swarm.Result.Err): a failed download, a cheater the nodes' own audits
## left unflagged on a medfail run, a lost flag or a flagged honest peer
## fails the target.
swarm-smoke:
	$(GO) run -race ./cmd/exchswarm -scenario flashcrowd -nodes 120 -quick
	$(GO) run -race ./cmd/exchswarm -scenario flashcrowd -nodes 120 -tcp
	$(GO) run -race ./cmd/exchswarm -scenario churn -nodes 100 -restarts 60 -quick
	$(GO) run -race ./cmd/exchswarm -scenario cheater -nodes 120 -quick
	$(GO) run -race ./cmd/exchswarm -scenario cheater -nodes 80 -stripe 3 -quick
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 80 -mediators 4 -quick
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 80 -mediators 4 -stripe 3 -quick
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 80 -mediators 4 -stripe 3
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 80 -mediators 4 -meddata "$$(mktemp -d)" -quick
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 100 -mediators 4 -tcp
	$(GO) run -race ./cmd/exchswarm -scenario adversary -nodes 80 -quick
	$(GO) run -race ./cmd/exchswarm -scenario wave -nodes 60 -workload waves -quick

## soak: the scheduled long-haul lane (.github/workflows/soak.yml) — a
## longer race-enabled medfail failover run than the per-push smoke, over
## in-memory shards (a restart forgets, and a cheater counts as flagged once
## the tier was seen to flag it), the same
## over TCP (restarted shards re-bind their ports), and over a durable tier
## (restarts must forget nothing).
soak:
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 120 -mediators 4 -medkills 10 -quick -v
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 120 -mediators 4 -medkills 10 -quick -tcp -v
	$(GO) run -race ./cmd/exchswarm -scenario medfail -nodes 120 -mediators 4 -medkills 10 -meddata "$$(mktemp -d)" -quick -v

## fuzz-smoke: a short native-fuzzing pass over the wire codec; CI runs it
## in the short job so every push hammers DecodeBuf with fresh mutated
## frames.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/protocol

## bench-smoke: every Go microbenchmark (`func Benchmark*`) run for one
## iteration, so one that stops compiling or starts panicking fails CI's
## short job. One iteration times nothing; docs/PERF.md's ns/op come from
## `-benchtime 1s -count N` runs (~8 s on 2 cores).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench: the repository's one benchmark (BENCHMARK.json, bench/README.md) —
## all six workloads in interleaved rounds, then the traced round and the
## layer probes; results land in bench/out/latest.json. A PR's trajectory
## point BENCH_<pr>.json is a copy of that file.
bench:
	$(GO) run ./bench -seed 1

## bench-compare: the regression gate CI's bench-track job runs — paired
## runs of BASE and of the working tree, alternating order, failing only on
## a (workload, metric) that regressed in a majority of the pairs
## (scripts/bench-compare.sh), e.g.
## `make bench-compare BASE=HEAD~1 WORKLOAD=sim-fig4-rings PAIRS=10`.
BASE     ?= HEAD
WORKLOAD ?= all
SEED     ?= 1
bench-compare:
	./scripts/bench-compare.sh $(BASE) $(WORKLOAD) $(SEED)

## overlap: the check a deliberate behavior change runs before
## golden-update — paper-scale fig4, fig5, fig6 and figw at -replicas 10
## -seed 1, built at BASE and from the tree; prints and fails on every
## (experiment, x, series) whose 95 % intervals do not overlap
## (scripts/overlap.sh, ~40 s per side on 2 cores; not a CI step), e.g.
## `make overlap BASE=HEAD~1`.
overlap:
	./scripts/overlap.sh $(BASE)

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## vet: run with the race build tag so vet sees exactly the file set the
## race-enabled short suite compiles.
vet:
	$(GO) vet -tags race ./...

## bartervet: the repository's analyzers (docs/DETERMINISM.md).
## Map-order, wall-clock/global-rand, and pointer-identity dependence are
## errors in the deterministic packages; swallowed Write/Sync/Close errors
## are errors on the mediator durability and codec paths. deadcode loads the
## program alone (ROADMAP item 13): a package under internal/ that nothing
## imports, or an exported internal/ symbol that no non-test file of
## ./internal and ./cmd uses, is an error. doc wants a package doc comment
## everywhere and a doc comment on every export. Exceptions carry a
## `//barter:allow <check> <reason>` waiver; stale waivers fail too.
bartervet:
	$(GO) run ./internal/tools/bartervet -checks maprange,walltime,ptrorder $(DETERMINISTIC_PKGS)
	$(GO) run ./internal/tools/bartervet -checks unchecked-io ./internal/mediator ./internal/protocol
	$(GO) run ./internal/tools/bartervet -checks deadcode ./internal ./cmd
	$(GO) run ./internal/tools/bartervet -checks doc ./internal ./cmd .

## docs-check: smoke-run every `go run ./cmd/...` line the ROADMAP
## quickstart advertises (-h per command, -list lines verbatim) so the
## docs cannot drift ahead of the CLIs, compare `exchswarm -list` with the
## scenario set docs/ARCHITECTURE.md names and cmd/ with its Entry points
## table, and read every committed BENCH_*.json trajectory point back
## through `go run ./bench -compare`.
docs-check:
	./scripts/docs-check.sh

## lint: gofmt + vet + bartervet (all hard failures), plus staticcheck's
## correctness analyses (SA*) when the binary is available. Locally a
## missing staticcheck only warns, so the target
## works in hermetic environments without network access; CI runs with
## LINT_STRICT=1, where a missing binary is a hard failure — the lint job
## must never silently skip its own linter.
lint: fmt vet bartervet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks 'SA*' ./...; \
	elif [ "$(LINT_STRICT)" = "1" ]; then \
		echo "lint: staticcheck not installed and LINT_STRICT=1"; exit 1; \
	else \
		echo "lint: staticcheck not installed; ran gofmt, go vet and bartervet only"; \
	fi

## size: non-test Go lines per package and their total outside bench/ — the
## numbers ROADMAP's *Size* bullet and item 13 quote (scripts/size.sh).
size:
	./scripts/size.sh

## print-staticcheck-version: the pinned linter version, for CI to install.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

check: build fmt vet test-short
