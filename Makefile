# Convenience targets for the UTS load-balancing reproduction.

GO ?= go

.PHONY: all build test race short bench-smoke gates ab cluster-stress experiments experiments-full clean lint shape fuzz-smoke fingerprints

all: build test

# Static checks beyond the structural rules (those run in `go test ./...`,
# see shape below): go vet's own checks (copylocks among them: an atomic
# word is a sync/atomic type, so a copy of one is a finding), then
# staticcheck and govulncheck when the binaries are installed (the CI lint
# job installs them; offline dev boxes may not). The off-is-nil contract
# and the zero-allocation hot paths are tests (DESIGN.md §11).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI runs it)"; \
	fi

# The structural rules — what exists once, and the greps that fail when a
# second one grows back (scripts/shape.sh, one shell function per rule),
# among them "Deterministic packages" and "Paired locks", which hold
# simulation code free of the wall clock, global rand state and new maps,
# and every lock section released on each exit. Tier-1 runs them
# (TestShapeRules, internal/bench); this target runs them alone.
shape:
	@bash scripts/shape.sh

# Seeded-corpus fuzz smoke: the -fault mini-language parser, arbitrary
# bytes on a served cluster connection (no panic, no wedged engine, request
# word and handoff ledger intact) and through the frame decoder alone (no
# panic, allocation bounded by the input, canonical frames), the address
# parser (no panic, what parses reads back from its String), the three
# spawn kernels against crypto/sha1 (the SHA-NI and AVX-512 legs self-skip
# without the CPU), and the ALFG spawns against the register loop that
# defines them.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseFaultSpec -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzServeConn -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzFrame -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzParseAddr -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzSpawnKernels -fuzztime=10s ./internal/rng/
	$(GO) test -run '^$$' -fuzz FuzzALFGKernels -fuzztime=10s ./internal/rng/

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# One iteration of every Benchmark* function, each in the package it
# measures: keeps them compiling and running, measures nothing. Rates and
# ratios are rows of BENCHMARK.json (`bash benchmark/run.sh`, DESIGN.md §17).
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# The opt-in gates behind the one switch UTS_GATES=1 (DESIGN.md §17):
# batched engine >= 4x the legacy reference (wall-clock), a record with a
# live sampler attached allocates nothing (a count: no spare core needed),
# adaptive from the worst chunk >= 0.95x the best (T3XXL on the batched
# engine, ~15 s), UTS's published T3L counts from UTS's root (~6 s),
# bench-huge's counts under both ALFG kernels (80 M nodes, ~8 s), and
# A1 at grain: steal-half reaches P/2 work sources before steal-one on
# bench-large at 64 PEs, chunks 1-8 (TestPaperClaims/A1, ~15 s).
# Then the paper tables at quick scale are regenerated and diffed against
# results/quick.txt (~30 s): every number in it but E1's section (wall-clock
# rates and the host's spawn kernels) and the `generated in` times is a
# deterministic function of the code, so a change that moves a DES number
# commits the regenerated file (`make experiments`) with it.
QUICK_CMP := /^\#\# /{skip = /^\#\# E1 /} !skip && !/^note: scale=quick, generated in /
gates:
	UTS_GATES=1 $(GO) test -count=1 -v -timeout 10m -run 'Gate$$|^TestUTSPublishedCounts$$|^TestCountsIdenticalUnderEveryKernel$$' ./internal/des/ ./internal/uts/ ./internal/rng/
	UTS_GATES=1 $(GO) test -count=1 -v -run '^TestPaperClaims$$/^A1$$' ./internal/bench/
	@mkdir -p bin
	$(GO) run ./cmd/uts-bench -scale quick > bin/quick.txt
	@awk '$(QUICK_CMP)' results/quick.txt > bin/quick.want
	@awk '$(QUICK_CMP)' bin/quick.txt | diff -u bin/quick.want - && echo "gates: results/quick.txt regenerates (E1 and the generation times aside)"

# Alternating parent/change pairs of the one benchmark command (DESIGN.md
# §17): `make ab PARENT=<checkout of the parent commit> WORKLOAD=<name>
# PAIRS=n [TRACE=1] [SECONDS=20] [METRICS='a b']`. Which side runs first
# flips every pair, seeds 1..n; prints every pair of every metric, the
# median of the pair ratios, the sign count and each side's own min–max
# across its runs (a side that spreads past the metric's bound cannot
# resolve a change of that size). No verdict and no ledger of
# its own: scripts/ab.sh only calls benchmark/run.sh in both checkouts, and
# keeps what it printed in results/ab/PR<n>-<workload>.txt (n from CHANGES.md,
# or PR=n) for the CHANGES entry to point at.
TRACE ?= 0
SECONDS ?= 20
ab:
	@PR="$(PR)" sh scripts/ab.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(TRACE)" "$(SECONDS)" $(METRICS)

# The load under which reserved work falling off the cluster's handoff
# ledger shows (DESIGN.md §10): one test binary, three copies at once so that
# ranks get descheduled mid-protocol, every fault scenario and the 4-rank
# steal test 20 times each (~2.5 min on 2 cores). Any copy that does not
# end in PASS — a failed test, a panic, a hang past the timeout — fails.
cluster-stress:
	$(GO) test -c -o bin/cluster.test ./internal/cluster/
	@cd internal/cluster && for i in 1 2 3; do \
		../../bin/cluster.test -test.run 'TestFault|TestFourRanksSteals' -test.count=20 -test.timeout 300s > ../../bin/cluster-stress.$$i.log 2>&1 & \
	done; wait
	@for i in 1 2 3; do \
		tail -n 1 bin/cluster-stress.$$i.log | grep -qx PASS || { cat bin/cluster-stress.$$i.log; exit 1; }; \
	done; echo "cluster-stress: 3 x 20 runs of every TestFault* and TestFourRanksSteals, all PASS"

# Simulator fingerprints of all eight simulatable algorithms — every des
# family: the six Figure-1 UPC variants, the mpi-ws baseline and static —
# as the uts-sim header line (events=..., wall= stripped) and summary over
# trees x PE counts x seeds, 360 deterministic runs (~40 s). A scheduler
# refactor that claims "byte-identical" shows it with one diff:
#   make -s fingerprints > /tmp/after.txt   (and the same in a checkout of
#   the parent commit), then diff the two files.
fingerprints:
	@$(GO) build -o bin/uts-sim ./cmd/uts-sim
	@for alg in upc-sharedmem upc-term upc-term-rapdif upc-term-relaxed upc-distmem upc-distmem-hier mpi-ws static; do \
	for tree in bench-tiny t3-small bench-medium; do \
	for pes in 1 2 7 64 256; do \
	for seed in 1 2 3; do \
		bin/uts-sim -tree $$tree -alg $$alg -pes $$pes -seed $$seed | sed 's/ wall=[^ ]*//'; \
	done; done; done; done

# Regenerate every paper table/figure at quick scale (~20 s on two cores).
experiments:
	$(GO) run ./cmd/uts-bench -scale quick -csv results/quick | tee results/quick.txt

# Largest trees and PE counts this reproduction runs (~1 h).
experiments-full:
	$(GO) run ./cmd/uts-bench -scale full -csv results/full | tee results/full.txt

clean:
	$(GO) clean ./...
