#!/bin/bash
# make shape: the structural rules of this repository, one function each —
# the things that exist once, and the greps that fail when a second one
# grows back. `make lint` runs them, CI runs `make shape`. Every rule runs
# even after one has failed; a failure names the rule and the DESIGN.md
# section that gives its reason.
cd "$(dirname "$0")/.." || exit 2

# One benchmark system: fails if the second one grows back. ISSUE.md is the
# per-PR task text; `if`, because bash -e does not stop on a negated command.
one_benchmark_system() {
	if git grep -nE '[A-Z]+_BENCH_GATE' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then exit 1; fi
	test ! -e bench_test.go
	if go list ./... | grep -qx repro; then exit 1; fi
}

# One doorway: fails if internal/cluster grows a second way to reach a peer:
# the frame is encoded and decoded in one file (proto.go: the only reads and
# writes of bytes in a byte order, the only io.ReadFull), callOnce has one
# caller (peerSet.exchange), and the only dials are bootstrap's retrying one
# and the set's single attempt, both through the node's transport (n.tr.dial;
# the sockets behind it are sock*.go's).
one_doorway() {
	src=$(ls internal/cluster/*.go | grep -v _test.go)
	if grep -nE '"encoding/binary"|binary\.|io\.ReadFull\(' $(echo "$src" | grep -vx internal/cluster/proto.go); then exit 1; fi
	test "$(cat $src | grep -c '\.callOnce(')" -le 1
	test "$(cat $src | grep -c '\.tr\.dial(')" -eq 2
	test "$(cat internal/cluster/peers.go | grep -c '\.tr\.dial(')" -eq 2
	if grep -nE 'dialTCP\(|net\.Dial' $(echo "$src" | grep -vE '^internal/cluster/sock(_[a-z]+)?\.go$'); then exit 1; fi
}

# One clock: fails if an obs event grows a second timestamp back: the ring
# slot is four words, ring.record makes six synchronizing stores (stamp,
# three payload words, stamp, pos), the wall clock is read in one place
# (Lane.Rec; RecV is handed its instant), and Event has no Wall/Virt pair and
# no T() to pick between them.
one_clock() {
	src=$(ls internal/obs/*.go | grep -v _test.go)
	grep -q 'slotWords = 4$' internal/obs/ring.go
	test "$(cat $src | grep -c '\.wallNow(')" -eq 1
	test "$(sed -n '/^func (l \*Lane) Rec(/,/^}/p' internal/obs/obs.go | grep -c '\.wallNow(')" -eq 1
	test "$(sed -n '/^func (r \*ring) record(/,/^}/p' internal/obs/ring.go | grep -cE 'atomic\.StoreUint64\(|\.Store\(')" -eq 6
	if sed -n '/^type Event struct/,/^}/p' internal/obs/obs.go | grep -wE 'Wall|Virt'; then exit 1; fi
	if cat $src | grep -nE 'func \(e \*?Event\) T\(\)'; then exit 1; fi
}

# One rank loop: fails if the message-passing rank grows a blocking loop
# back: its idle/handle/token logic is one step function (core.MsgRank) that
# both hosts drive, MsgHost has no Wait, and between spawn and finish a
# simulated rank never leaves the dispatcher — des/mpi.go advances nothing
# itself, every quantum is returned from the step. The smoke is exact on any
# host: an idle rank's unanswerable polls are counted, not run, so a 64-PE
# run resumes each PE twice (128 handoffs) where the blocking loop needed
# 71,066.
one_rank_loop() {
	if sed -n '/^type MsgHost interface/,/^}/p' internal/core/msgrank.go | grep -n 'Wait()'; then exit 1; fi
	if grep -n 'h\.Wait(' internal/core/msgrank.go; then exit 1; fi
	if grep -nE 'pe\.wait|\.Advance\(|\.advance\(' internal/des/mpi.go; then exit 1; fi
	go build -o bin/uts-sim ./cmd/uts-sim
	out=$(bin/uts-sim -alg mpi-ws -tree bench-small -pes 64 -verbose)
	echo "$out" | grep -q ' events=305696 '
	h=$(echo "$out" | sed -n 's/^engine: .* handoffs=\([0-9]*\).*$/\1/p')
	test -n "$h"
	test "$h" -lt 7100
}

# One node kernel: fails if a scheduler grows its own node kernel or its own
# chunk buffers back: children are expanded in place on the DFS stack
# (core.PE.Visit over stack.Deque.PopExpand), never into a scratch slice that
# PushAll copies; the k oldest nodes leave the stack in one place
# (core.PE.Release, which owns the recycled buffers); the wall-clock workers
# share one yield cadence (core.YieldEvery). The frontier order has two doors
# — core.PE.Visit (through PopExpand) and uts's own sequential loops — and
# the simulator, whose virtual-time schedule is defined per node, only ever
# asks for 1, in one place: simPE.working (des/pe.go), the Working state of
# every simulated scheduler. The lane kernels — rng.SpawnLanes (SHA-1) and
# rng.ALFG.SpawnLanes — are called by the frontier alone (uts/expand.go).
one_node_kernel() {
	src=$(git ls-files 'internal/**/*.go' | grep -v _test.go)
	if grep -n 'uts\.Expand(' $(echo "$src" | grep -v '^internal/stack/stack.go$'); then exit 1; fi
	if grep -n '\.PopExpand(' $(echo "$src" | grep -v '^internal/core/shell.go$'); then exit 1; fi
	if grep -n 'SpawnLanes(' $(echo "$src" | grep -vE '^internal/(rng/(sha1spawn|alfg)|uts/expand)\.go$'); then exit 1; fi
	if grep -n '\.Visit(' $(echo "$src" | grep '^internal/des/') | grep -v '\.Visit(1)'; then exit 1; fi
	if grep -n '\.Visit(' $(echo "$src" | grep '^internal/des/' | grep -v '^internal/des/pe\.go$'); then exit 1; fi
	if grep -nE 'PushAll\(.*\.Children\(' $src; then exit 1; fi
	if grep -n 'Local\.TakeBottom' $(echo "$src" | grep -v '^internal/core/shell.go$'); then exit 1; fi
	if grep -n 'ClusterYieldEvery' $src; then exit 1; fi
	if sed -n '/^type clusterWorker struct/,/^}/p' internal/cluster/worker.go | grep -nwE '^\s*free'; then exit 1; fi
}

# One work loop: fails if a wall-clock worker grows its own yield cadence or
# its own Working loop back: the interval, its counter and the flush ->
# controller -> Gosched order are core.WallPE's (Explore, Working, yield in
# core/shell.go; the constant in core/core.go), and the Work of a UPC family
# is a switch over Working's edges that neither yields nor counts.
one_work_loop() {
	src=$(git ls-files 'internal/core/*.go' 'internal/cluster/*.go' | grep -v _test.go)
	if grep -n 'YieldEvery' $(echo "$src" | grep -vE '^internal/core/(core|shell)\.go$'); then exit 1; fi
	for f in internal/core/distmem.go internal/core/sharedmem.go internal/cluster/worker.go; do
		body=$(sed -n '/^func (w \*[a-zA-Z]*) Work() {/,/^}/p' $f)
		echo "$body" | grep -q 'w\.Working('
		if echo "$body" | grep -nE 'Gosched|sinceYield'; then echo "in $f"; exit 1; fi
	done
}

# One baton: fails if a simulated PE grows a goroutine and channels of its
# own back, or the simulator a second thread: a PE that blocks (a UPC PE) is
# a coroutine its dispatcher resumes (the package's one iter.Pull,
# des/coro.go), a PE that is one stepped advance is no coroutine at all, the
# dispatcher is a loop on the goroutine that calls Run, and nothing else in
# the package starts a goroutine, holds a channel or imports sync.
one_baton() {
	src=$(ls internal/des/*.go | grep -v _test.go)
	test "$(cat $src | grep -c 'iter\.Pull(')" -eq 1
	if grep -nE '^\s*go |\bchan\b|"sync(/atomic)?"' $src; then exit 1; fi
	if sed -n '/^type Proc struct/,/^}/p' internal/des/sim.go | grep -nwE '^\s*status'; then exit 1; fi
}

# A step is not a coroutine: fails if a PE whose whole body is one stepped
# advance — an mpi-ws rank (des/mpi.go), a static PE (des/static.go) — gets a
# coroutine back, a goroutine stack each of hundreds of PEs would hold for
# the whole run: neither file runs AdvanceStepped or hands a body to
# a coroutine spawn (Sim.Spawn, simPE.spawn); each registers its step
# (spawnStepped).
step_is_not_a_coroutine() {
	for f in internal/des/mpi.go internal/des/static.go; do
		if grep -nE 'AdvanceStepped\(|\.(spawn|Spawn)\(' $f; then echo "in $f"; exit 1; fi
		grep -q '\.spawnStepped(' $f
	done
}

# One window: fails if a second place decides to dispatch a run in windows,
# if the calendar leaks out of the file that owns the queue, or if the
# inline-commit test grows a term: the window is chosen once, in des/run.go
# (the clamped remote reference); the calendar and the sentinel root that
# stands for its window live in des/sim.go; and Sim.ahead, on every
# boundary of every run, is the heap test alone — a window term there read
# sim_onesided ≈1.5 % slower.
one_window() {
	src=$(ls internal/des/*.go | grep -v _test.go)
	test "$(cat $src | grep -c '\.windowed(')" -eq 1
	grep -q '\.windowed(' internal/des/run.go
	if grep -nwE 'calendar|cal' $(echo "$src" | grep -v '^internal/des/sim\.go$') | grep -vE '^[^:]+:[0-9]+:\s*//'; then exit 1; fi
	body=$(sed -n '/^func (s \*Sim) ahead(/,/^}/p' internal/des/sim.go | sed '1d;$d' | tr -d '\t')
	test "$body" = 'return s.heap.empty() || s.heap.rootAfter(t, id)'
}

# No interpreter: fails if the simulator grows an op-code interpreter back. A
# cross-PE effect in virtual time is a typed call at its place in the
# schedule — a method after the advance it completes, or the host's boundary
# effect behind Proc.Stage — never an op code and packed words that a
# per-protocol switch decodes: no RemoteApply or SetRemote declared, no
# apply(dst int, op uint8, ...) in non-test internal/des.
no_interpreter() {
	src=$(ls internal/des/*.go | grep -v _test.go)
	if grep -nwE 'RemoteApply|SetRemote' $src; then exit 1; fi
	if grep -nE 'apply\(dst int, op uint8' $src; then exit 1; fi
}

# One record: fails if the diffusion trace grows a sampler back: a traced run
# records each PE's work-source status where it changes (upcPE.setAvail, the
# mpi-ws rank's step), so the only proc a run spawns is a PE (simPE.spawn,
# spawnStepped) — des/run.go spawns none — and no sampler type is declared in
# internal/des.
one_record() {
	if grep -n '\.Spawn(' internal/des/run.go; then exit 1; fi
	test "$(cat $(ls internal/des/*.go | grep -v _test.go) | grep -c '\.Spawn(')" -eq 1
	grep -q 'pe.p = sim.Spawn(' internal/des/pe.go
	if grep -nE '^type sampler\b' internal/des/*.go; then exit 1; fi
}

# No HTTP below the command line: fails if a package other than cmd/uts-dist,
# or the benchmark, links net/http, its pprof handlers or crypto/tls — the
# transport takes a metrics registry and uts-dist, the one binary that
# serves it, owns the server. Linked, that set cost every binary 2.8–3.6 MiB
# of peak RSS whether or not it served. Only uts-dist imports "net/http...".
no_http_below_cmd() {
	http='net/http|net/http/pprof|crypto/tls'
	if go list -deps $(go list ./... | grep -vx repro/cmd/uts-dist) | grep -xE "$http"; then exit 1; fi
	if go list -C benchmark -deps . | grep -xE "$http"; then exit 1; fi
	if git grep --untracked -n '"net/http' -- '*.go' ':!cmd/uts-dist/'; then exit 1; fi
}

# No reflective codec: fails if encoding/gob comes back. The cluster's wire
# is one fixed frame (cluster/proto.go); linked, gob cost every binary
# 0.34–0.38 MiB of peak RSS, and a cluster_tcp rep most of its allocation.
no_reflective_codec() {
	test "$(go list -C benchmark -deps . | grep -cx encoding/gob)" -eq 0
	if git grep --untracked -n '"encoding/gob"' -- '*.go' ':!*_test.go'; then exit 1; fi
}

# No net below the command line: fails if package net, or the runtime/cgo
# its resolver brings, comes back into a binary other than uts-dist. The
# cluster speaks TCP on raw sockets through the runtime poller
# (cluster/sock_linux.go), takes IP literals, and leaves names to uts-dist;
# linked, net made every binary dynamic against libc and cost each workload
# 1.6–2.2 MiB of peak RSS. Only uts-dist and the !linux socket twin import it.
no_net_below_cmd() {
	if go list -deps $(go list ./... | grep -vx repro/cmd/uts-dist) | grep -xE 'net|runtime/cgo'; then exit 1; fi
	if go list -C benchmark -deps . | grep -xE 'net|runtime/cgo'; then exit 1; fi
	if git grep --untracked -nF '"net"' -- '*.go' ':!*_test.go' ':!cmd/uts-dist/' ':!internal/cluster/sock_other.go'; then exit 1; fi
}

# Off is nil: fails if a call site grows a nil check of the controller back
# or the cluster's retry budget leaves the request kind. A nil
# *policy.Controller answers with the fixed knobs, so core and des call it
# unguarded; the one Ctl test left, WallPE.Now's, decides whether to read
# the clock. attempt takes the peer and the request: the kind sets how often
# it is tried.
off_is_nil() {
	src=$(ls internal/core/*.go internal/des/*.go | grep -v _test.go)
	test "$(cat $src | grep -cE 'Ctl [!=]= nil')" -eq 1
	sed -n '/^func (w \*WallPE) Now(/,/^}/p' internal/core/shell.go | grep -q 'w\.Ctl == nil'
	grep -q '^func (n \*node) attempt(r int, req \*request) ' internal/cluster/node.go
	if grep -nE '\.attempt\([^,()]*,[^,()]*,' $(ls internal/cluster/*.go | grep -v _test.go); then exit 1; fi
}

# The live plane reads once: fails if the sampler's window goes back to
# a difference of two cumulative histograms (Histogram.DeltaFrom read
# every value as its bucket's floor: 1,000 ns as 960), a rank's rollup row
# back to a struct written in four places (MetricsSnapshot), or the
# controllers' record back to a capped slice of PE 0's knobs (Trajectory).
# A rollup family is one rollupFamilies entry; what a controller decided
# belongs in the trace.
live_plane_reads_once() {
	if grep -nE '^func .*\bDeltaFrom\(' $(ls internal/obs/*.go | grep -v _test.go); then exit 1; fi
	if grep -nE '^(type)?\s*MetricsSnapshot\s' $(ls internal/cluster/*.go | grep -v _test.go); then exit 1; fi
	if grep -nE '^\s*(type\s+)?Trajectory\b|^func .*\bTrajectory\(' $(ls internal/policy/*.go | grep -v _test.go); then exit 1; fi
}

# One lint driver: fails if a second way to run the analyzers grows back.
# go vet -vettool hands uts-vet every package with its _test.go files, and
# lint.Check reports each unsilenced finding and each suppression that has
# no reason, names an unknown analyzer or silences nothing in that one pass:
# no audit mode, no loader of lint's own (Load), no second parse and
# type-check in the driver, and tier-1's TestRepoClean runs the same go vet.
one_lint_driver() {
	if git grep -n 'unused-suppressions' -- Makefile .github cmd internal; then exit 1; fi
	if grep -nE '^func Load\(' internal/lint/*.go; then exit 1; fi
	if grep -nE 'parser\.ParseFile|types\.Config' cmd/uts-vet/*.go; then exit 1; fi
	sed -n '/^func TestRepoClean(/,/^}/p' internal/lint/lint_test.go | grep -q '"vet", "-vettool='
}

failed=0
# rule NAME SECTIONS FUNCTION: the function runs in a subshell under -e, as
# each did as a CI step, so its first failing line fails the rule.
rule() {
	(set -e; "$3")
	if [ $? -ne 0 ]; then
		echo "shape: FAIL $1 — the lines above, if any, are the offenders; the reason is in DESIGN.md $2" >&2
		failed=1
	fi
}
rule "One benchmark system" "§18" one_benchmark_system
rule "One doorway" "§10" one_doorway
rule "One clock" "§8" one_clock
rule "One rank loop" "§9, §17" one_rank_loop
rule "One node kernel" "§7, §17" one_node_kernel
rule "One work loop" "§17" one_work_loop
rule "One baton" "§9" one_baton
rule "A step is not a coroutine" "§9" step_is_not_a_coroutine
rule "One window" "§9" one_window
rule "No interpreter" "§9" no_interpreter
rule "One record" "§9" one_record
rule "No HTTP below the command line" "§13" no_http_below_cmd
rule "No reflective codec" "§10" no_reflective_codec
rule "No net below the command line" "§10, §13" no_net_below_cmd
rule "Off is nil" "§15" off_is_nil
rule "The live plane reads once" "§13" live_plane_reads_once
rule "One lint driver" "§11" one_lint_driver
[ $failed -eq 0 ] && echo "shape: 17 rules hold"
exit $failed
