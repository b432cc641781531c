#!/bin/bash
# make shape: the structural rules of this repository, one function each —
# the things that exist once, and the greps that fail when a second one
# grows back. Tier-1 runs them: `go test ./...` includes TestShapeRules
# (internal/bench), which fails naming each failing rule; `make shape` is
# the quick way to run them alone. Every rule runs even after one has
# failed; a failure names the rule and the DESIGN.md section that gives its
# reason. Nothing here writes into the tree.
cd "$(dirname "$0")/.." || exit 2

# What the link rules read, listed once: the module's packages, what those
# other than cmd/uts-dist link, and what the benchmark links.
pkgs=$(go list ./...) &&
	deps=$(go list -deps $(grep -vx repro/cmd/uts-dist <<< "$pkgs")) &&
	benchdeps=$(go list -C benchmark -deps .) || exit 2

# One benchmark system: fails if the second one grows back. ISSUE.md is the
# per-PR task text; `if`, because bash -e does not stop on a negated command.
one_benchmark_system() {
	if git grep -nE '[A-Z]+_BENCH_GATE' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md'; then exit 1; fi
	test ! -e bench_test.go
	if grep -qx repro <<< "$pkgs"; then exit 1; fi
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
	test "$(sed -n '/^func (r \*ring) record(/,/^}/p' internal/obs/ring.go | grep -c '\.Store(')" -eq 6
	if sed -n '/^type Event struct/,/^}/p' internal/obs/obs.go | grep -wE 'Wall|Virt'; then exit 1; fi
	if cat $src | grep -nE 'func \(e \*?Event\) T\(\)'; then exit 1; fi
}

# One rank loop: fails if the message-passing rank grows a blocking loop
# back: its poll cycle and its idle/handle/token logic are one step function
# (core.MsgRank) that both hosts drive with what a quantum costs, MsgHost has
# no Wait, and between spawn and finish a simulated rank never leaves the
# dispatcher — des/mpi.go advances nothing itself, every quantum is returned
# from the step. What a run of the rank costs the engine is tier-1's to
# hold: TestEngineCountsPinned pins a 64-PE smoke's events (305,696), and
# TestSteppedPEsStartNoGoroutine that it resumes no coroutine on the way.
one_rank_loop() {
	if sed -n '/^type MsgHost interface/,/^}/p' internal/core/msgrank.go | grep -n 'Wait()'; then exit 1; fi
	if grep -n 'h\.Wait(' internal/core/msgrank.go; then exit 1; fi
	if grep -nE 'pe\.wait|\.Advance\(|\.advance\(' internal/des/mpi.go; then exit 1; fi
}

# One poll loop: fails if a substrate grows its own poll cycle back. A
# working rank explores up to its interval, looks at its queue and handles
# what it finds in core.MsgRank alone; a host says what a quantum of
# exploring and a look cost (MsgHost.Explore, MsgHost.Iprobe) and neither
# handles a message, loops over its queue nor counts a poll, MsgHost has no
# Work, and the wall clock runs the rank with the machine's Steps, not a
# Drive of its own.
one_poll_loop() {
	if grep -nE 'NotePoll\(|\.[Hh]andle\(|for .*Recv\(\)' internal/core/mpiws.go internal/des/mpi.go; then exit 1; fi
	if sed -n '/^type MsgHost interface/,/^}/p' internal/core/msgrank.go | grep -n 'Work('; then exit 1; fi
	if grep -nE '^func \([a-z]+ \*?WallPE\) Drive\(' internal/core/shell.go; then exit 1; fi
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
# own back, or the simulator a second thread: every simulated PE is a step
# function the dispatcher runs (Sim.spawnStepped), the package's one
# iter.Pull (des/coro.go) serves only a body handed to Sim.Spawn (the tests'
# and the benchmark's) and the legacy reference's coroutine around a step,
# the dispatcher is a loop on the goroutine that calls Run, and nothing else
# in the package starts a goroutine, holds a channel or imports sync.
one_baton() {
	src=$(ls internal/des/*.go | grep -v _test.go)
	test "$(cat $src | grep -c 'iter\.Pull(')" -eq 1
	if grep -nE '^\s*go |\bchan\b|"sync(/atomic)?"' $src; then exit 1; fi
	if sed -n '/^type Proc struct/,/^}/p' internal/des/sim.go | grep -nwE '^\s*status'; then exit 1; fi
}

# A step is not a coroutine: fails if a simulated PE gets a coroutine back,
# a goroutine stack each of hundreds of PEs would hold for the whole run.
# Every PE is a step function: an mpi-ws rank (des/mpi.go), a static PE
# (des/static.go), the Figure-1 machine of a UPC family (des/dist.go,
# des/shared.go, over des/upc.go and des/doze.go). None of those files runs
# AdvanceStepped, blocks in Advance, Block or a lock's Acquire, or hands a
# body to a coroutine (Sim.Spawn); each host registers its step
# (spawnStepped).
step_is_not_a_coroutine() {
	for f in internal/des/mpi.go internal/des/static.go internal/des/dist.go internal/des/shared.go internal/des/upc.go internal/des/doze.go; do
		if grep -nE 'AdvanceStepped\(|\.(spawn|Spawn)\(|\bp\.(Advance|Block|Acquire)\(' $f; then echo "in $f"; exit 1; fi
	done
	for f in internal/des/mpi.go internal/des/static.go internal/des/dist.go internal/des/shared.go; do
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

# One stepped advance: fails if the batched engine grows a second stepping
# loop or a second dispatch loop back. A stepped advance is stepped in one
# place, Sim.steps — the coroutine's start (AdvanceStepped) and the
# dispatcher's continuation both call it — so the boundary rule (staged
# effect, then StepDone or stepBlock's wait) is one edit,
# and the legacy reference's own copy (legacy.go) is the oracle the
# differentials hold it to: the boundary effect runs in exactly those two
# places. Events leave the queue in one loop, Sim.dispatch, the calendar of a
# windowed run a branch at its pop: each is where a model checker would
# choose which tied event runs first.
one_stepped_advance() {
	src=$(ls internal/des/*.go | grep -v _test.go)
	test "$(cat $src | grep -c 'p\.effect()')" -eq 2
	test "$(sed -n '/^func (s \*Sim) steps(/,/^}/p' internal/des/sim.go | grep -c 'p\.effect()')" -eq 1
	test "$(grep -c 'p\.effect()' internal/des/legacy.go)" -eq 1
	test "$(cat $src | grep -cE '^func (\([^)]*\) )?dispatch')" -eq 1
	grep -q '^func (s \*Sim) dispatch() error {' internal/des/sim.go
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
# mpi-ws rank's step), so the only proc a run spawns is a PE (spawnStepped) —
# no non-test file of internal/des calls Sim.Spawn — and no sampler type is
# declared in internal/des.
one_record() {
	if grep -n '\.Spawn(' $(ls internal/des/*.go | grep -v _test.go); then exit 1; fi
	if grep -nE '^type sampler\b' internal/des/*.go; then exit 1; fi
}

# No interrupt mask: fails if the engine grows a second way for a victim to
# learn of a thief back. A thief claims the victim's request word, and the
# victim reads it at its next service point (core.Host.Interrupted, which
# the host answers); no mask is posted to a proc and delivered by the engine
# at a boundary, the machine's Host has no Steps to run it on a coroutine,
# and des/pe.go's shell spawns no coroutine.
no_interrupt_mask() {
	src=$(ls internal/des/*.go | grep -v _test.go)
	if grep -nE '\bIntr(Steal)?\b|\.Post\(|ClearIntr' $src; then exit 1; fi
	if sed -n '/^type Host interface/,/^}/p' internal/core/machine.go | grep -n 'Steps('; then exit 1; fi
	if grep -nE '^func \([a-z]+ \*?simPE\) (spawn|Steps|Interrupted)\(' internal/des/pe.go; then exit 1; fi
}

# No HTTP below the command line: fails if a package other than cmd/uts-dist,
# or the benchmark, links net/http, its pprof handlers or crypto/tls — the
# transport takes a metrics registry and uts-dist, the one binary that
# serves it, owns the server. Linked, that set cost every binary 2.8–3.6 MiB
# of peak RSS whether or not it served. Only uts-dist imports "net/http...".
no_http_below_cmd() {
	http='net/http|net/http/pprof|crypto/tls'
	if grep -xE "$http" <<< "$deps"; then exit 1; fi
	if grep -xE "$http" <<< "$benchdeps"; then exit 1; fi
	if git grep --untracked -n '"net/http' -- '*.go' ':!cmd/uts-dist/'; then exit 1; fi
}

# No reflective codec: fails if encoding/gob comes back. The cluster's wire
# is one fixed frame (cluster/proto.go); linked, gob cost every binary
# 0.34–0.38 MiB of peak RSS, and a cluster_tcp rep most of its allocation.
no_reflective_codec() {
	test "$(grep -cx encoding/gob <<< "$benchdeps")" -eq 0
	if git grep --untracked -n '"encoding/gob"' -- '*.go' ':!*_test.go'; then exit 1; fi
}

# No net below the command line: fails if package net, or the runtime/cgo
# its resolver brings, comes back into a binary other than uts-dist. The
# cluster speaks TCP on raw sockets through the runtime poller
# (cluster/sock_linux.go), takes IP literals, and leaves names to uts-dist;
# linked, net made every binary dynamic against libc and cost each workload
# 1.6–2.2 MiB of peak RSS. Only uts-dist and the !linux socket twin import it.
no_net_below_cmd() {
	if grep -xE 'net|runtime/cgo' <<< "$deps"; then exit 1; fi
	if grep -xE 'net|runtime/cgo' <<< "$benchdeps"; then exit 1; fi
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

# Deterministic packages: fails if simulation code grows a source of
# nondeterminism (a simulated run is an exact function of tree, algorithm,
# machine profile and seed). In internal/{des,core,uts,policy} the wall
# clock is read only in the pinned functions, all on the wall-clock side;
# no non-test file imports math/rand, and no test uses its package-level
# state; the map types of non-test code are pinned, since Go randomizes
# range order. Tests may read the clock and range over maps: what they
# measure or sweep feeds no run.
deterministic_packages() {
	src=$(ls internal/{des,core,uts,policy}/*.go | grep -v _test.go)
	if grep -n '"math/rand' $src; then exit 1; fi
	if grep -noE '(^|[^.A-Za-z0-9_])rand\.[A-Za-z0-9_]+' $(ls internal/{des,core,uts,policy}/*_test.go) | grep -vE 'rand\.(New[A-Za-z0-9]*|Rand)$'; then exit 1; fi
	pin "functions that read the wall clock" "$(sites 'time\.(Now|Since|Until)\(' $src)" 'internal/core/core.go Run: time.Now(
internal/core/core.go Run: time.Since(
internal/core/shell.go WallPE.Start: time.Now(
internal/core/shell.go WallPE.Stop: time.Now(
internal/core/shell.go WallPE.SetState: time.Now(
internal/core/shell.go WallPE.Now: time.Now(
internal/uts/sequential.go SearchSequentialCtx: time.Now(
internal/uts/sequential.go SearchSequentialCtx: time.Since(
internal/uts/sequential.go SearchSequentialCtx: time.Since('
	pin "map types of non-test code" "$(sites 'map\[[^]]*\][^ ,){]*' $src)" 'internal/core/shell.go SharedVariants: map[Algorithm]SharedVariant
internal/des/tune.go TuneChunk: map[int]*core.Result
internal/des/tune.go TuneChunk: map[int]*core.Result
internal/des/tune.go TuneChunk: map[int]float64
internal/des/tune.go bestCandidate: map[int]float64'
}

# Paired locks: fails if a lock section can be left with its lock held. In
# internal/{cluster,core,msg,term}, tests too, each X.Lock(), X.RLock() or
# X.Acquire(...) is a line of its own, followed at once by `defer X.Unlock()`
# (RUnlock, Release) or later by `X.Unlock()` at its indentation, with no
# line between that closes its block or, at any depth, returns, breaks,
# continues or jumps. gofmt gives a statement its own line, so a release on
# each arm of a branch fails.
paired_locks() {
	awk '
		function leak(why) { print at ": " rel " does not follow: " why; bad = 1; want = "" }
		FNR == 1 && want != "" { leak("the file ends") }
		/^[ \t]*(\/\/|$)/ { next }
		want != "" {
			if (first && $0 == dfr) { want = ""; next }
			first = 0
			if ($0 == want) { want = ""; next }
			match($0, /^\t*/)
			if (RLENGTH < ind) leak("line " FNR " closes its block")
			else if ($0 ~ /^\t*(return|break|continue|goto)([ \t]|$)/) leak("line " FNR " leaves")
		}
		/\.(Lock\(\)|RLock\(\)|Acquire\()/ {
			if (want != "") leak("line " FNR " acquires again")
			at = FILENAME ":" FNR
			if ($0 !~ /^\t+[A-Za-z_][A-Za-z0-9_.]*\.(Lock\(\)|RLock\(\)|Acquire\([^()]*\))$/) {
				print at ": an acquire that is not a statement of its own"; bad = 1; next
			}
			match($0, /^\t+/); ind = RLENGTH
			rel = substr($0, ind + 1); sub(/\.Lock\(/, ".Unlock(", rel); sub(/\.RLock\(/, ".RUnlock(", rel); sub(/\.Acquire\(/, ".Release(", rel)
			want = substr($0, 1, ind) rel; dfr = substr($0, 1, ind) "defer " rel; first = 1
		}
		END { if (want != "") leak("the file ends"); exit bad }' $(ls internal/{cluster,core,msg,term}/*.go)
}

# Typed atomics: fails if an atomic word goes untyped again. A word shared
# without a lock is a sync/atomic type (atomic.Uint64, []atomic.Uint64,
# atomic.Pointer[T] ...), so the compiler rejects a plain read or write of
# it and go vet's copylocks (make lint and CI run go vet) reports a copy:
# no Go file calls a sync/atomic function.
typed_atomics() {
	if git grep --untracked -nE '\batomic\.(Load|Store|Add|Swap|CompareAndSwap|And|Or)[A-Za-z0-9]*\(' -- '*.go'; then exit 1; fi
}

# Declared kinds: fails if an event is recorded with anything but a declared
# kind. The timeline and Chrome exporters name an event, and the histograms
# route it, by its obs.Kind constant, so the first argument of every Lane.Rec
# and Lane.RecV call in Go, tests included, is a Kind* constant (obs.KindX
# in other packages) or the forwarded Kind parameter k. Each call is
# checked, not each line: a literal, arithmetic on a kind, or a line break
# after the parenthesis fails.
declared_kinds() {
	if git grep --untracked -noE '\.RecV?\((((obs\.)?Kind[A-Z][A-Za-z0-9]*|k),)?' -- '*.go' | grep -E '\($'; then exit 1; fi
}

# No directives: fails if a //uts: comment comes back. No analyzer reads
# one (//uts:ok, noalloc, orders, mark, plain): what they marked is a rule
# here, a test or the compiler (DESIGN.md §11), so it would promise what
# nothing checks.
no_directives() {
	if git grep --untracked -n '//uts:' -- '*.go'; then exit 1; fi
}

# pin WHAT GOT WANT: fails, printing the difference, unless GOT is WANT.
pin() {
	[ "$2" = "$3" ] && return
	echo "$1:"
	diff --label pinned --label tree -u <(echo "$3") <(echo "$2")
	return 1
}

# stmts FILE FUNC ERE: the lines of the function FILE declares as
# `func FUNC(` that match ERE, in source order, joined by "; ", each
# without its first tab and with a ">" for every further one.
stmts() {
	sed -n "/^func $2(/,/^}/p" "$1" | grep -E "$3" | sed -E 's/^\t//; :a; s/^(>*)\t/\1>/; ta' | paste -sd';' | sed 's/;/; /g'
}

# sites ERE FILE...: each match of ERE outside a comment line, one a line,
# as "FILE HOLDER: MATCH", where HOLDER is the function (Type.Method) or
# the package-level declaration the match is in.
sites() {
	awk -v re="$1" '
		/^func / { h = $0; sub(/^func /, "", h); sub(/^\([a-z]+ \*?/, "", h); sub(/\) /, ".", h); sub(/\(.*/, "", h) }
		/^(var|const|type) / { h = $2 }
		/^[ \t]*\/\// { next }
		{ t = $0; while (match(t, re)) { print FILENAME " " h ": " substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH) } }' "${@:2}"
}

# Publish orders: fails if a publishing store moves above what it
# publishes. ring.record's seqlock stores the invalidating zero, the three
# payload words, the publishing stamp, then pos; Relaxed.Publish writes both
# ledger words (the chunk's pointer and its count) before the one slot store
# that makes the sequence number visible to thieves. Neither function
# loops or jumps, so its line order is its store order.
publish_orders() {
	pin ring.record "$(stmts internal/obs/ring.go '(r \*ring) record' '\.Store\(')" \
		'b[i].Store(0); b[i+1].Store(hdr); b[i+2].Store(uint64(value)); b[i+3].Store(uint64(t)); b[i].Store(seq + 1); r.pos.Store(seq + 1)'
	pin Relaxed.Publish "$(stmts internal/stack/relaxed.go '(r \*Relaxed) Publish' 'seg\.[a-z]+\[i\] = |\.Store\(')" \
		'>seg.ptr[i] = &c[0]; seg.n[i] = int32(len(c)); r.slots[p].w.Store(pubWord(s))'
}

# Charged remote access: fails if a UPC thread touches another thread's
# stack without paying the latency model first. In non-test internal/core,
# stacks[x] with x other than the worker's w.me or setup's i or me is
# indexed in six methods only; in each, its charges (Domain.ChargeRef,
# ChargeBulk, ChargeLockRTT; the victim lock's Acquire, Release), its
# accesses through the stack (vs.f, ts.f, stacks[x].f) and its transfer of
# stolen chunks (Landed, paid by ChargeBulk) run in the pinned order. A ">"
# marks a line nested one block deeper: every charge is a statement of the
# method body, and no function in internal/core has a goto, so a charge
# before an access in line order runs before it on every path.
charged_remote_access() {
	src=$(ls internal/core/*.go | grep -v _test.go)
	if grep -nE '^\s*goto ' $src; then exit 1; fi
	got=$(awk '
		function flush() { if (remote) print m ":" seq }
		FNR == 1 { flush(); remote = 0 }
		/^func / {
			flush(); seq = ""; remote = 0; split("", h)
			m = $0; sub(/^func /, "", m); sub(/^\([a-z]+ \*?/, "", m); sub(/\) /, ".", m); sub(/\(.*/, "", m)
		}
		/^[ \t]*\/\// { next }
		{
			tok = ""
			if ($0 ~ /stacks\[/ && $0 !~ /stacks\[(w\.me|i|me)\]/) {
				remote = 1
				if (match($0, /stacks\[[^]]*\]\.[A-Za-z]+/)) tok = substr($0, RSTART, RLENGTH)
				else if ($0 ~ /^\t+[a-z][A-Za-z0-9]* := /) h[$1] = 1
			}
			if (match($0, /\.Charge(Ref|Bulk|LockRTT)\(/)) tok = substr($0, RSTART + 1, RLENGTH - 2)
			else if ($0 ~ /\.Landed\(/) tok = "Landed"
			else for (v in h) if (match($0, "(^|[^A-Za-z0-9_.])" v "\\.[A-Za-z]+")) {
				tok = substr($0, RSTART, RLENGTH); sub(/^[^A-Za-z]/, "", tok)
				if (match($0, /\.lk\.(Acquire|Release)\(/)) tok = substr($0, RSTART + 4, RLENGTH - 5)
			}
			if (tok == "") next
			match($0, /^\t*/)
			for (d = 1; d < RLENGTH; d++) tok = ">" tok
			seq = seq " " tok
		}
		END { flush() }' $src)
	pin "methods that index another thread's stack" "$got" 'distWorker.Service: ChargeRef ChargeRef ts.resp ts.respReady
distWorker.StageAvail: ChargeRef stacks[v].workAvail
distWorker.Steal: ChargeLockRTT vs.request ChargeBulk Landed
sharedWorker.StageAvail: ChargeRef stacks[v].workAvail
sharedWorker.Steal: Acquire >vs.pool vs.pool >vs.workAvail Release ChargeBulk Landed
sharedWorker.stealRelaxed: ChargeRef ChargeRef vs.ring ChargeBulk Landed'
}

failed=0
# rule NAME SECTIONS FUNCTION: the function runs in a subshell under -e, so
# its first failing line fails the rule.
rule() {
	(set -e; "$3")
	if [ $? -ne 0 ]; then
		echo "shape: FAIL $1 — the lines above, if any, are the offenders; the reason is in DESIGN.md $2" >&2
		failed=1
	fi
}
rule "One benchmark system" "§17" one_benchmark_system
rule "One doorway" "§10" one_doorway
rule "One clock" "§8" one_clock
rule "One rank loop" "§9, §16" one_rank_loop
rule "One poll loop" "§16" one_poll_loop
rule "One node kernel" "§7, §16" one_node_kernel
rule "One work loop" "§16" one_work_loop
rule "One baton" "§9" one_baton
rule "A step is not a coroutine" "§9" step_is_not_a_coroutine
rule "One window" "§9" one_window
rule "One stepped advance" "§9" one_stepped_advance
rule "No interpreter" "§9" no_interpreter
rule "One record" "§9" one_record
rule "No interrupt mask" "§9, §16" no_interrupt_mask
rule "No HTTP below the command line" "§13" no_http_below_cmd
rule "No reflective codec" "§10" no_reflective_codec
rule "No net below the command line" "§10, §13" no_net_below_cmd
rule "Off is nil" "§15" off_is_nil
rule "The live plane reads once" "§13" live_plane_reads_once
rule "Deterministic packages" "§11" deterministic_packages
rule "Paired locks" "§10, §11" paired_locks
rule "Typed atomics" "§8, §11" typed_atomics
rule "Declared kinds" "§8, §11" declared_kinds
rule "No directives" "§11" no_directives
rule "Publish orders" "§8, §11, §14" publish_orders
rule "Charged remote access" "§2, §11" charged_remote_access
[ $failed -eq 0 ] && echo "shape: 26 rules hold"
exit $failed
