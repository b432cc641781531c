package des

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stack"
)

// This file is the sharded engine: conservative-lookahead parallel
// execution of the exact sequential schedule.
//
// The simulated PEs are partitioned into S shards of contiguous IDs. Each
// shard is one dispatcher (sim.go) on a goroutine of its own — the batched
// engine's clock, heap of proc resumptions and parked slot, so Advance,
// AdvanceStepped, Block/Wake and the inline fast path are the same code
// under both engines — plus what this file adds, all of it cross-shard:
// inboxes, horizon promises, the queue of remote operations, rendezvous
// stalls, sleep/kick and the deadlock check. Every interaction between
// shards goes through the remote-operation layer (remote.go): operations
// become messages carrying the virtual instant and the initiating proc's
// (id, seq) position, delivered through per-shard-pair inboxes into the
// owner's operation queue, and the owner's gate (ready) interleaves them
// with its proc events in global (t, pid, seq) key order.
//
// # Conservative synchronization
//
// The pgas cost model guarantees that every cross-PE operation pays at
// least the lookahead L (the model's minimum remote-hop cost, clamped):
// a PE deciding to touch another PE's partition at instant t cannot make
// the effect land before t+L. Each shard therefore publishes a *horizon
// promise* — "no message I ever send will be stamped earlier than this" —
// computed as (earliest pending local event) + L, and each shard may
// freely execute every event strictly earlier than the minimum promise of
// its peers. Promises are exchanged through atomic words (the degenerate,
// always-current form of null messages); a shard with nothing executable
// publishes its horizon and sleeps until a peer's promise moves or a
// message arrives. Two shards whose next events carry equal timestamps t
// both promise t+L > t, so both proceed — equal horizons never deadlock
// for L > 0.
//
// Rendezvous operations (RemoteCall, StageRemote) need a result back; the
// reply is solicited — stamped with the requester's own boundary, not
// bounded below by the owner's promise — so the requester *self-gates*:
// it stalls at the boundary, its shard with it (see stall), and resumes
// only when the reply lands. The shard holding the globally minimal proc
// event can always run (every peer promise is at least that minimum plus
// L), so some shard always makes progress and the protocol is
// deadlock-free; if every shard sleeps with an infinite horizon while procs
// remain, the procs are blocked on each other — a protocol deadlock,
// reported exactly like the sequential engine's drained-queue error.
//
// # Determinism
//
// For a fixed shard count the execution is a deterministic function of the
// configuration: every event executes in (t, pid, seq) key order within
// its owning shard, cross-shard messages are applied at keys computed at
// send time, and the only engine freedom — the order in which same-key
// delayed deliveries are drained — is over operations that commute (sorted
// inserts into a receive queue). The differential test matrix checks the
// stronger property that the result is bit-identical to the batched
// engine's; DESIGN.md §12 gives the argument.

const maxVT = int64(^uint64(0) >> 1) // +infinity for virtual time

// shardMsg kinds.
const (
	msgEffect byte = iota // fire-and-forget remote apply at the stamp
	msgCall               // rendezvous request: apply at the stamp, reply
	msgReply              // rendezvous reply: fills a slot, never queued
)

// shardMsg is one cross-shard message: a remote operation ordered by the
// same (t, pid, seq) key as the proc events, or the reply to one. Delayed
// effects carry pid −1 so they order before every proc boundary at their
// stamp — a receiver polling its queue at exactly the arrival instant must
// see the message, as it does sequentially.
type shardMsg struct {
	t      int64
	pid    int32
	seq    uint64
	kind   byte
	from   int32 // msgCall: requesting shard (reply destination)
	slot   int8  // msgCall/msgReply: staged slot, or -1 for RemoteCall
	dst    int32 // msgEffect/msgCall: destination PE; msgReply: requester PE
	op     uint8
	a, b   int64
	chunks []stack.Chunk
}

// opQueue is a shard's pending remote operations sorted by (t, pid, seq),
// the next one due at a[head]. A sorted slice, because operations arrive
// almost in order: on the benchmark's two-shard runs the queue holds 54–69
// entries when one is inserted and peaks at 84–202 (247 at eight shards),
// but the newcomer belongs 0.02–2.8 places from the tail on average (5.4 at
// eight, never more than 53), so an insert moves a few entries and a pop
// none.
type opQueue struct {
	a    []shardMsg
	head int
}

func (q *opQueue) len() int         { return len(q.a) - q.head }
func (q *opQueue) first() *shardMsg { return &q.a[q.head] }

func (q *opQueue) push(m *shardMsg) {
	if q.head > 0 && len(q.a) == cap(q.a) {
		// Reclaim the consumed prefix rather than grow past it.
		n := copy(q.a, q.a[q.head:])
		clear(q.a[n:])
		q.a, q.head = q.a[:n], 0
	}
	q.a = append(q.a, shardMsg{})
	i := len(q.a) - 1
	for ; i > q.head && m.before(&q.a[i-1]); i-- {
		q.a[i] = q.a[i-1]
	}
	q.a[i] = *m
}

func (q *opQueue) pop() shardMsg {
	m := q.a[q.head]
	q.a[q.head] = shardMsg{} // drops the chunks reference
	if q.head++; q.head == len(q.a) {
		q.a, q.head = q.a[:0], 0
	}
	return m
}

func (m *shardMsg) before(o *shardMsg) bool {
	if m.t != o.t {
		return m.t < o.t
	}
	if m.pid != o.pid {
		return m.pid < o.pid
	}
	return m.seq < o.seq
}

// keyBefore orders two (t, pid) key prefixes. Across the kinds of thing a
// shard has pending the prefix never ties: a proc has one outstanding
// resumption or stall, its own requests queue in other shards, and delayed
// effects carry pid −1.
func keyBefore(t1 int64, id1 int, t2 int64, id2 int) bool {
	return t1 < t2 || (t1 == t2 && id1 < id2)
}

// shInbox is one bounded shard-pair inbox: peers append under the mutex,
// the owning shard swaps the queue out wholesale. Steady state reuses two
// buffers; growth beyond the initial bound doubles (and is amortized away).
type shInbox struct {
	mu    sync.Mutex
	dirty atomic.Bool
	q     []shardMsg
	spare []shardMsg
}

// shard is one partition of the simulation: the dispatcher of a block of
// contiguous PEs, and the conservative-synchronization state around it.
type shard struct {
	dispatcher
	eng *shardEngine
	idx int

	// safeT caches min over peers' promises: every event with t < safeT
	// is safe to execute without looking at the inboxes again (messages
	// stamped below it were enqueued before their sender published the
	// promise we read, so they were drained when safeT was refreshed).
	safeT int64

	// promise is this shard's published horizon (single writer: the shard's
	// goroutine). pub mirrors it locally; lastNowPub throttles fast-path
	// republishing to once per lookahead of virtual time.
	promise    atomic.Int64
	pub        int64
	lastNowPub int64

	// held is the proc stalled at the boundary the clock stands on, awaiting
	// rendezvous replies; nothing else runs in the shard until they are in
	// (see stall). ops are the remote operations peers sent here.
	held *Proc
	ops  opQueue

	in       []shInbox // indexed by sending shard
	kick     chan struct{}
	sleeping atomic.Int32
}

// shardEngine coordinates the S shards of one simulation.
type shardEngine struct {
	sim      *Sim
	nshards  int
	la       int64   // lookahead L: minimum cross-shard stamp distance
	procs    []*Proc // by PE number
	shards   []*shard
	shardOf  []int32
	wg       sync.WaitGroup
	done     chan struct{}
	failOnce sync.Once
	err      error
	sleepers atomic.Int32
	doneShs  atomic.Int32
}

// NewSharded creates an empty simulation using the sharded engine: shards
// parallel dispatchers synchronized with conservative lookahead la, which
// must be positive when shards > 1 (it is the minimum virtual latency of
// any cross-PE operation — see pgas.Model.MinRemoteHop). PEs are assigned
// to shards in contiguous blocks of spawn order at Run time, the count
// capped at theirs. One shard — asked for, or left by the cap — has no peer
// and nothing cross-shard to add: the run is New's, on the Sim's own
// dispatcher (des.Run does not even ask; this package's tests do).
func NewSharded(shards int, la time.Duration) *Sim {
	if shards < 1 {
		panic("des: sharded engine needs at least one shard")
	}
	if shards > 1 && la <= 0 {
		panic("des: sharded engine needs positive lookahead")
	}
	s := &Sim{}
	s.eng = &shardEngine{sim: s, nshards: shards, la: int64(la)}
	return s
}

// Shards reports the shard count of a sharded simulation (0 under the
// sequential engines).
func (s *Sim) Shards() int {
	if s.eng == nil {
		return 0
	}
	return s.eng.nshards
}

// assign partitions the spawned procs into contiguous-ID shard blocks and
// seeds each shard's heap and horizon.
func (eng *shardEngine) assign() {
	n, s := len(eng.procs), eng.nshards
	eng.shardOf = make([]int32, n)
	eng.shards = make([]*shard, s)
	for i := range eng.shards {
		sh := &shard{
			eng:   eng,
			idx:   i,
			in:    make([]shInbox, s),
			kick:  make(chan struct{}, 1),
			safeT: eng.la,
			pub:   eng.la, // heap min 0 + L
		}
		sh.dispatcher.sh = sh
		sh.promise.Store(eng.la)
		eng.shards[i] = sh
	}
	for pid, p := range eng.procs {
		si := pid * s / n
		eng.shardOf[pid] = int32(si)
		sh := eng.shards[si]
		p.d = &sh.dispatcher
		sh.nprocs++
		eng.sim.schedule(p, 0)
	}
}

// run executes the simulation: one goroutine runs each shard's dispatch
// loop, and the engine waits for every loop to exit (global completion, or
// a deadlock report).
func (eng *shardEngine) run() error {
	s := eng.sim
	if eng.nshards = min(eng.nshards, len(eng.procs)); eng.nshards <= 1 {
		// No peers, so nothing cross-shard to build: the procs stay on
		// the Sim's own dispatcher, where Spawn put them.
		for _, p := range eng.procs {
			s.schedule(p, 0)
		}
		return s.dispatch()
	}
	eng.done = make(chan struct{})
	eng.assign()
	eng.wg.Add(len(eng.shards))
	for _, sh := range eng.shards {
		go func() {
			sh.dispatch()
			eng.wg.Done()
		}()
	}
	eng.wg.Wait()
	for _, sh := range eng.shards {
		s.events += sh.events
		s.pops += sh.pops
		s.handoffs += sh.handoffs
		if sh.now > s.now {
			s.now = sh.now
		}
	}
	return eng.err
}

// fail records a terminal engine error and releases every shard.
func (eng *shardEngine) fail(err error) {
	eng.failOnce.Do(func() {
		eng.err = err
		close(eng.done)
	})
}

// shardDone is called once per shard, when its last proc has finished; when
// every shard's procs have the run is over (no proc can send again, so
// nothing meaningful remains in flight).
func (eng *shardEngine) shardDone() {
	if int(eng.doneShs.Add(1)) == len(eng.shards) {
		eng.failOnce.Do(func() { close(eng.done) })
	}
}

// enqueue delivers a message into this shard's inbox from the given peer
// shard, kicking the shard awake if it sleeps. The dirty store precedes
// the sleeping load (both sequentially consistent), pairing with sleep's
// flag-then-drain order so a wakeup is never lost.
//
//uts:noalloc
func (sh *shard) enqueue(from int, m shardMsg) {
	ib := &sh.in[from]
	ib.mu.Lock()
	ib.q = append(ib.q, m) //uts:ok noalloc amortized growth of a bounded, reused inbox buffer
	ib.mu.Unlock()
	ib.dirty.Store(true)
	if sh.sleeping.Load() != 0 {
		select {
		case sh.kick <- struct{}{}:
		default:
		}
	}
}

// drain merges every arrived message: replies fill their proc's slots
// immediately (they are position-free — the stalled proc consumes them at
// its own boundary), operations join the queue at their key.
//
//uts:noalloc
func (sh *shard) drain() {
	for i := range sh.in {
		ib := &sh.in[i]
		if !ib.dirty.Load() {
			continue
		}
		ib.mu.Lock()
		msgs := ib.q
		ib.q = ib.spare[:0]
		ib.spare = msgs
		ib.dirty.Store(false)
		ib.mu.Unlock()
		for j := range msgs {
			m := &msgs[j]
			if m.kind == msgReply {
				p := sh.eng.procs[m.dst]
				if m.slot >= 0 {
					p.staged[m.slot].res = m.a
				} else {
					p.callRes = m.a
				}
				p.pendReplies--
				continue
			}
			sh.ops.push(m)
			m.chunks = nil
		}
	}
}

// publish raises this shard's promise (single writer — monotone by
// construction) and kicks any sleeping peer so it can re-read horizons.
//
//uts:noalloc
func (sh *shard) publish(v int64) {
	if v <= sh.pub {
		return
	}
	sh.pub = v
	sh.promise.Store(v)
	for _, o := range sh.eng.shards {
		if o != sh && o.sleeping.Load() != 0 {
			select {
			case o.kick <- struct{}{}:
			default:
			}
		}
	}
}

// maybePublish republishes now+L from the inline fast path at most once
// per lookahead of virtual progress, so peers starve no longer than ~L
// behind a shard running a long inline batch.
//
//uts:noalloc
func (sh *shard) maybePublish(t int64) {
	if t-sh.lastNowPub >= sh.eng.la {
		sh.lastNowPub = t
		sh.publish(t + sh.eng.la)
	}
}

// refreshSafe re-reads every peer's promise, then drains, then commits the
// new safe time — in that order. A message stamped below a peer's promise
// was enqueued before that promise was published (promises are lower
// bounds on all *future* sends), so a drain that follows the promise load
// is guaranteed to see every such message; messages arriving after the
// drain are stamped at or above the promises just read. Loading after
// draining would leave that guarantee with a hole.
//
//uts:noalloc
func (sh *shard) refreshSafe() {
	m := maxVT
	for _, o := range sh.eng.shards {
		if o == sh {
			continue
		}
		if v := o.promise.Load(); v < m {
			m = v
		}
	}
	sh.drain()
	sh.safeT = m
}

// front returns the key prefix of the dispatcher's earliest proc event, if
// it has one. An event parked because the gate held it back — not, as in
// the batched engine, because the heap root came first — may precede the
// root; front swaps the two, which leaves the heap a heap and the slot
// ordered after its root, as dispatcher.next expects.
//
//uts:noalloc
func (sh *shard) front() (t int64, id int, ok bool) {
	e := &sh.pend
	if !sh.heap.empty() {
		e = &sh.heap.a[0]
		if sh.hasPend && sh.pend.less(e) {
			sh.pend, *e = *e, sh.pend
		}
	} else if !sh.hasPend {
		return 0, 0, false
	}
	return e.t, e.p.id, true
}

// horizon is the earliest key this shard could still emit a message from,
// plus lookahead. It is taken over everything pending — heap root, parked
// slot, stalled proc, queued operations: an event the gate is holding back
// sits in the parked slot, not the heap, and may be the earliest of all.
//
//uts:noalloc
func (sh *shard) horizon() int64 {
	m := maxVT
	if t, _, ok := sh.front(); ok {
		m = t
	}
	if sh.ops.len() > 0 && sh.ops.first().t < m {
		m = sh.ops.first().t
	}
	if sh.held != nil {
		m = sh.now
	}
	if m == maxVT {
		return maxVT
	}
	return m + sh.eng.la
}

// clear reports whether a boundary of proc id at time t lies below the
// peers' horizon and ahead of every queued operation. (A stalled proc need
// not be looked for: nothing commits while one is held.)
//
//uts:noalloc
func (sh *shard) clear(t int64, id int) bool {
	return t < sh.safeT && (sh.ops.len() == 0 || keyBefore(t, id, sh.ops.first().t, int(sh.ops.first().pid)))
}

// admits is the cross-shard half of the inline-commit test (the heap root
// is the dispatcher's own, sim.go): the boundary must be clear, after one
// refresh of visibility if need be — cheaper than the park it may save.
//
//uts:noalloc
func (sh *shard) admits(t int64, id int) bool {
	if !sh.clear(t, id) {
		sh.refreshSafe()
		if !sh.clear(t, id) {
			return false
		}
	}
	sh.maybePublish(t)
	return true
}

// foreign reports whether PE dst lives on another shard.
//
//uts:noalloc
func (sh *shard) foreign(dst int) bool { return int(sh.eng.shardOf[dst]) != sh.idx }

// send stamps a message for foreign PE dst with p's next (id, seq) position
// and delivers it to dst's shard. It enforces the promise contract on
// protocols: every cross-shard operation must land at least one lookahead
// after its deciding instant.
//
//uts:noalloc
func (sh *shard) send(p *Proc, dst int, m shardMsg) {
	if m.t-sh.now < sh.eng.la {
		panic("des: cross-shard operation beneath the lookahead — protocol violates the cost model's minimum remote hop")
	}
	m.seq = p.nextSeq()
	m.from = int32(sh.idx)
	m.dst = int32(dst)
	sh.eng.shards[sh.eng.shardOf[dst]].enqueue(sh.idx, m)
}

// remoteCall is Proc.RemoteCall against a foreign PE: enqueue the
// rendezvous request at the completion stamp, advance, and stall at the
// boundary until the owner's reply lands.
func (sh *shard) remoteCall(p *Proc, dst int, d time.Duration, op uint8, a, b int64) int64 {
	p.pendReplies++
	sh.send(p, dst, shardMsg{t: sh.now + int64(d), pid: int32(p.id), kind: msgCall, slot: -1, op: op, a: a, b: b})
	p.Advance(d)
	if p.pendReplies > 0 {
		sh.stall(p)
		p.yield()
	}
	return p.callRes
}

// sendEffect is the message of a Proc.RemoteSend or StageSend against a
// foreign PE: the effect applies in the owner's shard at now+after. A
// committed effect keeps the sender's (pid, seq) position — it lands at the
// sender's completion instant exactly as sequentially; a delayed one orders
// before every proc boundary at its arrival stamp (pid −1).
func (sh *shard) sendEffect(p *Proc, dst int, after time.Duration, delayed bool, op uint8, a, b int64, chunks []stack.Chunk) {
	pid := int32(p.id)
	if delayed {
		pid = -1
	}
	sh.send(p, dst, shardMsg{t: sh.now + int64(after), pid: pid, kind: msgEffect, op: op, a: a, b: b, chunks: chunks})
}

// stageRemote is Proc.StageRemote against a foreign PE: the op just staged
// becomes a rendezvous request stamped with the boundary instant.
func (sh *shard) stageRemote(p *Proc, d time.Duration) {
	slot := p.nstag - 1
	st := &p.staged[slot]
	st.away = true
	p.pendReplies++
	sh.send(p, int(st.dst), shardMsg{t: sh.now + int64(d), pid: int32(p.id), kind: msgCall, slot: int8(slot), op: st.op, a: st.a, b: st.b})
}

// stall holds p at the boundary the clock stands on until its outstanding
// rendezvous replies arrive, and the shard with it. A boundary is reached
// by a pop or an inline commit, either of which required it to lie below
// safeT and to order before everything else pending, and every message
// stamped below safeT is already here: nothing that orders before p can
// still arrive, so while p waits the shard only drains replies, and at most
// one proc is ever held. A proc stalled inside a stepped advance (stepFn
// set) continues in dispatcher context, any other is resumed.
func (sh *shard) stall(p *Proc) { sh.held = p }

// turn is what a shard's gate found to do next.
type turn uint8

const (
	turnWait turn = iota // the earliest pending item lies beyond safeT or awaits replies
	turnProc             // the dispatcher's earliest proc event
	turnOp               // the earliest queued remote operation
	turnHeld             // the stalled proc: its replies are in
)

// pick finds the earliest item pending in the shard — the stalled proc if
// there is one, else proc event or queued operation — and reports it if it
// may run now (after a drain and horizon refresh).
//
//uts:noalloc
func (sh *shard) pick() turn {
	if sh.held != nil {
		if sh.held.pendReplies > 0 {
			return turnWait
		}
		return turnHeld
	}
	t, id, what := maxVT, 0, turnWait
	if pt, pid, ok := sh.front(); ok {
		t, id, what = pt, pid, turnProc
	}
	if sh.ops.len() > 0 {
		if o := sh.ops.first(); keyBefore(o.t, int(o.pid), t, id) {
			t, what = o.t, turnOp
		}
	}
	if t >= sh.safeT {
		return turnWait
	}
	return what
}

// ready is the shard's gate, asked by dispatch before every pop. It runs
// whatever precedes the dispatcher's earliest proc event — arrived remote
// operations, stalled procs whose replies are in — and sleeps while nothing
// may run, until that event is safe to execute (true). It returns false
// once the run is over (global completion, or failure).
func (sh *shard) ready() bool {
	for {
		sh.drain()
		what := sh.pick()
		if what == turnWait {
			// Nothing executable against the cached horizon: refresh
			// once before paying for a sleep.
			sh.refreshSafe()
			if what = sh.pick(); what == turnWait {
				if sh.sleep() {
					continue
				}
				return false
			}
		}
		switch what {
		case turnProc:
			return true
		case turnOp:
			m := sh.ops.pop()
			res := sh.eng.sim.remote(int(m.dst), m.op, m.a, m.b, m.chunks)
			if m.kind == msgCall {
				sh.eng.shards[m.from].enqueue(sh.idx, shardMsg{kind: msgReply, dst: m.pid, slot: m.slot, a: res})
			}
		case turnHeld:
			hp := sh.held
			sh.held = nil
			if hp.stepFn == nil {
				sh.run(hp, 0)
			} else {
				sh.contStep(hp)
			}
		}
	}
}

// sleep publishes this shard's horizon and blocks until a kick or global
// completion. Returns false when the dispatch loop should exit. The
// sleeping flag is raised before the final drain-and-recheck, pairing
// with enqueue's dirty-then-kick order, so a message can never slip in
// unnoticed between the check and the block.
func (sh *shard) sleep() bool {
	eng := sh.eng
	sh.publish(sh.horizon())
	sh.sleeping.Store(1)
	n := eng.sleepers.Add(1)
	sh.refreshSafe()
	if sh.pick() != turnWait {
		sh.sleeping.Store(0)
		eng.sleepers.Add(-1)
		return true
	}
	if int(n) == len(eng.shards) {
		eng.checkDeadlock()
	}
	alive := true
	select {
	case <-sh.kick:
	case <-eng.done:
		alive = false
	}
	sh.sleeping.Store(0)
	eng.sleepers.Add(-1)
	if alive {
		select {
		case <-eng.done:
			alive = false
		default:
		}
	}
	return alive
}

// checkDeadlock runs on the last shard to fall asleep. If every shard
// sleeps with an infinite horizon, no proc event exists or can ever be
// created anywhere — promises are monotone, only proc events generate
// messages, and finished runs close done before their last dispatcher
// sleeps — so any unfinished procs are mutually blocked: the sharded form
// of the sequential engine's drained-queue deadlock.
func (eng *shardEngine) checkDeadlock() {
	for _, o := range eng.shards {
		if o.sleeping.Load() == 0 || o.promise.Load() != maxVT {
			return
		}
	}
	blocked := 0
	for _, sh := range eng.shards {
		blocked += sh.nprocs - sh.finished
	}
	if blocked == 0 {
		return
	}
	eng.fail(fmt.Errorf("des: deadlock: %d of %d PEs still blocked (sharded, %d shards)",
		blocked, len(eng.procs), len(eng.shards)))
}
