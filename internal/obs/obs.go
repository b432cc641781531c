// Package obs is the observability substrate of the reproduction: a
// low-overhead, per-PE ring-buffer event tracer plus log-bucket (HDR-style)
// latency histograms, wired through every scheduler in internal/core,
// internal/des, and internal/cluster.
//
// Design constraints, in order:
//
//  1. A disabled tracer must cost nothing. Every recording method is
//     defined on a pointer receiver and begins with a nil check, so
//     workers hold a possibly-nil *Lane and call it unconditionally —
//     one predictable compare-and-branch on the protocol path, zero on
//     the per-node hot loop (no events are emitted per tree node).
//  2. An enabled tracer must not perturb the schedule it observes: each
//     PE records into its own fixed-size ring with no locks and no
//     allocation; the only shared-memory operations are uncontended
//     atomic stores to memory the recording PE owns.
//  3. Events must be inspectable while the run is still going (and under
//     the race detector): every ring word is accessed atomically and each
//     slot carries a seqlock stamp, so a concurrent Snapshot never
//     observes a torn event — a slot being overwritten is detected and
//     dropped rather than returned half-written.
//
// A tracer has one clock, chosen when it is built: New stamps events with
// wall ns since its epoch, NewVirtual with the ns of DES time each RecV is
// handed. An event carries that one timestamp, so the same exporters
// serve real goroutine runs and discrete-event runs. On top of the rings
// sit three consumers: a Chrome trace_event JSON exporter
// (WriteChromeTrace — open the file in ui.perfetto.dev), a merged
// time-ordered text timeline (WriteTimeline), and histogram aggregation
// (Tracer.Summary) for steal round-trip latency, probe-to-work distance,
// chunk size, and per-state dwell times.
package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Kind enumerates the steal-protocol event taxonomy. The set is a
// superset of what any one scheduler emits: the shared-memory family has
// no victim-side protocol (a steal is a remote lock-and-take), so it
// emits no StealGrant/StealDeny; the request/response protocols
// (upc-distmem, mpi-ws, cluster) emit those from the victim's lane.
type Kind uint8

const (
	// KindStateChange: the PE moved to Figure-1 state Value (the
	// internal/stats state codes: 0 working, 1 searching, 2 stealing,
	// 3 idle).
	KindStateChange Kind = iota
	// KindProbeStart: a work-availability probe of PE Other was issued.
	// Only the discrete-event simulator emits it (there the probe has
	// latency); real implementations emit just KindProbeResult, since a
	// probe is a single remote read.
	KindProbeStart
	// KindProbeResult: the probe of PE Other answered workAvail=Value.
	KindProbeResult
	// KindStealRequest: this PE asked PE Other for work (claimed the
	// request word, sent the steal message, or began a lock-and-take).
	KindStealRequest
	// KindStealGrant: this PE, as a victim, granted Value chunks to the
	// thief PE Other.
	KindStealGrant
	// KindStealDeny: this PE, as a victim, denied the thief PE Other.
	KindStealDeny
	// KindStealFail: this PE's own steal attempt at PE Other came back
	// empty (CAS lost, pool drained, or an explicit denial arrived).
	KindStealFail
	// KindChunkTransfer: this PE's steal from PE Other succeeded and
	// Value nodes landed on its stacks.
	KindChunkTransfer
	// KindRelease: the PE moved a chunk local → shared/steal region;
	// Value is the stealable-chunk count after the release.
	KindRelease
	// KindReacquire: the PE moved a chunk back shared → local; Value is
	// the number of nodes reacquired.
	KindReacquire
	// KindTermEnter: the PE entered the termination barrier.
	KindTermEnter
	// KindTermExit: the PE left the barrier to resume work.
	KindTermExit
	// KindRPCRetry: an RPC to PE Other failed its deadline and is being
	// retried; Value is the attempt number (1 = first retry). Only the
	// real-TCP cluster emits it.
	KindRPCRetry
	// KindPeerDead: this PE declared PE Other dead after its RPCs
	// exhausted their retries; Other is removed from probe cycles and
	// the run degrades to the surviving membership.
	KindPeerDead
	// KindHandoffReclaim: this PE withdrew Value reserved chunks back
	// into its pool because thief PE Other never fetched them (it gave
	// up on the exchange, or died). Only the real-TCP cluster emits it.
	KindHandoffReclaim
	// KindDuplicateTake: this PE took (read) Value chunks from PE Other's
	// relaxed ring but lost the multiplicity-ledger arbitration to a
	// concurrent claimer, so the copies were discarded before exploration.
	// Only upc-term-relaxed emits it (DESIGN.md §14).
	KindDuplicateTake
	numKinds
)

// NumKinds is the number of declared event kinds; per-kind tallies
// (Sampler counters, /metrics families) are indexed by Kind below it.
const NumKinds = int(numKinds)

// A kindRow spells what one kind's Other and Value mean, once, for both
// exporters: the kind's name; peer, what stands before Other in the
// timeline ("→ PE" toward it, "← PE" from it, "PE", or "" when Other means
// nothing), which also puts Other in Chrome's args; and value, Value's label
// in the timeline and its key in Chrome's args ("" when Value means
// nothing). KindStateChange's Value is a state code, spelt by StateName.
type kindRow struct{ name, peer, value string }

var kindRows = [numKinds]kindRow{
	KindStateChange:    {"state-change", "", ""},
	KindProbeStart:     {"probe-start", "→ PE", ""},
	KindProbeResult:    {"probe-result", "← PE", "avail"},
	KindStealRequest:   {"steal-request", "→ PE", ""},
	KindStealGrant:     {"steal-grant", "→ PE", "chunks"},
	KindStealDeny:      {"steal-deny", "→ PE", ""},
	KindStealFail:      {"steal-fail", "← PE", ""},
	KindChunkTransfer:  {"chunk-transfer", "← PE", "nodes"},
	KindRelease:        {"release", "", "avail"},
	KindReacquire:      {"reacquire", "", "nodes"},
	KindTermEnter:      {"term-enter", "", ""},
	KindTermExit:       {"term-exit", "", ""},
	KindRPCRetry:       {"rpc-retry", "→ PE", "attempt"},
	KindPeerDead:       {"peer-dead", "PE", ""},
	KindHandoffReclaim: {"handoff-reclaim", "← PE", "chunks"},
	KindDuplicateTake:  {"duplicate-take", "← PE", "chunks"},
}

// row returns the kind's row; an undeclared kind has a name and no fields.
func (k Kind) row() kindRow {
	if int(k) < len(kindRows) {
		return kindRows[k]
	}
	return kindRow{name: fmt.Sprintf("Kind(%d)", int(k))}
}

// String names the kind in the hyphenated vocabulary used by the
// timeline and Chrome exporters.
func (k Kind) String() string { return k.row().name }

// NumStates is the number of Figure-1 states (mirrors internal/stats,
// which this package must not import: Working, Searching, Stealing,
// Idle).
const NumStates = 4

// StateName names a Figure-1 state code as carried by KindStateChange
// events (same order as internal/stats.States).
func StateName(code int64) string {
	names := [NumStates]string{"working", "searching", "stealing", "idle"}
	if code >= 0 && code < NumStates {
		return names[code]
	}
	return fmt.Sprintf("state(%d)", code)
}

// Event is one recorded protocol event.
type Event struct {
	// Seq is the per-lane sequence number, starting at 0. Gaps never
	// occur within a snapshot except by ring wraparound (oldest events
	// overwritten).
	Seq uint64
	// PE is the recording processing element.
	PE int32
	// Other is the peer PE the event concerns (victim for thief-side
	// kinds, thief for victim-side kinds), or −1 when there is none.
	Other int32
	// Kind is the event type.
	Kind Kind
	// Value is the kind-specific payload (see the Kind constants).
	Value int64
	// T is the timestamp in ns on the recording tracer's clock: since the
	// tracer epoch for New, virtual (DES) time for NewVirtual.
	T int64
}

// String renders the event as one timeline line (without the timestamp
// column, which the timeline writer owns), as its kind's row spells it.
func (e Event) String() string {
	r := e.Kind.row()
	if e.Kind == KindStateChange {
		return r.name + " → " + StateName(e.Value)
	}
	line := r.name
	if r.peer != "" {
		line += fmt.Sprintf(" %s %d", r.peer, e.Other)
	}
	if r.value != "" {
		line += fmt.Sprintf(" %s=%d", r.value, e.Value)
	}
	return line
}

// DefaultRingSize is the per-PE ring capacity (events) used when a
// non-positive size is requested: large enough to hold the full protocol
// history of the bench trees, small enough that a 1024-PE tracer stays
// around 268 MB (32-byte slots).
const DefaultRingSize = 1 << 13

// Tracer owns one event lane per PE plus the shared epoch. The zero
// value of *Tracer (nil) is a valid, disabled tracer: every method is
// nil-safe, and Lane returns a nil *Lane whose recording methods are
// no-ops.
type Tracer struct {
	epoch   time.Time
	virtual bool
	lanes   []Lane
}

// New creates a tracer with pes lanes of ringSize events each
// (DefaultRingSize when ringSize <= 0), stamping events with wall time
// relative to now.
func New(pes, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	t := &Tracer{epoch: time.Now(), lanes: make([]Lane, pes)}
	for i := range t.lanes {
		l := &t.lanes[i]
		l.t = t
		l.pe = int32(i)
		l.ring.init(ringSize)
		l.stealT0 = -1
	}
	return t
}

// NewVirtual is New for discrete-event runs: events are stamped with the
// virtual instants RecV is given, and histograms measure virtual durations.
func NewVirtual(pes, ringSize int) *Tracer {
	t := New(pes, ringSize)
	t.virtual = true
	return t
}

// Virtual reports whether the tracer's clock is virtual time. Nil-safe.
func (t *Tracer) Virtual() bool { return t != nil && t.virtual }

// PEs returns the lane count. Nil-safe.
func (t *Tracer) PEs() int {
	if t == nil {
		return 0
	}
	return len(t.lanes)
}

// Lane returns PE pe's lane, or nil when the tracer is nil or pe is out
// of range — callers hold the result and record into it unconditionally.
func (t *Tracer) Lane(pe int) *Lane {
	if t == nil || pe < 0 || pe >= len(t.lanes) {
		return nil
	}
	return &t.lanes[pe]
}

// wallNow returns ns since the tracer epoch (monotonic).
func (t *Tracer) wallNow() int64 { return int64(time.Since(t.epoch)) }

// Events returns a merged snapshot of every lane, ordered by timestamp
// with (PE, Seq) as the tie-break, so simultaneous DES events appear in a
// deterministic order. Safe to call while PEs are still recording; see
// Lane.Snapshot for the consistency guarantee. Nil-safe: a nil tracer has
// no events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var all []Event
	for i := range t.lanes {
		all = t.lanes[i].ring.snapshot(all)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		return a.Seq < b.Seq
	})
	return all
}

// Lane is one PE's recording handle: a private event ring plus the
// owner-only histogram state that turns raw events into latency
// measurements as they are recorded (the rings wrap; the histograms do
// not, so summaries cover the whole run even when the event history does
// not). All recording methods are owner-only and nil-safe.
type Lane struct {
	t    *Tracer
	pe   int32
	ring ring

	hists Hists

	// nodes is the lane's live progress counter: tree nodes expanded by
	// the owning PE, flushed in batches from the worker's own counter at
	// its protocol cadence (release/reacquire/steal boundaries), never
	// per node. Atomic so the Sampler and the cluster metrics engine can
	// read it from any goroutine while the owner keeps writing.
	nodes atomic.Int64

	// stealT0 is the pending steal's start timestamp (−1 when no steal
	// is in flight); searchProbes counts probes since work was last
	// held; curState/stateSince drive the dwell histograms.
	stealT0      int64
	searchProbes int64
	curState     int64
	stateSince   int64
}

// Hists is the per-lane histogram set. Durations are wall ns for real
// runs and virtual ns for DES runs; ProbeDistance counts probes and
// ChunkSize counts nodes.
type Hists struct {
	// StealLatency is the request→outcome round trip of this PE's own
	// steal attempts, successful (KindChunkTransfer) and failed
	// (KindStealFail) alike — for the asynchronous protocols the denial
	// round trip is exactly the cost the paper's Section 3.3.3 design
	// bounds.
	StealLatency Histogram
	// ProbeDistance is the number of probes issued between losing work
	// and landing a successful steal — the "distance to work" the rapid
	// diffusion of Section 3.3.2 shrinks.
	ProbeDistance Histogram
	// ChunkSize is the nodes obtained per successful steal.
	ChunkSize Histogram
	// Dwell is the time per visit spent in each Figure-1 state, indexed
	// by the internal/stats state codes.
	Dwell [NumStates]Histogram
}

// Rec records an event at the current wall time — the form the real
// goroutine implementations use, on a tracer built by New. No-op on a nil
// lane.
func (l *Lane) Rec(k Kind, other int32, value int64) {
	if l == nil {
		return
	}
	l.rec(k, other, value, l.t.wallNow())
}

// RecV records an event at the given virtual instant and reads no other
// clock — the form the discrete-event simulators use, on a tracer built
// by NewVirtual. No-op on a nil lane.
func (l *Lane) RecV(k Kind, other int32, value int64, virt time.Duration) {
	if l == nil {
		return
	}
	l.rec(k, other, value, int64(virt))
}

// rec feeds the histograms and appends the event to the ring, both at
// clock, the event's instant on the tracer's timebase.
func (l *Lane) rec(k Kind, other int32, value, clock int64) {
	switch k {
	case KindStateChange:
		l.hists.Dwell[stateIndex(l.curState)].Observe(clock - l.stateSince)
		l.curState = value
		l.stateSince = clock
	case KindProbeResult:
		l.searchProbes++
	case KindStealRequest:
		l.stealT0 = clock
	case KindStealFail:
		if l.stealT0 >= 0 {
			l.hists.StealLatency.Observe(clock - l.stealT0)
			l.stealT0 = -1
		}
	case KindChunkTransfer:
		if l.stealT0 >= 0 {
			l.hists.StealLatency.Observe(clock - l.stealT0)
			l.stealT0 = -1
		}
		l.hists.ProbeDistance.Observe(l.searchProbes)
		l.searchProbes = 0
		l.hists.ChunkSize.Observe(value)
	}
	l.ring.record(k, l.pe, other, value, clock)
}

// stateIndex clamps a state code into the dwell array.
func stateIndex(code int64) int {
	if code < 0 || code >= NumStates {
		return 0
	}
	return int(code)
}

// Snapshot appends the lane's retained events (oldest first) to dst and
// returns the result. It is safe to call concurrently with the owner
// recording: a slot being overwritten at that instant is skipped, never
// returned torn. Nil-safe.
func (l *Lane) Snapshot(dst []Event) []Event {
	if l == nil {
		return dst
	}
	return l.ring.snapshot(dst)
}

// SnapshotSince appends the lane's retained events with sequence number
// >= since (oldest first) to dst. It returns the extended slice, the
// cursor to pass next time (one past the newest sequence examined), and
// how many events in [since, cursor) were overwritten before this reader
// could copy them — nonzero means the reader fell at least one full ring
// revolution behind. Incremental consumers (the Sampler) re-read only
// what is new; the same seqlock guarantees as Snapshot apply. Nil-safe.
func (l *Lane) SnapshotSince(since uint64, dst []Event) (events []Event, next, missed uint64) {
	if l == nil {
		return dst, since, 0
	}
	return l.ring.snapshotSince(since, dst)
}

// AddNodes adds delta to the lane's live node-progress counter. Owner
// cadence: workers flush their private node counts here at protocol
// boundaries (release, reacquire, steal, termination), never per node, so
// the hot loop stays free of shared-memory traffic. Nil-safe, no-op when
// tracing is off.
func (l *Lane) AddNodes(delta int64) {
	if l == nil {
		return
	}
	l.nodes.Add(delta)
}

// LiveNodes returns the lane's live node-progress counter. Safe from any
// goroutine. Nil-safe.
func (l *Lane) LiveNodes() int64 {
	if l == nil {
		return 0
	}
	return l.nodes.Load()
}

// Recorded returns the number of events the lane has ever recorded
// (possibly more than the ring retains). Nil-safe.
func (l *Lane) Recorded() int64 {
	if l == nil {
		return 0
	}
	return int64(l.ring.pos.Load())
}
