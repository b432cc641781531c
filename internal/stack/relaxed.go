package stack

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/uts"
)

// Relaxed is the fence-free shared (steal) region of the upc-term-relaxed
// algorithm: a fixed ring of versioned chunk slots written by a single
// owner with plain atomic stores — no lock, no read-modify-write on the
// publish path — and claimed by thieves with a load+store handshake that
// may, rarely, let two claimers take the same chunk.
//
// The design follows Castañeda & Piña's fence-free work stealing with
// multiplicity: mutual exclusion on the ring is abandoned, and correctness
// moves to accounting. Every published chunk carries a unique, monotonic
// sequence number (its chunk ID, assigned at release), and a per-ring
// ledger holds one word per ID. Taking a chunk from the ring (reading its
// payload) is unarbitrated and may happen more than once; *exploring* it
// is finalized by a single compare-and-swap on the ledger word, so exactly
// one claimer wins each ID and every loser discards its copy and reports a
// duplicate take. Final node/leaf counts are therefore exact by
// construction — the ledger dedups re-taken subtrees before they are
// explored, not after.
//
// Protocol summary (S = RelaxedSlots, seq = monotonic publish counter):
//
//	owner publish   write chunk into ledger entry seq (plain, pre-publish),
//	                then one atomic store of pub(seq) into slot bot%S.
//	thief claim     scan the slot words for the oldest pub(seq); check the
//	                ledger word is unclaimed; read the chunk (the take);
//	                store claim(seq,tag) into the slot; CAS the ledger word.
//	                Losing the CAS after the read is a duplicate take.
//	owner retract   newest-first over its private shadow of published IDs:
//	                CAS the ledger word, winner keeps the chunk. The owner
//	                CASes before reading, so it never duplicate-takes.
//
// Slot words are advisory: the unique sequence numbers make torn or stale
// slot states harmless (a stale claim store can clobber a newer publish's
// slot word — the owner detects the sequence mismatch against its shadow
// and re-arbitrates through the ledger, reclaiming the chunk if it was
// never consumed). The ledger is the single source of truth.
//
// Affinity: slots and ledger live in the owner's partition. The owner's
// publish path is one local store; a thief pays one-sided remote reads for
// the scan and a remote store+CAS for the claim — two remote references in
// place of the lock-based path's lock round trip (internal/core charges
// them through pgas.Domain).
type Relaxed struct {
	slots [RelaxedSlots]relaxedSlot
	// led is the ledger: one entry per published sequence number, in
	// fixed-size immutable segments behind a base offset. The outer
	// relaxedLedger is replaced (never mutated) when it grows, and the
	// fully-consumed prefix is dropped by advancing base — an unconsumed
	// sequence is always within the last RelaxedSlots publishes (a
	// pinned position blocks bot, see Publish), so the live window is at
	// most two segments and ledger memory stays O(1). Claimers holding
	// an older ledger pointer still read valid segments; a sequence
	// below base reads as consumed.
	led atomic.Pointer[relaxedLedger]

	// Owner-private state. The single-writer discipline is what keeps the
	// publish path free of read-modify-write operations.
	ownerMark int32  // ledger mark for owner retracts (owner id + 1)
	seq       uint64 // last assigned publish sequence number
	bot       uint64 // next publish position (slot = bot % RelaxedSlots)
	// shadow[p] is seq<<1 | consumedBit for the sequence last published at
	// position p (0 = never published); the low bit records the owner's
	// knowledge that the sequence is consumed. One word per position keeps
	// the publish and retract bookkeeping to a single array access.
	shadow [RelaxedSlots]uint64
	live   int // published positions not yet known consumed
	// scanTop is the retract scan cursor: every position strictly above it
	// (1-based absolute position index) is known consumed, so a retract
	// resumes where the previous one stopped instead of re-skipping the
	// consumed suffix. Publish resets it to bot.
	scanTop uint64
	// ownLed / ownSeg cache the owner's view of the ledger so the publish
	// and retract hot paths skip the atomic led load (and, for publishes
	// within one segment, the segment lookup entirely). ownSeg covers
	// sequence numbers (ownSegGi*relaxedSegSize, (ownSegGi+1)*relaxedSegSize].
	ownLed   *relaxedLedger
	ownSeg   *relaxedSeg
	ownSegGi uint64
}

// RelaxedSlots is the fixed ring capacity in chunks. When the ring is full
// (no slot's previous occupant is known consumed), the owner skips the
// release and keeps exploring locally — bounded-buffer semantics, the same
// back-pressure a full shared region exerts in the lock-based algorithm.
const RelaxedSlots = 64

// relaxedSegSize is the ledger segment granularity: ledger memory grows
// (and is pruned) in steps of this many published chunks. Large segments
// keep the allocator off the owner's publish path — one large-object
// allocation amortized over 2048 publishes — while the base-offset prune
// in grow still bounds the live ledger to two segments.
const relaxedSegSize = 2048

// relaxedTagBits is the width of the claim-tag field in a slot word.
const relaxedTagBits = 16
const relaxedTagMask = (1 << relaxedTagBits) - 1

// relaxedSlot is one versioned ring slot. The word encodes
// seq<<relaxedTagBits | tagField: tagField 0 is a publication, nonzero is
// a claim marker (claimer tag + 1). Sequence numbers are never reused, so
// slot-word ABA is impossible.
type relaxedSlot struct{ w atomic.Uint64 }

// relaxedSeg is one ledger segment: the arbitration word and the chunk
// payload for relaxedSegSize consecutive sequence numbers. state is 0
// while unconsumed, consumer tag + 1 after. The payload is stored
// compressed — node pointer plus length, 16 bytes per sequence instead of
// a 24-byte slice header next to an 8-byte word — because every published
// sequence allocates its entry exactly once and the allocator's zeroing
// of fresh segments is the dominant owner-side overhead after the slot
// store itself. ptr and n are written exactly once by the owner before
// the sequence is published (the publishing slot store orders them for
// claimers) and never written again, so plain reads after an atomic slot
// load are race-free.
type relaxedSeg struct {
	state [relaxedSegSize]atomic.Int32
	n     [relaxedSegSize]int32
	ptr   [relaxedSegSize]*uts.Node
}

// payload reconstructs the chunk published at entry i. The header was
// torn into ptr/n at publish; length and capacity coincide, which is
// harmless — takers only read the nodes (PushAll copies them into the
// local deque).
func (g *relaxedSeg) payload(i int) Chunk {
	if g.n[i] == 0 {
		return nil
	}
	return unsafe.Slice(g.ptr[i], g.n[i])
}

// relaxedLedger is the immutable outer view of the ledger: segs[i] holds
// sequence numbers ((base+i)*relaxedSegSize, (base+i+1)*relaxedSegSize].
// Segments are never recycled — a dropped segment stays valid (and
// settled) for any claimer still holding a pointer to it; the garbage
// collector reclaims it when the last stale claimer lets go.
type relaxedLedger struct {
	base uint64 // whole segments dropped off the front
	segs []*relaxedSeg
}

// NewRelaxed returns an empty ring owned by thread owner. Only the owner
// may call Publish, Retract, Full, Live and Unconsumed; any thread may
// call Claim.
func NewRelaxed(owner int) *Relaxed {
	return &Relaxed{ownerMark: int32(owner) + 1}
}

func pubWord(s uint64) uint64 { return s << relaxedTagBits }

func claimWord(s uint64, tag int) uint64 {
	return s<<relaxedTagBits | uint64(tag&(relaxedTagMask-1)) + 1
}

// entry locates the ledger entry of sequence s. A nil return means the
// segment was consumed and dropped (s is below the ledger base).
func (r *Relaxed) entry(s uint64) (*relaxedSeg, int) {
	led := r.led.Load()
	gi := (s - 1) / relaxedSegSize
	if led == nil || gi < led.base || gi-led.base >= uint64(len(led.segs)) {
		return nil, 0
	}
	return led.segs[gi-led.base], int((s - 1) % relaxedSegSize)
}

// ownerEntry is entry for the owner's publish path, growing the ledger
// when s crosses into a new segment. Growth replaces the outer ledger
// view, so concurrent claimers keep reading through their own loaded
// pointer. The common case — s lands in the same segment as the previous
// publish — is a cached-pointer hit with no atomic load.
func (r *Relaxed) ownerEntry(s uint64) (*relaxedSeg, int) {
	gi := (s - 1) / relaxedSegSize
	if gi != r.ownSegGi || r.ownSeg == nil {
		led := r.ownLed
		if led == nil || gi-led.base >= uint64(len(led.segs)) {
			r.grow()
			led = r.ownLed
		}
		r.ownSeg, r.ownSegGi = led.segs[gi-led.base], gi
	}
	return r.ownSeg, int((s - 1) % relaxedSegSize)
}

// ownEntry is the owner's non-growing ledger lookup (retract and resolve
// paths): the same bounds discipline as entry, through the owner's plain
// cached view instead of the atomic pointer.
func (r *Relaxed) ownEntry(s uint64) (*relaxedSeg, int) {
	led := r.ownLed
	gi := (s - 1) / relaxedSegSize
	if led == nil || gi < led.base || gi-led.base >= uint64(len(led.segs)) {
		return nil, 0
	}
	return led.segs[gi-led.base], int((s - 1) % relaxedSegSize)
}

// grow appends one ledger segment and drops the fully-consumed prefix by
// advancing base — the pruning that keeps ledger memory O(1) no matter
// how many chunks a run publishes. Owner-only, amortized over
// relaxedSegSize publishes.
func (r *Relaxed) grow() {
	old := r.ownLed
	led := &relaxedLedger{}
	if old != nil {
		led.base = old.base
		// Drop every whole segment below the floor: nothing in it can
		// still be unconsumed.
		if floorSeg := (r.pruneFloor() - 1) / relaxedSegSize; floorSeg > led.base {
			drop := floorSeg - led.base
			if drop > uint64(len(old.segs)) {
				drop = uint64(len(old.segs))
			}
			led.base += drop
			led.segs = append(led.segs, old.segs[drop:]...)
		} else {
			led.segs = append(led.segs, old.segs...)
		}
	}
	led.segs = append(led.segs, &relaxedSeg{})
	r.ownLed = led
	r.led.Store(led)
}

// pruneFloor returns the smallest sequence number that may still be
// unconsumed: every ID below it is ledger-settled, so segments entirely
// below the floor can be released. An ID not present in the owner's
// current shadow was resolved before its position was reused.
func (r *Relaxed) pruneFloor() uint64 {
	floor := r.seq + 1
	for p := 0; p < RelaxedSlots; p++ {
		if sh := r.shadow[p]; sh != 0 && sh&1 == 0 && sh>>1 < floor {
			floor = sh >> 1
		}
	}
	return floor
}

// resolve settles a position whose slot word no longer matches its
// publication: either a claimer consumed it, or a stale claim store
// clobbered a live publication. The ledger CAS arbitrates; winning means
// the chunk was never consumed and the owner reclaims it.
func (r *Relaxed) resolve(s uint64) (Chunk, bool) {
	seg, i := r.ownEntry(s)
	if seg == nil {
		return nil, false // pruned: consumed long ago
	}
	if seg.state[i].CompareAndSwap(0, r.ownerMark) {
		return seg.payload(i), true
	}
	return nil, false
}

// Full reports whether the next publish position still holds an
// unconsumed publication — the owner-side cheap check (one atomic load)
// that gates release attempts while the ring is saturated.
func (r *Relaxed) Full() bool {
	p := r.bot % RelaxedSlots
	sh := r.shadow[p]
	return sh != 0 && sh&1 == 0 && r.slots[p].w.Load() == pubWord(sh>>1)
}

// Publish makes c stealable: it writes the chunk into the ledger entry of
// a fresh sequence number and publishes with a single atomic slot store —
// the entire owner-side release is store-only. It reports false (and
// leaves c unpublished) when the ring is full. The returned chunk is
// non-nil in the rare case where resolving the reused slot reclaimed a
// clobbered, never-consumed publication: the caller owns it again and
// must put it back to work.
//
// The ledger entry (pointer and count) must be complete before the slot
// store makes the sequence number visible to thieves — make shape
// ("Publish orders") pins both ledger writes above the one slot store.
func (r *Relaxed) Publish(c Chunk) (Chunk, bool) {
	var recovered Chunk
	p := r.bot % RelaxedSlots
	if sh := r.shadow[p]; sh != 0 && sh&1 == 0 {
		prev := sh >> 1
		if r.slots[p].w.Load() == pubWord(prev) {
			return nil, false // still published and unconsumed: ring full
		}
		if rec, ok := r.resolve(prev); ok {
			recovered = rec
		}
		r.shadow[p] = sh | 1
		r.live--
	}
	r.seq++
	s := r.seq
	seg, i := r.ownerEntry(s)
	if len(c) > 0 {
		seg.ptr[i] = &c[0]
	}
	seg.n[i] = int32(len(c))
	r.slots[p].w.Store(pubWord(s))
	r.shadow[p] = s << 1
	r.bot++
	r.live++
	r.scanTop = r.bot
	return recovered, true
}

// Retract takes back the newest chunk the owner still owns, newest-first
// to mirror the lock-based reacquire (work nearest the owner's current
// exploration). The owner arbitrates through the ledger before touching
// the payload, so a retract never duplicates a thief's take; positions
// lost to thieves are marked consumed and skipped on later calls. It
// reports false once every published chunk has been consumed — by the
// owner or by thieves — which is the owner's proof that no published work
// remains before it declares itself out of work.
func (r *Relaxed) Retract() (Chunk, bool) {
	if r.live == 0 {
		return nil, false
	}
	lo := uint64(1)
	if r.bot > RelaxedSlots {
		lo = r.bot - RelaxedSlots + 1
	}
	// Every position above scanTop is already consumed (the cursor only
	// moves down past consumed positions, and Publish resets it), so the
	// scan resumes where the previous retract stopped.
	for pos := r.scanTop; pos >= lo; pos-- {
		p := (pos - 1) % RelaxedSlots
		sh := r.shadow[p]
		if sh == 0 || sh&1 != 0 {
			r.scanTop = pos - 1
			continue
		}
		s := sh >> 1
		r.shadow[p] = sh | 1
		r.live--
		r.scanTop = pos - 1
		seg, i := r.ownEntry(s)
		if seg == nil {
			continue // pruned: consumed
		}
		if seg.state[i].CompareAndSwap(0, r.ownerMark) {
			return seg.payload(i), true
		}
		// A thief won this ID; keep scanning older positions.
	}
	return nil, false
}

// Claim takes the oldest published chunk on behalf of thief tag. It scans
// the slot words once (one-sided reads), then runs the load+store
// handshake on candidates oldest-first: ledger check, payload read (the
// take), claim-marker store, ledger CAS. dups counts duplicate takes —
// candidates whose payload this thief read and then lost to a concurrent
// claimer — which the caller surfaces in the run statistics. ok reports
// whether a chunk was won.
func (r *Relaxed) Claim(tag int) (c Chunk, dups int, ok bool) {
	var snap [RelaxedSlots]uint64
	for p := 0; p < RelaxedSlots; p++ {
		snap[p] = r.slots[p].w.Load()
	}
	for {
		best := -1
		var bs uint64
		for p := 0; p < RelaxedSlots; p++ {
			w := snap[p]
			if w == 0 || w&relaxedTagMask != 0 {
				continue // empty or claim marker
			}
			if s := w >> relaxedTagBits; best < 0 || s < bs {
				best, bs = p, s
			}
		}
		if best < 0 {
			return nil, dups, false
		}
		snap[best] = 0
		t := r.takeSnapshot(best, bs)
		if !t.ok {
			continue
		}
		got, dup := r.commitTake(t, tag)
		if dup {
			dups++
		}
		if got != nil {
			return got, dups, true
		}
	}
}

// relaxedTake is an in-flight claim: the chunk has been taken (read) but
// not yet committed through the ledger.
type relaxedTake struct {
	p   int
	s   uint64
	seg *relaxedSeg
	i   int
	c   Chunk
	ok  bool
}

// takeSnapshot performs the read half of the claim handshake on the chunk
// published as sequence s at position p: skip if the ledger already shows
// a consumer, otherwise take (read) the payload. Between this read and
// commitTake the chunk may also be taken by others — that window is the
// protocol's multiplicity.
func (r *Relaxed) takeSnapshot(p int, s uint64) (t relaxedTake) {
	seg, i := r.entry(s)
	if seg == nil || seg.state[i].Load() != 0 {
		return t // consumed (or pruned): not a take, nothing to dedup
	}
	t.p, t.s, t.seg, t.i = p, s, seg, i
	t.c = seg.payload(i)
	t.ok = true
	return t
}

// commitTake performs the store half of the handshake: the claim-marker
// store into the slot word (plain store — this is what can clobber a
// newer publication when stale, and what the owner's shadow recovery
// handles), then the ledger CAS that finalizes exactly one consumer.
// dup reports that the taken chunk was lost to a concurrent claimer.
func (r *Relaxed) commitTake(t relaxedTake, tag int) (c Chunk, dup bool) {
	r.slots[t.p].w.Store(claimWord(t.s, tag))
	if t.seg.state[t.i].CompareAndSwap(0, int32(tag)+1) {
		return t.c, false
	}
	return nil, true
}

// Live returns the owner's estimate of stealable chunks: published
// positions whose consumption the owner has not yet observed. It may
// overestimate (thief consumptions are discovered lazily) but never
// underestimates, so a zero is a guarantee of an empty ring.
func (r *Relaxed) Live() int { return r.live }

// Unconsumed counts published sequence numbers whose ledger word is still
// unclaimed — the end-of-run accounting check. A drained ring (Retract
// exhausted) must report zero: every chunk ever published was finalized by
// exactly one consumer. Owner-only.
func (r *Relaxed) Unconsumed() int {
	led := r.led.Load()
	if led == nil {
		return 0
	}
	n := 0
	for idx, seg := range led.segs {
		base := (led.base + uint64(idx)) * relaxedSegSize
		for i := 0; i < relaxedSegSize && base+uint64(i) < r.seq; i++ {
			if seg.state[i].Load() == 0 {
				n++
			}
		}
	}
	return n
}

// Published returns the number of chunks ever published (the high water
// mark of sequence numbers). Owner-only; for accounting and tests.
func (r *Relaxed) Published() uint64 { return r.seq }
