package obs

import "sync/atomic"

// ring is a single-writer, many-reader event ring. The writer (the
// owning PE) never blocks, never allocates, and takes no locks; readers
// may snapshot at any time, including while the writer is recording.
//
// Each slot is slotWords atomic words: a plain read or write of one does
// not compile, and go vet's copylocks reports a copy of one. Word 0
// is a seqlock stamp: the writer invalidates it (stores 0) before
// touching the payload words and publishes seq+1 after, so a reader that
// sees the same non-zero stamp before and after copying the payload has
// a consistent event, and a reader that raced an overwrite sees the
// stamp change (or the 0 marker) and drops the slot. This is what keeps
// concurrent snapshots race-detector-clean without a lock on the record
// path: every shared word is an atomic access, and torn payloads are
// detected rather than returned.
type ring struct {
	buf  []atomic.Uint64
	size uint64
	// pos is the next sequence number to write — equivalently, the
	// number of events ever recorded.
	pos atomic.Uint64
}

// slot layout: [stamp, header, value, t], 32 bytes, two slots to a cache
// line. The header packs kind (bits 0-7), pe (8-35) and other+1 (36-63,
// so "no peer", -1, is 0): lane ids are 28 bits wide, des.MaxPEs is 2^20.
const slotWords = 4

const (
	idBits     = 28
	idMask     = 1<<idBits - 1
	peShift    = 8
	otherShift = peShift + idBits
)

func (r *ring) init(size int) {
	r.size = uint64(size)
	r.buf = make([]atomic.Uint64, uint64(size)*slotWords)
}

// record appends one event stamped t, ns in the tracer's timebase.
// Owner-only. The stamp bracket is a seqlock: the invalidating zero store
// precedes every payload word, and every payload word precedes the
// publishing stamp — make shape ("Publish orders") pins the six stores
// in this order.
func (r *ring) record(k Kind, pe, other int32, value, t int64) {
	seq := r.pos.Load() // single writer: no contention on the load
	i := (seq % r.size) * slotWords
	b := r.buf
	hdr := uint64(k) | (uint64(pe)&idMask)<<peShift | (uint64(other+1)&idMask)<<otherShift
	b[i].Store(0)
	b[i+1].Store(hdr)
	b[i+2].Store(uint64(value))
	b[i+3].Store(uint64(t))
	b[i].Store(seq + 1)
	r.pos.Store(seq + 1)
}

// snapshot appends the retained events, oldest first, to dst. Safe from
// any goroutine; slots overwritten mid-read are skipped.
func (r *ring) snapshot(dst []Event) []Event {
	dst, _, _ = r.snapshotSince(0, dst)
	return dst
}

// snapshotSince appends the retained events with sequence number >= since,
// oldest first, to dst. It returns the extended slice, the cursor to pass
// on the next call (one past the newest sequence number examined), and how
// many events in [since, cursor) this reader lost — overwritten before it
// got to them, or overwritten mid-copy and dropped by the seqlock check.
// Safe from any goroutine. Every sequence number in [since, cursor) is
// thus accounted for exactly once: returned or counted missed.
func (r *ring) snapshotSince(since uint64, dst []Event) ([]Event, uint64, uint64) {
	if r.size == 0 {
		return dst, since, 0
	}
	hi := r.pos.Load()
	lo := uint64(0)
	if hi > r.size {
		lo = hi - r.size
	}
	var missed uint64
	if since > lo {
		lo = since
	} else if since < lo {
		missed = lo - since
	}
	b := r.buf
	for s := lo; s < hi; s++ {
		i := (s % r.size) * slotWords
		if b[i].Load() != s+1 {
			missed++ // the writer lapped this slot before we read it
			continue
		}
		hdr := b[i+1].Load()
		value := int64(b[i+2].Load())
		t := int64(b[i+3].Load())
		if b[i].Load() != s+1 {
			missed++ // overwritten while copying: payload may be torn
			continue
		}
		dst = append(dst, Event{
			Seq:   s,
			Kind:  Kind(hdr),
			PE:    int32(hdr >> peShift & idMask),
			Other: int32(hdr>>otherShift) - 1,
			Value: value,
			T:     t,
		})
	}
	return dst, hi, missed
}
