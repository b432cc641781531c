// Package orderdata is the ordercheck golden corpus: declared
// publish-order invariants over miniature fence-free publish and
// seqlock write brackets.
package orderdata

import "sync/atomic"

type ring struct {
	buf  []atomic.Uint64
	n    []int32
	slot atomic.Uint64
	seq  uint64
}

// publish is the correct fence-free shape: ledger strictly before the
// publishing store, on every path.
//
//uts:orders ledger<slot
func (r *ring) publish(i int, v uint64) {
	r.n[i] = 1 //uts:mark ledger
	r.slot.Store(v)
}

// badReorder publishes before the ledger write.
//
//uts:orders ledger<slot
func (r *ring) badReorder(i int, v uint64) {
	r.slot.Store(v) // want "publish-order invariant ledger<slot violated"
	r.n[i] = 1      //uts:mark ledger
}

// badConditional guards the ledger write, so it no longer dominates
// the publish.
//
//uts:orders ledger<slot
func (r *ring) badConditional(i int, v uint64, deep bool) {
	if deep {
		r.n[i] = 1 //uts:mark ledger
	}
	r.slot.Store(v) // want "does not precede this slot write on every path"
}

// record is a correct seqlock bracket: invalidate, payload, publish.
//
//uts:orders invalidate<payload payload<publish
func (r *ring) record(i int, a, b uint64) {
	r.buf[i].Store(r.seq | 1) //uts:mark invalidate
	r.buf[i+1].Store(a)       //uts:mark payload
	r.buf[i+2].Store(b)       //uts:mark payload
	r.buf[i].Store(r.seq + 2) //uts:mark publish
	r.seq += 2
}

// badBracket publishes the even sequence before the last payload word.
//
//uts:orders payload<publish
func (r *ring) badBracket(i int, a, b uint64) {
	r.buf[i+1].Store(a)       //uts:mark payload
	r.buf[i].Store(r.seq + 2) //uts:mark publish // want "publish-order invariant payload<publish violated"
	r.buf[i+2].Store(b)       //uts:mark payload
}

// badStale declares a group no statement carries anymore.
//
//uts:orders ledger<gone
func (r *ring) badStale(i int, v uint64) { // want "matches no statement"
	r.n[i] = 1 //uts:mark ledger
	r.slot.Store(v)
}

// okFieldNames needs no marks: the unmarked fallback groups stores by
// the innermost field name they target.
//
//uts:orders seq<slot
func (r *ring) okFieldNames(v uint64) {
	r.seq++
	r.slot.Store(v)
}

// okSuppressed carries a reviewed //uts:ok for a documented exception.
//
//uts:orders ledger<slot
func (r *ring) okSuppressed(i int, v uint64) {
	r.slot.Store(v) //uts:ok ordercheck corpus exception: reorder is documented and benign here
	r.n[i] = 1      //uts:mark ledger
}

// badGoto jumps over the ledger write to the publish: statement order
// proves the declared order only in a function without a goto.
//
//uts:orders ledger<slot
func (r *ring) badGoto(i int, v uint64, deep bool) {
	if deep {
		goto publish // want "goto in badGoto"
	}
	r.n[i] = 1 //uts:mark ledger
publish:
	r.slot.Store(v)
}
