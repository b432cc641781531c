package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stack"
)

// handoff is the ledger of reserved work: chunks the worker took out of
// its pool for a thief that has not provably received them. It has one
// rule — an entry leaves the table exactly once, when its chunks are
// provably somewhere else — and nothing outside these methods touches the
// map or its count (DESIGN.md §10):
//
//	reserve → reserved ──serve──→ serving ──settle(delivered)──→ gone
//	             │                   └──settle(not delivered)──→ stranded
//	             └─ takeBack, sweep ─→ taken back ←── takeBack, sweep ──┘
//
// The worker reserves, takes back and sweeps; the progress engine serves
// and settles. A serving entry is the engine's alone, which rules out
// double delivery, and stays counted, which keeps the worker out of the
// termination barrier while a reply is being encoded. A stranded entry is
// a reserved one that any sweep finds stale.
type handoff struct {
	mu      sync.Mutex
	seq     uint64
	entries map[uint64]handoffEntry
	pending atomic.Int32 // len(entries), written by publish alone
}

// handoffEntry is one reservation: the chunks, the thief they were granted
// to and when (the zero time marks it stranded: stale at any bound), and
// whether the engine is sending it right now.
type handoffEntry struct {
	chunks  []stack.Chunk
	thief   int32
	at      time.Time
	serving bool
}

// publish is deferred, under mu, by every method that adds or removes.
func (h *handoff) publish() { h.pending.Store(int32(len(h.entries))) }

// Pending counts the entries, in any state, with one atomic load: at zero
// no chunk of this rank is in limbo.
func (h *handoff) Pending() int { return int(h.pending.Load()) }

// reserve enters chunks granted to thief and returns their handle.
func (h *handoff) reserve(chunks []stack.Chunk, thief int32) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	defer h.publish()
	if h.entries == nil {
		h.entries = map[uint64]handoffEntry{}
	}
	h.seq++
	h.entries[h.seq] = handoffEntry{chunks: chunks, thief: thief, at: time.Now()}
	return h.seq
}

// serve hands the engine the chunks of an entry and marks it serving until
// settle. No entry (the worker took it back) or one already in service is
// not served.
func (h *handoff) serve(handle uint64) ([]stack.Chunk, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.entries[handle]
	if !ok || e.serving {
		return nil, false
	}
	e.serving = true
	h.entries[handle] = e
	return e.chunks, true
}

// settle ends the service of an entry serve accepted: delivered, it leaves
// the table; if not, it stays there stranded, for the worker's next sweep.
func (h *handoff) settle(handle uint64, delivered bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	defer h.publish()
	if e, ok := h.entries[handle]; ok && !delivered {
		e.serving, e.at = false, time.Time{}
		h.entries[handle] = e
		return
	}
	delete(h.entries, handle)
}

// takeBack returns the entry's chunks to the worker, unless the entry is
// gone or in service.
func (h *handoff) takeBack(handle uint64) ([]stack.Chunk, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	defer h.publish()
	e, ok := h.entries[handle]
	if !ok || e.serving {
		return nil, false
	}
	delete(h.entries, handle)
	return e.chunks, true
}

// sweep takes back every entry whose thief is dead or that has waited
// longer than staleAfter for its fetch (a stranded one always has) — except
// those in service, which come up again once settled.
func (h *handoff) sweep(dead func(rank int) bool, staleAfter time.Duration) []handoffEntry {
	now := time.Now()
	var out []handoffEntry
	h.mu.Lock()
	defer h.mu.Unlock()
	defer h.publish()
	for handle, e := range h.entries {
		if !e.serving && (dead(int(e.thief)) || now.Sub(e.at) > staleAfter) {
			delete(h.entries, handle)
			out = append(out, e)
		}
	}
	return out
}
