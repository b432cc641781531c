// Package cluster runs the paper's distributed-memory work-stealing
// algorithm (Section 3.3) across real operating-system processes connected
// by TCP — the genuinely distributed port of the UPC program.
//
// Each process hosts one worker thread and a progress engine. The progress
// engine is the software analogue of the Berkeley UPC runtime's active-
// message handlers (the machinery behind bupc_poll() that the paper's
// Section 6.1 discusses): it serves one-sided operations — reads of the
// work-available word, compare-and-swap on the request word, gets of
// reserved chunks — without involving the worker thread, which is what
// preserves the paper's work-first property over a network with no RDMA.
//
// The protocol is exactly the Section 3.3.3 algorithm:
//
//	thief                           victim
//	-----                           ------
//	GetAvail (one-sided)     →      progress engine answers
//	CASRequest (one-sided)   →      progress engine claims request word
//	                                worker polls request word (local),
//	                                reserves chunks in the handoff table,
//	         ←  PutResponse         writes amount+handle to the thief
//	GetChunks (one-sided)    →      progress engine serves from handoff
//
// Termination is the streamlined barrier of Section 3.3.1, hosted by rank
// 0's progress engine so barrier traffic never interrupts rank 0's worker.
package cluster

import (
	"repro/internal/stack"
	"repro/internal/stats"
)

// reqKind tags a request on a peer connection.
type reqKind uint8

const (
	// kindHello registers a rank and its listen address with the
	// coordinator; the reply carries the full address map once every rank
	// has registered.
	kindHello reqKind = iota
	// kindGetAvail reads the remote work-available word (one-sided).
	kindGetAvail
	// kindCASRequest attempts to claim the remote request word (one-sided).
	kindCASRequest
	// kindPutResponse writes a steal response (amount + chunk handle) into
	// the requesting thief's response slot.
	kindPutResponse
	// kindGetChunks fetches reserved chunks from the victim's handoff
	// table (one-sided; the "one-sided get" of Section 3.3.3).
	kindGetChunks
	// kindBarrierEnter/Leave/Done operate rank 0's streamlined barrier.
	kindBarrierEnter
	kindBarrierLeave
	kindBarrierDone
	// kindStats delivers a finished rank's counters to the coordinator.
	// Duplicate deliveries are ignored (the coordinator tracks which
	// ranks reported), which is what makes the RPC safe to retry.
	kindStats
	// kindPeerDown reports a detected peer failure to the coordinator so
	// the termination barrier and the stats gather can complete over the
	// surviving membership. Idempotent: repeats are harmless.
	kindPeerDown
	// kindMetrics reads a rank's live telemetry snapshot (one-sided; the
	// progress engine answers from the sampler's last fold plus a few
	// atomics). Pure read, so idempotent; rank 0's rollup poller issues it
	// on /metrics scrapes, skipping dead ranks like probe cycles do.
	kindMetrics
)

// request is the wire format of one RPC request. Fields are a union over
// the kinds; gob handles the sparse encoding.
type request struct {
	Kind reqKind
	From int

	Addr   string // kindHello: the sender's listen address
	Thief  int32  // kindCASRequest: thief ID to write into the request word
	Amount int32  // kindPutResponse: chunks granted (0 = denial)
	Handle uint64 // kindPutResponse / kindGetChunks: handoff table key
	Dead   int32  // kindPeerDown: the rank declared dead by the sender

	Stats *stats.Thread // kindStats
}

// response is the wire format of one RPC reply.
type response struct {
	OK    bool          // kindCASRequest: claim succeeded; kindBarrierLeave: leave permitted
	Avail int32         // kindGetAvail
	Last  bool          // kindBarrierEnter: caller was the final arrival
	Done  bool          // kindBarrierDone
	Addrs []string      // kindHello: rank → listen address map
	Chunk []stack.Chunk // kindGetChunks

	Metrics *MetricsSnapshot // kindMetrics
}
