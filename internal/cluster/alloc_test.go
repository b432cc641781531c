package cluster

import (
	"testing"

	"repro/internal/uts"
)

// TestProgressEngineZeroSteadyStateAllocs drives the progress engine's
// request handler through the full hot cycle — probe, request CAS,
// response write, chunk reserve/serve/settle/recycle, barrier check — and
// verifies the steady state allocates nothing: reused request/reply
// structs plus the free-listed chunk buffers make every served operation
// allocation-free once the cycle is warm.
func TestProgressEngineZeroSteadyStateAllocs(t *testing.T) {
	n := newNode(Config{Rank: 0, Ranks: 4, Chunk: 4, Spec: &uts.BenchTiny})
	proto := make([]uts.Node, 4)
	var req request
	var resp response

	cycle := func() {
		// One-sided probe of the work-available word.
		req.reset()
		resp.reset()
		req.Kind = kindGetAvail
		if _, ok := n.handleRequest(&req, &resp); !ok {
			panic("getAvail rejected")
		}
		// A thief claims the request word; the victim clears it after
		// responding.
		req.reset()
		resp.reset()
		req.Kind, req.Thief = kindCASRequest, 2
		if _, ok := n.handleRequest(&req, &resp); !ok || !resp.OK {
			panic("CAS rejected")
		}
		n.reqWord.Store(-1)
		// The victim writes amount+handle into this rank's response slot.
		req.reset()
		resp.reset()
		req.Kind, req.From, req.Amount, req.Handle = kindPutResponse, 1, 1, 7
		if _, ok := n.handleRequest(&req, &resp); !ok {
			panic("putResponse rejected")
		}
		n.respReady.Store(false)
		// The worker reserves a chunk drawn from the free lists; the
		// engine serves, settles and recycles it — the kindGetChunks hot
		// path.
		c := append(n.getNodeBuf(), proto...)
		buf := append(n.getChunkBuf(), c)
		h := n.handoff.reserve(buf, 2)
		req.reset()
		resp.reset()
		req.Kind, req.Handle = kindGetChunks, h
		_, ok := n.handleRequest(&req, &resp)
		if !ok || len(resp.Chunk) != 1 || len(resp.Chunk[0]) != len(proto) {
			panic("bad handoff serve")
		}
		n.handoff.settle(h, true)
		n.recycle(resp.Chunk)
		// A waiter polls the barrier.
		req.reset()
		resp.reset()
		req.Kind = kindBarrierDone
		if _, ok := n.handleRequest(&req, &resp); !ok {
			panic("barrierDone rejected")
		}
	}

	for i := 0; i < 10; i++ {
		cycle() // warm the free lists and the handoff table's buckets
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
		t.Fatalf("progress engine allocates %.2f objects per request cycle; want 0", allocs)
	}
}
