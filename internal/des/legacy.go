package des

import (
	"container/heap"
	"fmt"
)

// This file is the legacy reference engine: the original event loop, which
// resumes a PE once for every event and keeps the event queue in a boxed
// container/heap — no inline commit, no parked slot, no counted sleep. The
// PE tells it what it asked for through the value its coroutine yields: a
// delay to be rescheduled after, or blocked. It exists so the batched
// engine's schedule can be proven bit-identical against it — see the
// differential tests in engine_test.go, which select it through newLegacy
// and Config.reference. Nothing outside this package's tests can.

// blocked is the value a PE yields to wait for a Wake (Block).
const blocked = -1

// runLegacy is the legacy central loop: one coroutine resumption per event.
func (s *Sim) runLegacy() error {
	for s.lheap.Len() > 0 {
		e := heap.Pop(&s.lheap).(ev)
		if e.t < s.now {
			return fmt.Errorf("des: time went backwards (%d < %d)", e.t, s.now)
		}
		s.now = e.t
		s.events++
		switch d, ok := e.p.next(); {
		case !ok:
			s.finished++
		case d != blocked: // a blocked PE waits for another to Wake it
			s.schedule(e.p, s.now+d)
		}
	}
	return s.drained()
}

// legacyAdvanceStepped emulates the stepped-advance contract with one full
// park/schedule/pop round trip per nonzero quantum — the per-boundary cost
// profile of the original engine — while applying the boundary flags in
// exactly the order the batched engine does.
func (p *Proc) legacyAdvanceStepped(step Stepper) {
	for {
		d, fl := step()
		if d > 0 {
			p.back(int64(d))
		}
		if p.staged {
			p.staged = false
			p.effect()
		}
		if fl&StepDone != 0 {
			if fl&StepSleep != 0 { // stepBlock
				p.Block()
				continue
			}
			return
		}
	}
}

// evHeap is the legacy boxed min-heap, on the same key as flatHeap.
type evHeap []ev

func (h evHeap) Len() int            { return len(h) }
func (h evHeap) Less(i, j int) bool  { return h[i].less(&h[j]) }
func (h evHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *evHeap) Push(x interface{}) { *h = append(*h, x.(ev)) }
func (h *evHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// push mirrors flatHeap.push for the shared schedule path.
func (h *evHeap) push(e ev) { heap.Push(h, e) }
