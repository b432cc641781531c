package des

import (
	"container/heap"
	"fmt"
)

// This file is the legacy reference engine: the original event loop that
// wakes and parks each PE through a pair of unbuffered channels and keeps
// the event queue in a boxed container/heap. It is retained verbatim (plus
// the Events counter and the stepped-advance emulation) so the batched
// engine's schedule can be proven bit-identical against it — see the
// differential tests in engine_test.go, which select it through newLegacy
// and Config.reference. Nothing outside this package's tests can.

// runLegacy is the legacy central loop: two channel rendezvous and one
// goroutine switch per event.
func (s *Sim) runLegacy() error {
	for s.lheap.Len() > 0 {
		e := heap.Pop(&s.lheap).(ev)
		if e.t < s.now {
			return fmt.Errorf("des: time went backwards (%d < %d)", e.t, s.now)
		}
		s.now = e.t
		s.events++
		e.p.wake <- struct{}{}
		<-e.p.park
		switch e.p.status {
		case statusRunnable:
			s.schedule(e.p, s.now+e.p.delay)
		case statusBlocked:
			// Another PE must Wake it later.
		case statusFinished:
			s.finished++
		}
	}
	if s.finished != s.nprocs {
		return fmt.Errorf("des: deadlock: %d of %d PEs still blocked at t=%v",
			s.nprocs-s.finished, s.nprocs, s.Now())
	}
	return nil
}

// legacyAdvance is the original Advance: park, let the loop reschedule us
// at now+d, resume when the event fires.
func (p *Proc) legacyAdvance(d int64) {
	p.status = statusRunnable
	p.delay = d
	p.park <- struct{}{}
	<-p.wake
}

// legacyBlock is the original Block.
func (p *Proc) legacyBlock() {
	p.status = statusBlocked
	p.park <- struct{}{}
	<-p.wake
}

// legacyAdvanceStepped emulates the stepped-advance contract with one full
// park/schedule/pop round trip per nonzero quantum — the per-boundary cost
// profile of the original engine — while applying the boundary flags in
// exactly the order the batched engine does.
func (p *Proc) legacyAdvanceStepped(step Stepper) Intr {
	for {
		d, fl := step()
		if d > 0 {
			p.legacyAdvance(int64(d))
		}
		if p.nstag > 0 {
			p.runStaged()
		}
		if fl&StepDone != 0 {
			return 0
		}
		if fl&StepNoPoll == 0 && p.intr != 0 {
			m := p.intr
			p.intr = 0
			return m
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
