package des

import (
	"runtime"
	"testing"
	"time"
)

func TestAdvanceOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Spawn(func(p *Proc) {
		p.Advance(30 * time.Nanosecond)
		order = append(order, 1)
	})
	s.Spawn(func(p *Proc) {
		p.Advance(10 * time.Nanosecond)
		order = append(order, 2)
		p.Advance(40 * time.Nanosecond)
		order = append(order, 3)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 3 {
		t.Errorf("order = %v, want [2 1 3]", order)
	}
	if s.Now() != 50*time.Nanosecond {
		t.Errorf("final time = %v, want 50ns", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			p.Advance(100 * time.Nanosecond)
			order = append(order, i)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order = %v, want FIFO", order)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		s := New()
		var trace []int
		for i := 0; i < 8; i++ {
			i := i
			s.Spawn(func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Advance(time.Duration((i*7+j*13)%19) * time.Nanosecond)
					trace = append(trace, i*100+j)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestBlockWake(t *testing.T) {
	s := New()
	var got time.Duration
	var waiter *Proc
	waiter = s.Spawn(func(p *Proc) {
		p.Block()
		got = p.Now()
	})
	s.Spawn(func(p *Proc) {
		p.Advance(500 * time.Nanosecond)
		p.Wake(waiter, 20*time.Nanosecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 520*time.Nanosecond {
		t.Errorf("waiter resumed at %v, want 520ns", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New()
	s.Spawn(func(p *Proc) { p.Block() }) // nobody will wake it
	if err := s.Run(); err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestLockMutualExclusionAndFIFO(t *testing.T) {
	s := New()
	l := &Lock{}
	var order []int
	inside := false
	for i := 0; i < 6; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			p.Advance(time.Duration(i) * time.Nanosecond) // stagger arrivals
			p.Acquire(l, 10*time.Nanosecond)
			if inside {
				t.Error("two PEs inside the critical section")
			}
			inside = true
			order = append(order, i)
			p.Advance(100 * time.Nanosecond) // long critical section
			inside = false
			p.Release(l, 10*time.Nanosecond)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("only %d acquisitions", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("lock grant order %v not FIFO", order)
		}
	}
}

func TestLockQueueingCost(t *testing.T) {
	// Holder keeps the lock 1µs; a second PE arriving immediately should
	// acquire at ~(acquire cost + hold time), demonstrating queueing delay.
	s := New()
	l := &Lock{}
	var acquiredAt time.Duration
	s.Spawn(func(p *Proc) {
		p.Acquire(l, 0)
		p.Advance(time.Microsecond)
		p.Release(l, 0)
	})
	s.Spawn(func(p *Proc) {
		p.Advance(10 * time.Nanosecond)
		p.Acquire(l, 0)
		acquiredAt = p.Now()
		p.Release(l, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if acquiredAt < time.Microsecond {
		t.Errorf("queued acquirer got the lock at %v, before the holder released", acquiredAt)
	}
}

func TestNegativeAdvanceClamped(t *testing.T) {
	s := New()
	s.Spawn(func(p *Proc) {
		p.Advance(-5 * time.Nanosecond)
		if p.Now() != 0 {
			t.Errorf("negative advance moved time to %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPanicReachesRun: a panic in a PE — its body, or a step function,
// which the batched engine calls from its dispatcher once the advance has
// parked — surfaces from Run on the caller's goroutine, where it can be
// recovered.
func TestPanicReachesRun(t *testing.T) {
	for _, e := range engines {
		for _, where := range []string{"body", "step"} {
			s := e.new()
			s.Spawn(func(p *Proc) { p.Advance(10 * time.Nanosecond) })
			s.Spawn(func(p *Proc) {
				if where == "body" {
					p.Advance(5 * time.Nanosecond)
					panic("boom-body")
				}
				n := 0
				p.AdvanceStepped(func() (time.Duration, uint8) {
					if n++; n == 20 {
						panic("boom-step")
					}
					return time.Nanosecond, 0
				})
			})
			got := func() (v any) {
				defer func() { v = recover() }()
				return s.Run()
			}()
			if got != "boom-"+where {
				t.Errorf("%s/%s: Run ended with %v, want the panic boom-%s", e.name, where, got, where)
			}
		}
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	s := New()
	s.Spawn(func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("release of unheld lock should panic")
			}
		}()
		p.Release(&Lock{}, 0)
	})
	_ = s.Run()
}

// TestCoroutineAllocationsPinned holds the path the benchmark's bare-engine
// rows run, Sim.Spawn bodies on their coroutines, to allocating nothing per
// event: each body advances, runs a stepped advance of a few quanta and
// holds a contended Lock, round after round, and a run of ten times the
// rounds allocates no more objects than the short one (its procs,
// coroutines, heap and lock queue, all sized by the PEs). Each count is the
// least of three runs.
func TestCoroutineAllocationsPinned(t *testing.T) {
	const pes = 16
	objects := func(rounds int) (least, events uint64) {
		least = 1 << 62
		for i := 0; i < 3; i++ {
			sim := New()
			var l Lock
			for range pes {
				sim.Spawn(func(p *Proc) {
					k := 0
					step := func() (time.Duration, uint8) {
						if k&3 == 3 {
							return 0, StepDone
						}
						k++
						return time.Duration(1 + k&1), 0
					}
					for r := 0; r < rounds; r++ {
						p.Advance(time.Duration(1 + (r+p.ID())&3))
						k = 0
						p.AdvanceStepped(step)
						p.Acquire(&l, time.Nanosecond)
						p.Advance(2 * time.Nanosecond)
						p.Release(&l, time.Nanosecond)
					}
				})
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			err := sim.Run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least, events = min(least, after.Mallocs-before.Mallocs), sim.Events()
		}
		return least, events
	}
	short, shortEvents := objects(200)
	long, longEvents := objects(2000)
	if longEvents < 9*shortEvents {
		t.Fatalf("%d events in the long run, %d in the short one: the rounds no longer scale the run", longEvents, shortEvents)
	}
	if long > short {
		t.Errorf("%d rounds allocated %d objects in %d events, %d rounds %d in %d: the coroutine path allocates per event",
			2000, long, longEvents, 200, short, shortEvents)
	} else {
		t.Logf("%d objects for %d events, %d for %d", short, shortEvents, long, longEvents)
	}
}
