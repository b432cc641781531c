package main

import (
	"crypto/sha1"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/msg"
	"repro/internal/pgas"
	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/term"
	"repro/internal/uts"
)

// The lower layers are timed from outside, through their exported
// functions only. Each measurement is a closure that performs about n
// operations and reports how many it did; perOp sizes n to the budget and
// takes the median over batches.

// microFn performs about n operations and returns the exact count. A
// closure that must exclude part of its own work from the timing (the
// barrier rounds, which spend most of a round getting both goroutines
// into position) returns the time it measured itself; zero means "use the
// wall time of the call".
type microFn func(n int) (ops int, own time.Duration)

const microBatches = 7

// sink defeats dead-code elimination of the measured loops.
var sink atomic.Int64

// perOp returns the median nanoseconds per operation of fn over
// microBatches batches, each sized to last about budget/microBatches.
func (b *bench) perOp(name string, parent int, budget time.Duration, fn microFn) float64 {
	sp := b.spans.begin(span{Name: name, Parent: parent, Rep: -1})
	defer b.spans.end(sp)
	run := func(n int) (float64, time.Duration) {
		t0 := time.Now()
		ops, own := fn(n)
		wall := time.Since(t0)
		if own == 0 {
			own = wall
		}
		return float64(own.Nanoseconds()) / float64(ops), wall
	}
	n := 1
	for {
		if _, wall := run(n); wall >= budget/microBatches || n >= 1<<28 {
			break
		}
		n *= 2
	}
	per := make([]float64, microBatches)
	for i := range per {
		per[i], _ = run(n)
	}
	return median(per)
}

// quantile returns the q-quantile of x by linear interpolation between
// order statistics; 0 for an empty x.
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(x []float64) float64 { return quantile(x, 0.5) }

// calibrate hashes 64-byte blocks with the standard library's SHA-1 for
// about d and returns millions of blocks per second: a number that depends
// on the host and on nothing in this repository. It is the best of five
// slices, because the hosts this runs on lose a core to other tenants for a
// second at a time and the drift flag is meant for changes that last.
func calibrate(d time.Duration) float64 {
	var block [64]byte
	best := 0.0
	for slice := 0; slice < 5; slice++ {
		blocks := 0
		start := time.Now()
		for time.Since(start) < d/5 {
			for i := 0; i < 1000; i++ {
				sum := sha1.Sum(block[:])
				copy(block[:], sum[:])
			}
			blocks += 1000
		}
		best = max(best, float64(blocks)/time.Since(start).Seconds()/1e6)
	}
	sink.Add(int64(block[0]))
	return best
}

// microLayers measures rng, stack, pgas, term, msg, the probe-order
// generators of core and the bare des engine. None of them depends on the
// workload, so every traced run reports the same ledger.
func (b *bench) microLayers(parent int) {
	budget, seed, pes := b.opt.sc.micro, b.opt.seed, b.opt.sc.pes
	ns := func(name string, fn microFn) {
		b.set(name, b.perOp(name, parent, budget, fn), "ns")
	}

	// rng: one parent state chained through its own children so no
	// iteration sees an input the previous one did not produce.
	brg := rng.BRG{}.Init(int32(seed))
	ns("rng.brg_spawn_ns", func(n int) (int, time.Duration) {
		var z rng.Spawner
		var kids [2]rng.State
		for i := 0; i < n; i += 2 {
			z.Reset(&brg)
			z.SpawnInto(&kids[0], 0)
			z.SpawnInto(&kids[1], 1)
			brg = kids[i>>1&1]
		}
		return (n + 1) &^ 1, 0
	})
	fan := make([]rng.State, 2000) // the root fan-out B0 of the full-scale trees
	ns("rng.brg_spawnmany_ns", func(n int) (int, time.Duration) {
		done := 0
		for ; done < n; done += len(fan) {
			rng.BRG{}.SpawnMany(fan, &brg, 0)
			brg = fan[done/len(fan)%len(fan)]
		}
		return done, 0
	})
	alfg := rng.ALFG{}.Init(int32(seed))
	ns("rng.alfg_spawn_ns", func(n int) (int, time.Duration) {
		var kids [2]rng.State
		for i := 0; i < n; i += 2 {
			rng.ALFG{}.SpawnInto(&kids[0], &alfg, 0)
			rng.ALFG{}.SpawnInto(&kids[1], &alfg, 1)
			alfg = kids[i>>1&1]
		}
		return (n + 1) &^ 1, 0
	})
	ns("rng.rand_ns", func(n int) (int, time.Duration) {
		var acc int32
		for i := 0; i < n; i++ {
			acc += rng.StateRand(&fan[i%len(fan)])
		}
		sink.Add(int64(acc))
		return n, 0
	})

	// stack: the owner-side operations of the two-region DFS stack.
	nodes := make([]uts.Node, 64)
	for i := range nodes {
		nodes[i].Height = int32(i)
	}
	var dq stack.Deque
	dq.PushAll(nodes)
	ns("stack.deque_pushpop_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ {
			dq.Push(nodes[i&63])
			nd, _ := dq.Pop()
			sink.Add(int64(nd.Height))
		}
		return n, 0
	})
	var pool stack.Pool
	var buf []uts.Node
	ns("stack.release_reacquire_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ { // k=1, as real_fine releases
			buf = dq.TakeBottomAppend(buf[:0], 1)
			pool.Put(buf)
			c, _ := pool.TakeNewest()
			dq.PushAll(c)
		}
		return n, 0
	})
	var full stack.Pool
	for i := range nodes {
		full.Put(nodes[i : i+1])
	}
	var half []stack.Chunk
	ns("stack.pool_takehalf_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ { // steal half of 64 chunks, then refill
			half = full.TakeHalfAppend(half[:0])
			for _, c := range half {
				full.Put(c)
			}
		}
		return n, 0
	})
	chunk := nodes[:16]
	owner := stack.NewRelaxed(0)
	ns("stack.relaxed_publish_retract_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ {
			owner.Publish(chunk)
			c, _ := owner.Retract()
			sink.Add(int64(len(c)))
		}
		return n, 0
	})
	victim := stack.NewRelaxed(0)
	ns("stack.relaxed_claim_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ { // owner publish + thief claim, uncontended
			victim.Publish(chunk)
			c, _, _ := victim.Claim(1)
			sink.Add(int64(len(c)))
		}
		return n, 0
	})

	// pgas: the global lock and the latency injector.
	dom, err := pgas.NewDomain(realThreads, &pgas.SharedMemory)
	if err != nil {
		panic(err) // two threads and a stock model: only a bug can fail this
	}
	lk := dom.NewLock(0)
	ns("pgas.lock_pair_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ {
			lk.Acquire(0)
			lk.Release(0)
		}
		return n, 0
	})
	ns("pgas.lock_contended_ns", func(n int) (int, time.Duration) {
		var wg sync.WaitGroup
		for t := 0; t < realThreads; t++ {
			wg.Add(1)
			go func(me int) {
				defer wg.Done()
				for i := 0; i < n/realThreads+1; i++ {
					lk.Acquire(me)
					lk.Release(me)
				}
			}(t)
		}
		wg.Wait()
		return realThreads * (n/realThreads + 1), 0
	})
	const asked = 4 * time.Microsecond // KittyHawk's remote reference
	got := b.perOp("pgas.charge_overshoot_pct", parent, budget, func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ {
			pgas.Charge(asked)
		}
		return n, 0
	})
	b.set("pgas.charge_overshoot_pct", 100*(got-float64(asked))/float64(asked), "%")

	// term: one termination round of each detector, timed from the last
	// thread's Enter until every thread knows. The first thread is
	// parked inside the barrier before the clock starts.
	round := func(enterFirst func(), waiting func() int, enterLast func()) time.Duration {
		var firstOut atomic.Bool
		go func() {
			enterFirst()
			firstOut.Store(true)
		}()
		for waiting() == 0 {
			runtime.Gosched()
		}
		t0 := time.Now()
		enterLast()
		for !firstOut.Load() {
			runtime.Gosched()
		}
		return time.Since(t0)
	}
	ns("term.cancel_barrier_round_ns", func(n int) (int, time.Duration) {
		var d time.Duration
		for i := 0; i < n; i++ {
			cb := term.NewCancelBarrier(dom)
			d += round(func() { cb.Enter(0) }, cb.Waiting, func() { cb.Enter(1) })
		}
		return n, d
	})
	ns("term.stream_barrier_round_ns", func(n int) (int, time.Duration) {
		var d time.Duration
		for i := 0; i < n; i++ {
			sb := term.NewStreamBarrier(dom)
			d += round(func() {
				sb.Enter(0)
				for !sb.Done(0) {
					runtime.Gosched()
				}
			}, sb.Waiting, func() { sb.Enter(1) })
		}
		return n, d
	})

	// msg: the mpi-ws transport.
	comm, err := msg.NewComm(realThreads, nil)
	if err != nil {
		panic(err)
	}
	ns("msg.send_recv_ns", func(n int) (int, time.Duration) {
		for i := 0; i < n; i++ {
			comm.Send(0, 1, msg.Message{From: 0, Tag: msg.TagStealRequest})
			m, _ := comm.Recv(1)
			sink.Add(int64(m.Tag))
		}
		return n, 0
	})

	// core: victim-order generation on either side of the 4096-thread
	// switch from cached permutation to strided walk.
	po := core.NewProbeOrder(seed, 0)
	ns("core.probe_cycle_ns_256", func(n int) (int, time.Duration) {
		done := 0
		for ; done < n; done += 255 {
			sink.Add(int64(po.Cycle(0, 256)[0]))
		}
		return done, 0
	})
	ns("core.probe_walk_ns_8192", func(n int) (int, time.Duration) {
		done := 0
		for ; done < n; done += 8191 {
			acc := 0
			for w := po.Walk(0, 8192); !w.Exhausted(); w.Advance() {
				acc += w.Victim()
			}
			sink.Add(int64(acc))
		}
		return done, 0
	})

	// des: the bare engine — no tree, no protocol.
	perEvent := b.perOp("des.dispatch_events_per_s", parent, budget, func(n int) (int, time.Duration) {
		sim := des.New()
		quanta := n/pes + 1
		for i := 0; i < pes; i++ {
			sim.Spawn(func(p *des.Proc) {
				k := 0
				p.AdvanceStepped(func() (time.Duration, uint8) {
					if k >= quanta {
						return 0, des.StepDone
					}
					k++
					return time.Duration(1 + k&3), 0
				})
			})
		}
		if err := sim.Run(); err != nil {
			panic(err) // no PE ever blocks
		}
		return int(sim.Events()), 0
	})
	b.set("des.dispatch_events_per_s", 1e9/perEvent, "1/s")
	ns("des.lock_handoff_ns", func(n int) (int, time.Duration) {
		const contenders = 8
		sim := des.New()
		var l des.Lock
		for i := 0; i < contenders; i++ {
			sim.Spawn(func(p *des.Proc) {
				for k := 0; k < n/contenders+1; k++ {
					p.Acquire(&l, time.Nanosecond)
					p.Release(&l, time.Nanosecond)
				}
			})
		}
		if err := sim.Run(); err != nil {
			panic(err) // FIFO handoff cannot deadlock
		}
		return contenders * (n/contenders + 1), 0
	})
}
