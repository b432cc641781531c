package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
)

// variant is what a single rep may change about a job's configuration.
// The zero value is the workload as defined.
type variant struct {
	newTracer func() *obs.Tracer // non-nil: the rep runs with a fresh public tracer
	tracer    *obs.Tracer        // what newTracer returned for this rep

	shards int            // des only: Shards=2 for the sharded rep
	adapt  *policy.Config // des only: the closed-loop controllers
	alg    core.Algorithm // core only: the per-algorithm sweep
	chunk  int            // with alg

	// Where the rep's span hangs; hostCluster hangs one span per rank
	// under it.
	spans  *spanLog
	parent int
}

// once runs the job through its substrate's public entry point and
// returns the aggregated statistics (plus the event count for des).
func (j *job) once(v variant) (*stats.Run, uint64, error) {
	switch j.w.substrate {
	case "core":
		opt := core.Options{Algorithm: j.w.alg, Threads: realThreads, Chunk: j.w.chunk,
			PollInterval: j.w.poll, Seed: j.seed, Tracer: v.tracer}
		if v.alg != "" {
			opt.Algorithm, opt.Chunk = v.alg, v.chunk
		}
		res, err := core.Run(j.spec, opt)
		if err != nil {
			return nil, 0, err
		}
		return &res.Run, 0, nil
	case "des":
		res, info, err := des.RunInfo(j.spec, des.Config{Algorithm: j.w.alg, PEs: j.pes,
			Chunk: j.w.chunk, Model: &pgas.KittyHawk, PollInterval: j.w.poll, Seed: j.seed,
			Tracer: v.tracer, Shards: v.shards, Adapt: v.adapt})
		if err != nil {
			return nil, 0, err
		}
		return &res.Run, info.Events, nil
	case "cluster":
		run, err := hostCluster(j, v)
		return run, 0, err
	}
	return nil, 0, fmt.Errorf("unknown substrate %q", j.w.substrate)
}

// hostCluster runs cluster.Run once per rank inside this process, the
// ranks talking over real loopback TCP sockets (the pattern of
// examples/distributed), and returns rank 0's gathered result.
func hostCluster(j *job, v variant) (*stats.Run, error) {
	ready := make(chan string, 1)
	errs := make([]error, realThreads)
	var result *stats.Run
	var wg sync.WaitGroup
	rank := func(r int, coord string, coordReady chan<- string) {
		defer wg.Done()
		sp := v.spans.begin(span{Name: "cluster.Run", Parent: v.parent, Rep: r, Lane: 1 + r})
		run, err := cluster.Run(cluster.Config{Rank: r, Ranks: realThreads, Coord: coord,
			CoordReady: coordReady, Spec: j.spec, Chunk: j.w.chunk, Seed: j.seed, Tracer: v.tracer})
		v.spans.end(sp)
		errs[r] = err
		if r == 0 {
			result = run
			if err != nil {
				select { // unblock the launcher below if rank 0 never listened
				case ready <- "":
				default:
				}
			}
		}
	}
	wg.Add(1)
	go rank(0, "127.0.0.1:0", ready)
	if coord := <-ready; coord != "" {
		for r := 1; r < realThreads; r++ {
			wg.Add(1)
			go rank(r, coord, nil)
		}
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return result, nil
}

// sample is one rep as the harness saw it from outside.
type sample struct {
	wall, cpu float64 // seconds
	run       *stats.Run
	events    uint64 // des
	wire      int64  // cluster: loopback bytes during the rep, -1 if unreadable
}

// bench carries what every rep of one invocation shares: the failure
// ledger behind "attempted"/"failed" and the span recorder.
type bench struct {
	opt       options
	attempted int
	failures  []string
	spans     *spanLog // nil on an untraced run
	metrics   map[string]metric

	layout uint64    // state of the layout-jitter stream, seeded from --seed
	pads   [][]*byte // what jitter allocated for the current rep, kept alive
}

// jitter moves the heap to a new layout before a rep. core's per-thread
// structures are allocated back to back, so whether two threads' hot words
// share a cache line depends on where in a span the allocator happens to
// be: after runtime.GC() that position is the same for every rep of a
// process and differs between processes, which made whole runs of
// real_coarse land 20% apart. Holding on to zero to three fresh objects of
// every small size class shifts the position by a different amount each
// rep, so one run samples the layouts evenly instead of drawing one. The
// previous rep's pads are let go first, so the harness adds a constant to
// the peak RSS however many reps fit into the run.
func (b *bench) jitter() {
	clear(b.pads)
	b.pads = b.pads[:0]
	runtime.GC() // every rep starts from a collected heap, as testing.B does
	for words := 2; words <= 64; words += 2 {
		for n := splitmix64(&b.layout) % 4; n > 0; n-- {
			b.pads = append(b.pads, make([]*byte, words)) // pointers: the same span class as the program's structs
		}
	}
}

func (b *bench) fail(j *job, label string, format string, args ...any) {
	msg := fmt.Sprintf("%s %s seed %d tree %s: ", b.opt.workload.name, label, j.seed, j.spec) + fmt.Sprintf(format, args...)
	b.failures = append(b.failures, msg)
	fmt.Fprintln(os.Stderr, "FAILED RUN:", msg)
}

// rep runs the job once under v, timed from outside, and applies the
// correctness gate: no error, no PARTIAL/DEGRADED result, node and leaf
// counts equal to the sequential reference, and — for des — the event
// count and makespan of every rep of the unmodified schedule identical.
// It returns nil when the rep failed; the failure is already recorded.
func (b *bench) rep(j *job, label string, i, parent int, v variant) *sample {
	b.attempted++
	b.jitter()
	sp := b.spans.begin(span{Name: j.w.substrate + "." + label, Parent: parent, Rep: i})
	v.spans, v.parent = b.spans, sp
	if v.newTracer != nil {
		v.tracer = v.newTracer()
	}
	wire0 := loopbackBytes(j)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	run, events, err := j.once(v)
	s := &sample{wall: time.Since(t0).Seconds(), run: run, events: events}
	s.cpu = cpuSeconds() - cpu0
	if wire1 := loopbackBytes(j); wire0 >= 0 && wire1 >= wire0 {
		s.wire = wire1 - wire0
	} else {
		s.wire = -1
	}
	b.spans.end(sp)
	switch {
	case err != nil:
		b.fail(j, fmt.Sprintf("%s rep %d", label, i), "%v", err)
	case len(run.FailedRanks) > 0 || len(run.SuspectedRanks) > 0:
		b.fail(j, fmt.Sprintf("%s rep %d", label, i), "PARTIAL/DEGRADED result: failed ranks %v, suspected ranks %v", run.FailedRanks, run.SuspectedRanks)
	case run.Nodes() != j.ref.Nodes || run.Leaves() != j.ref.Leaves:
		b.fail(j, fmt.Sprintf("%s rep %d", label, i), "counted %d nodes / %d leaves, sequential reference has %d / %d",
			run.Nodes(), run.Leaves(), j.ref.Nodes, j.ref.Leaves)
	case j.w.substrate == "des" && v.adapt == nil && j.pinned && (events != j.pinEvents || run.Elapsed != j.pinMakespan):
		b.fail(j, fmt.Sprintf("%s rep %d", label, i), "not bit-identical: %d events / makespan %v, earlier reps had %d / %v",
			events, run.Elapsed, j.pinEvents, j.pinMakespan)
	default:
		if j.w.substrate == "des" && v.adapt == nil && !j.pinned {
			j.pinned, j.pinEvents, j.pinMakespan = true, events, run.Elapsed
		}
		if b.spans == nil {
			// An untraced run reports times only. Keeping a stats block per
			// PE per rep would make peak_rss_mb grow with the rep count,
			// and so with the program's speed.
			s.run = nil
		}
		return s
	}
	return nil
}

// procs is how many Ps the job's reps under v run on. The sequential des
// engines run one PE at a time, so a second P adds nothing but cross-thread
// goroutine handoffs, and on a virtual machine whose second vCPU is asleep
// those cost 25-40% of a rep and land whole runs 30% apart. The sharded
// engine is the one that uses two.
func (j *job) procs(v variant) int {
	if j.w.substrate == "des" && v.shards == 0 {
		return 1
	}
	return min(realThreads, runtime.NumCPU())
}

// repsFor repeats rep, on the Ps such reps use, until budget has elapsed
// and at least min reps have been attempted, and returns the successful
// samples.
func (b *bench) repsFor(j *job, label string, parent int, budget time.Duration, min int, v variant) []*sample {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(j.procs(v)))
	var out []*sample
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		if s := b.rep(j, label, i, parent, v); s != nil {
			out = append(out, s)
		}
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// loopbackBytes reads the received-bytes counter of the lo interface, the
// only view of the cluster's wire traffic available from outside the
// program; -1 when the job is not a cluster run or the counter is
// unreadable.
func loopbackBytes(j *job) int64 {
	if j.w.substrate != "cluster" {
		return -1
	}
	data, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok || name != "lo" {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				return n
			}
		}
	}
	return -1
}

// peakRSSMiB is VmHWM of this process: one workload per process, so it is
// the workload's own high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
