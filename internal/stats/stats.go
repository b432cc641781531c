// Package stats collects the per-thread counters and per-state timers the
// paper reports: nodes explored, release/reacquire/steal/probe counts,
// chunks moved, and time spent in each of the Figure-1 states (Working,
// Searching, Stealing, Idle/Termination). Aggregation across threads yields
// the headline numbers — exploration rate, speedup, parallel efficiency,
// working-state efficiency (Section 6.2's 93%), and steal operations per
// second (Section 1's 85,000/s).
package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
)

// State enumerates the Figure-1 thread states.
type State int

const (
	// Working: exploring nodes from the local stack.
	Working State = iota
	// Searching: probing other threads for available work.
	Searching
	// Stealing: executing a steal (reservation + transfer).
	Stealing
	// Idle: waiting in the termination barrier.
	Idle
	numStates
)

// String names the state, as the trace does.
func (s State) String() string { return obs.StateName(int64(s)) }

// States lists the states in declaration order, for reports.
var States = []State{Working, Searching, Stealing, Idle}

// Thread accumulates one thread's counters. It is not safe for concurrent
// use: each worker owns its Thread and the aggregator reads it only after
// the worker has terminated.
type Thread struct {
	ID int

	Nodes  int64 // tree nodes visited
	Leaves int64

	Releases     int64 // chunks moved local → shared/steal region
	Reacquires   int64 // chunks moved back shared → local
	Steals       int64 // successful steal operations (one per victim visit)
	ChunksGot    int64 // chunks obtained by stealing (≥ Steals under steal-half)
	Probes       int64 // work-availability probes of other threads
	FailedSteals int64 // steal attempts that found the work already gone
	Requests     int64 // steal requests serviced for others (distmem/mpi)

	// DuplicateTakes counts relaxed-ring takes that lost the multiplicity-
	// ledger arbitration: the chunk was read but a concurrent claimer
	// consumed it first, so the copy was discarded before exploration.
	// Nonzero only under upc-term-relaxed.
	DuplicateTakes int64

	TermBarrierEntries int64 // times this thread entered the termination barrier
	MaxStackDepth      int

	// InState accumulates virtual or wall time per Figure-1 state.
	InState [numStates]time.Duration

	cur      State
	curSince time.Time
}

// StartTimers initializes wall-clock state accounting with the thread in
// the Working state.
func (t *Thread) StartTimers(now time.Time) {
	t.cur = Working
	t.curSince = now
}

// Switch moves the thread to state s at time now, charging the elapsed
// interval to the previous state.
func (t *Thread) Switch(s State, now time.Time) {
	if !t.curSince.IsZero() {
		t.InState[t.cur] += now.Sub(t.curSince)
	}
	t.cur = s
	t.curSince = now
}

// StopTimers charges the final interval and freezes the accounting.
func (t *Thread) StopTimers(now time.Time) {
	if !t.curSince.IsZero() {
		t.InState[t.cur] += now.Sub(t.curSince)
		t.curSince = time.Time{}
	}
}

// AddState charges d to state s directly; used by the discrete-event
// simulator, where time is virtual and timers never run.
func (t *Thread) AddState(s State, d time.Duration) {
	t.InState[s] += d
}

// NoteDepth records a stack-depth observation.
func (t *Thread) NoteDepth(d int) {
	if d > t.MaxStackDepth {
		t.MaxStackDepth = d
	}
}

// Run aggregates a complete parallel execution.
type Run struct {
	Threads []Thread
	Elapsed time.Duration // wall time (or virtual makespan for DES runs)

	// SeqRate is the sequential baseline in nodes/second used for speedup
	// and efficiency; zero means "unknown".
	SeqRate float64

	// FailedRanks lists ranks that never delivered their counters to the
	// coordinator (distributed runs only): the gather completed over the
	// surviving membership and this run's totals are partial. Empty for
	// healthy runs.
	FailedRanks []int

	// SuspectedRanks lists ranks some surviving rank declared dead
	// during the run, as recorded by the coordinator (distributed runs
	// only). A suspected rank may still have delivered its stats — a
	// death-verdict false positive under extreme slowness — so any
	// non-empty value means the termination-barrier membership shrank
	// and the run must be reported as degraded even when FailedRanks is
	// empty; a clean summary must be impossible for such a run.
	SuspectedRanks []int

	// Obs holds the merged event-tracer histograms (steal latency,
	// chunk size, probe distance, per-state dwell) when the run was
	// traced; nil otherwise. Summary folds it into the report, so
	// untraced output is byte-identical to pre-tracer releases.
	Obs *obs.Summary

	// Policy holds the closed-loop controller report (adapted chunk
	// range, steal-half selection, windows and changes) when the run was
	// adaptive; nil otherwise. Like Obs, Summary only renders it when
	// present, so controller-off output is byte-identical to pre-policy
	// releases.
	Policy *policy.Summary
}

// Nodes returns the total nodes explored across threads.
func (r *Run) Nodes() int64 {
	var n int64
	for i := range r.Threads {
		n += r.Threads[i].Nodes
	}
	return n
}

// Leaves returns the total leaves across threads.
func (r *Run) Leaves() int64 {
	var n int64
	for i := range r.Threads {
		n += r.Threads[i].Leaves
	}
	return n
}

// Sum totals an arbitrary per-thread counter.
func (r *Run) Sum(f func(*Thread) int64) int64 {
	var n int64
	for i := range r.Threads {
		n += f(&r.Threads[i])
	}
	return n
}

// Rate returns the aggregate exploration rate in nodes/second.
func (r *Run) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Nodes()) / r.Elapsed.Seconds()
}

// Speedup returns Rate divided by the sequential baseline rate, the
// paper's definition (performance is rate-based throughout Section 4).
func (r *Run) Speedup() float64 {
	if r.SeqRate <= 0 {
		return 0
	}
	return r.Rate() / r.SeqRate
}

// Efficiency returns parallel efficiency: speedup over thread count.
func (r *Run) Efficiency() float64 {
	if len(r.Threads) == 0 {
		return 0
	}
	return r.Speedup() / float64(len(r.Threads))
}

// WorkingFraction returns the fraction of total thread-time spent in the
// Working state — the quantity behind the paper's 93% figure.
func (r *Run) WorkingFraction() float64 {
	var work, total time.Duration
	for i := range r.Threads {
		for s := State(0); s < numStates; s++ {
			total += r.Threads[i].InState[s]
		}
		work += r.Threads[i].InState[Working]
	}
	if total <= 0 {
		return 0
	}
	return float64(work) / float64(total)
}

// StateBreakdown returns, per state, the fraction of total thread-time.
func (r *Run) StateBreakdown() map[State]float64 {
	var total time.Duration
	var per [numStates]time.Duration
	for i := range r.Threads {
		for s := State(0); s < numStates; s++ {
			per[s] += r.Threads[i].InState[s]
			total += r.Threads[i].InState[s]
		}
	}
	out := make(map[State]float64, numStates)
	for s := State(0); s < numStates; s++ {
		if total > 0 {
			out[s] = float64(per[s]) / float64(total)
		}
	}
	return out
}

// StealsPerSecond returns the aggregate successful-steal throughput, the
// paper's "load balancing operations per second".
func (r *Run) StealsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sum(func(t *Thread) int64 { return t.Steals })) / r.Elapsed.Seconds()
}

// Imbalance returns max/mean of per-thread node counts: 1.0 is perfect.
func (r *Run) Imbalance() float64 {
	if len(r.Threads) == 0 {
		return 0
	}
	var max, sum int64
	for i := range r.Threads {
		n := r.Threads[i].Nodes
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(r.Threads))
	return float64(max) / mean
}

// Summary renders a human-readable multi-line report in the style of the
// UTS reference output.
func (r *Run) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "threads=%d nodes=%d leaves=%d elapsed=%v rate=%.3gM nodes/s\n",
		len(r.Threads), r.Nodes(), r.Leaves(), r.Elapsed.Round(time.Microsecond), r.Rate()/1e6)
	if len(r.FailedRanks) > 0 {
		fmt.Fprintf(&b, "PARTIAL RESULT: no stats from rank(s) %v (failed or unreachable)\n", r.FailedRanks)
	}
	if len(r.SuspectedRanks) > 0 {
		fmt.Fprintf(&b, "DEGRADED: rank(s) %v were declared dead during the run (membership shrank; totals may be partial)\n", r.SuspectedRanks)
	}
	if r.SeqRate > 0 {
		fmt.Fprintf(&b, "speedup=%.1f efficiency=%.1f%%\n", r.Speedup(), 100*r.Efficiency())
	}
	fmt.Fprintf(&b, "steals=%d (%.0f/s) probes=%d failed=%d releases=%d reacquires=%d chunks-stolen=%d\n",
		r.Sum(func(t *Thread) int64 { return t.Steals }), r.StealsPerSecond(),
		r.Sum(func(t *Thread) int64 { return t.Probes }),
		r.Sum(func(t *Thread) int64 { return t.FailedSteals }),
		r.Sum(func(t *Thread) int64 { return t.Releases }),
		r.Sum(func(t *Thread) int64 { return t.Reacquires }),
		r.Sum(func(t *Thread) int64 { return t.ChunksGot }))
	if d := r.Sum(func(t *Thread) int64 { return t.DuplicateTakes }); d > 0 {
		fmt.Fprintf(&b, "duplicate-takes=%d (relaxed-ring multiplicity, deduped before exploration)\n", d)
	}
	bd := r.StateBreakdown()
	if bd[Working]+bd[Searching]+bd[Stealing]+bd[Idle] > 0 {
		keys := make([]State, 0, len(bd))
		for s := range bd {
			keys = append(keys, s)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		fmt.Fprintf(&b, "time in state:")
		for _, s := range keys {
			fmt.Fprintf(&b, " %s=%.1f%%", s, 100*bd[s])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "imbalance(max/mean nodes)=%.2f\n", r.Imbalance())
	if r.Policy != nil {
		fmt.Fprintln(&b, r.Policy.String())
	}
	if r.Obs != nil {
		b.WriteString(r.Obs.String())
	}
	return b.String()
}

// PerThreadTable renders one line per thread with the full counter set —
// the detail view behind Summary's aggregates. Columns: id, nodes, leaves,
// steals, chunks, failed, probes, releases, reacquires, requests, barrier
// entries, max stack depth, and the four state fractions.
func (r *Run) PerThreadTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %10s %10s %7s %7s %7s %8s %8s %8s %6s %4s %7s %6s %6s %6s %6s\n",
		"id", "nodes", "leaves", "steals", "chunks", "failed", "probes",
		"release", "reacq", "reqs", "bar", "maxdep", "work%", "srch%", "steal%", "idle%")
	for i := range r.Threads {
		t := &r.Threads[i]
		var total time.Duration
		for _, d := range t.InState {
			total += d
		}
		frac := func(s State) float64 {
			if total <= 0 {
				return 0
			}
			return 100 * float64(t.InState[s]) / float64(total)
		}
		fmt.Fprintf(&b, "%4d %10d %10d %7d %7d %7d %8d %8d %8d %6d %4d %7d %6.1f %6.1f %6.1f %6.1f\n",
			t.ID, t.Nodes, t.Leaves, t.Steals, t.ChunksGot, t.FailedSteals, t.Probes,
			t.Releases, t.Reacquires, t.Requests, t.TermBarrierEntries, t.MaxStackDepth,
			frac(Working), frac(Searching), frac(Stealing), frac(Idle))
	}
	return b.String()
}
