// Package core implements the paper's contribution: five dynamic
// load-balancing implementations for parallel Unbalanced Tree Search,
// matching the legend of Figure 3:
//
//	upc-sharedmem    the shared-memory algorithm (Section 3.1): two-region
//	                 DFS stack with a lock-guarded shared region, steal one
//	                 chunk at a time, cancelable-barrier termination.
//	upc-term         upc-sharedmem with the streamlined termination
//	                 detection of Section 3.3.1.
//	upc-term-rapdif  upc-term with the rapid work diffusion of Section
//	                 3.3.2 (steal half the available chunks).
//	upc-distmem      the distributed-memory algorithm of Section 3.3.3:
//	                 lock-less owner-managed stack with an asynchronous
//	                 request/response steal protocol.
//	mpi-ws           the message-passing work stealing baseline of Section
//	                 3.2, with Dijkstra token-ring termination.
//
// Every implementation runs each PGAS thread (or MPI rank) as a goroutine
// and must produce exactly the node count of the sequential traversal —
// the repository-wide correctness invariant.
package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// Algorithm names a load-balancing implementation, using the labels of the
// paper's Figure 3.
type Algorithm string

// The five implementations compared in the paper, plus the sequential
// baseline.
const (
	Sequential    Algorithm = "seq"
	UPCSharedMem  Algorithm = "upc-sharedmem"
	UPCTerm       Algorithm = "upc-term"
	UPCTermRapdif Algorithm = "upc-term-rapdif"
	UPCDistMem    Algorithm = "upc-distmem"
	MPIWS         Algorithm = "mpi-ws"

	// Static is the no-load-balancing baseline: the root's children are
	// dealt round-robin to the threads up front and never move again. It
	// quantifies the introduction's premise that UTS trees cannot be
	// statically partitioned.
	Static Algorithm = "static"

	// UPCDistMemHier is this repository's implementation of the paper's
	// stated future work (Section 6.2): upc-distmem with locality-aware
	// work discovery that probes threads on the same cluster node before
	// probing off-node (the bupc_thread_distance idea). It differs from
	// upc-distmem only in the simulator, whose des.Config.NodeSize groups
	// PEs into nodes; the goroutine substrate has no nodes and runs it flat.
	UPCDistMemHier Algorithm = "upc-distmem-hier"

	// UPCTermRelaxed is upc-term with the lock-guarded shared region
	// replaced by a fence-free relaxed ring (DESIGN.md §14): the owner
	// publishes and retracts chunks with atomic stores and loads only,
	// thieves claim with a versioned-slot load+store handshake that may
	// rarely duplicate a take, and a per-ring multiplicity ledger dedups
	// duplicated subtrees before exploration so final counts stay exact.
	UPCTermRelaxed Algorithm = "upc-term-relaxed"
)

// Algorithms lists the paper's parallel implementations in refinement
// order (each entry adds one of the paper's improvements over the
// previous).
var Algorithms = []Algorithm{UPCSharedMem, UPCTerm, UPCTermRapdif, UPCDistMem, MPIWS}

// Extensions lists the post-paper variants implemented in this repository.
var Extensions = []Algorithm{UPCDistMemHier, Static, UPCTermRelaxed}

// Options configures a parallel search.
type Options struct {
	// Algorithm selects the implementation; default UPCDistMem (the
	// paper's best).
	Algorithm Algorithm
	// Threads is the number of PGAS threads / MPI ranks; default 1.
	Threads int
	// Chunk is the work-stealing granularity k in nodes (Section 4.2.1);
	// default 16.
	Chunk int
	// Model is the interconnect cost model; nil means zero-latency shared
	// memory.
	Model *pgas.Model
	// PollInterval is, for mpi-ws, the number of nodes explored between
	// polls of the message queue (the paper's user-supplied parameter);
	// default 8. The UPC implementations poll their request word every
	// node, as in the paper, since that is a local read.
	PollInterval int
	// Seed randomizes the pseudo-random probe order; runs with the same
	// seed take identical probe sequences per thread.
	Seed int64
	// SeqRate, if non-zero, is the sequential baseline rate (nodes/s)
	// recorded in the result for speedup computation.
	SeqRate float64
	// Tracer, when non-nil, records steal-protocol events and latency
	// histograms for every worker (one obs lane per thread; create it
	// with obs.New(Threads, ringSize)). The nil default keeps every
	// worker on the no-op fast path.
	Tracer *obs.Tracer

	// Adapt, when non-nil, enables the closed-loop per-thread controllers
	// (internal/policy): chunk size, steal-half selection, and — for
	// mpi-ws — the poll interval adapt at runtime from windowed steal
	// feedback, starting from and bounded around the static values above.
	// The nil default keeps every worker on the fixed-knob path,
	// byte-identical to a build without the policy package.
	Adapt *policy.Config

	// policySet, built by Run from Adapt, holds the per-thread
	// controllers handed to workers.
	policySet *policy.Set
}

// withDefaults returns a copy of o with defaults applied.
func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = UPCDistMem
	}
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Chunk == 0 {
		o.Chunk = 16
	}
	if o.Model == nil {
		o.Model = &pgas.SharedMemory
	}
	if o.PollInterval == 0 {
		o.PollInterval = 8
	}
	return o
}

// validate rejects unusable option combinations.
func (o Options) validate() error {
	if o.Threads < 0 {
		return fmt.Errorf("core: negative thread count %d", o.Threads)
	}
	if o.Chunk < 0 {
		return fmt.Errorf("core: negative chunk size %d", o.Chunk)
	}
	if o.PollInterval < 0 {
		return fmt.Errorf("core: negative poll interval %d", o.PollInterval)
	}
	switch o.Algorithm {
	case Sequential, Static, UPCSharedMem, UPCTerm, UPCTermRapdif, UPCTermRelaxed, UPCDistMem, UPCDistMemHier, MPIWS, "":
	default:
		return fmt.Errorf("core: unknown algorithm %q", o.Algorithm)
	}
	return nil
}

// Result is a completed parallel search.
type Result struct {
	stats.Run
	Spec      *uts.Spec
	Algorithm Algorithm
	Chunk     int
}

// Run executes a complete traversal of sp under the given options and
// returns the aggregated statistics. The returned node count always equals
// the sequential count for sp.
func Run(sp *uts.Spec, opt Options) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	opt.policySet = policy.NewSet(opt.Adapt,
		PolicyBase(opt.Algorithm, opt.Chunk, opt.PollInterval), opt.Threads)

	res := &Result{Spec: sp, Algorithm: opt.Algorithm, Chunk: opt.Chunk}
	res.SeqRate = opt.SeqRate
	res.Threads = make([]stats.Thread, opt.Threads)
	for i := range res.Threads {
		res.Threads[i].ID = i
	}

	// Wall-clock Elapsed/rate reporting only; scheduling runs on virtual time.
	start := time.Now()
	var err error
	switch opt.Algorithm {
	case Sequential:
		c := uts.SearchSequential(sp)
		res.Threads = res.Threads[:1]
		res.Threads[0].Nodes = c.Nodes
		res.Threads[0].Leaves = c.Leaves
		res.Threads[0].InState[stats.Working] = c.Elapsed
	case Static:
		err = runStatic(sp, opt, res)
	case UPCSharedMem, UPCTerm, UPCTermRapdif, UPCTermRelaxed:
		err = runShared(sp, opt, res, SharedVariants[opt.Algorithm])
	case UPCDistMem, UPCDistMemHier:
		err = runDistMem(sp, opt, res)
	case MPIWS:
		err = runMPIWS(sp, opt, res)
	}
	res.Elapsed = time.Since(start)
	res.Obs = opt.Tracer.Summary()
	res.Policy = opt.policySet.Summary()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// YieldEvery is the number of nodes — counted in nodes, however many a
// Visit takes — a wall-clock worker, a thread of this package or the
// cluster's rank worker, explores between two cooperative scheduler yields
// (WallPE.yield). In the paper every UPC thread owns a dedicated processor;
// when goroutine-threads outnumber cores, a working thread that never yields
// would starve searching threads and serialize the whole run. 256 nodes are
// about 13 µs of SHA-1 work (5 µs where the sixteen-lane kernel runs): with
// threads ≤ cores the yield finds an empty run queue and costs the 1/256th
// of a node that is left of it; with more threads than cores each of them
// waits at most (threads/cores − 1) × 13 µs for its turn — a time slice a
// thousand times shorter than the OS's, and still shorter than one steal
// round trip.
const YieldEvery = 256

// ProbeOrder is a small per-thread xorshift64* generator for pseudo-random
// probe orders; it keeps probe sequences deterministic per (seed, thread)
// without sharing math/rand state across threads. It also owns the probe
// permutation used for full cycles: the victim list for a given (me, n,
// nodeSize) is built once and only re-shuffled on later cycles, so a
// worker that fails many probe cycles in a row does not rebuild it every
// time.
type ProbeOrder struct {
	s uint64

	// Cached probe cycle. perm holds the n−1 victims (for CycleHier, the
	// first intra entries are the same-node ones), two bytes each; it is
	// rebuilt only when me/n/nodeSize change, which for a worker is never
	// after the first call.
	perm            []uint16
	built           bool
	me, n, nodeSize int
	intra           int
}

func NewProbeOrder(seed int64, me int) *ProbeOrder {
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(me+1)*0xbf58476d1ce4e5b9
	if s == 0 {
		s = 1
	}
	return &ProbeOrder{s: s}
}

func (r *ProbeOrder) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Victim returns a uniformly random thread other than me among n threads.
// n must be at least 2.
func (r *ProbeOrder) Victim(me, n int) int {
	v := int(r.next() % uint64(n-1))
	if v >= me {
		v++
	}
	return v
}

// Cycle returns a random permutation of the n−1 threads other than me, for
// full probe cycles. The returned slice is owned by the ProbeOrder and
// reused: the identity portion is built on the first call and subsequent
// calls only re-shuffle it (a Fisher–Yates pass from any permutation is
// still uniform), so repeated failed cycles cost no rebuilding. The slice
// is valid until the next Cycle/CycleHier call. Thread ids are stored in
// two bytes, so n may not exceed 1<<16: a probe walk builds a table only up
// to probeWalkCacheMax.
func (r *ProbeOrder) Cycle(me, n int) []uint16 {
	if !r.cached(me, n, 1) {
		r.build(n)
		for i := 0; i < n; i++ {
			if i != me {
				r.perm = append(r.perm, uint16(i))
			}
		}
		r.remember(me, n, 1, len(r.perm))
	}
	r.shuffle(r.perm)
	return r.perm
}

// CycleHier returns a locality-aware probe cycle: the threads on me's
// cluster node (of nodeSize consecutive IDs) come first in random order,
// then all off-node threads in random order. With nodeSize <= 1 it reduces
// to Cycle. Like Cycle it builds the victim list once and re-shuffles the
// two locality segments on reuse.
func (r *ProbeOrder) CycleHier(me, n, nodeSize int) []uint16 {
	if nodeSize <= 1 {
		return r.Cycle(me, n)
	}
	if !r.cached(me, n, nodeSize) {
		r.build(n)
		node := me / nodeSize
		for i := node * nodeSize; i < (node+1)*nodeSize && i < n; i++ {
			if i != me {
				r.perm = append(r.perm, uint16(i))
			}
		}
		intra := len(r.perm)
		for i := 0; i < n; i++ {
			if i/nodeSize != node {
				r.perm = append(r.perm, uint16(i))
			}
		}
		r.remember(me, n, nodeSize, intra)
	}
	r.shuffle(r.perm[:r.intra])
	r.shuffle(r.perm[r.intra:])
	return r.perm
}

// build empties the cached permutation for a cycle over n threads, with
// room for its n−1 victims.
func (r *ProbeOrder) build(n int) {
	if n > 1<<16 {
		panic(fmt.Sprintf("core: a probe cycle over %d threads: a table holds 16-bit ids", n))
	}
	if cap(r.perm) < n-1 {
		r.perm = make([]uint16, 0, n-1)
	}
	r.perm = r.perm[:0]
}

// cached reports whether the stored permutation was built for the same
// cycle parameters.
func (r *ProbeOrder) cached(me, n, nodeSize int) bool {
	return r.built && r.me == me && r.n == n && r.nodeSize == nodeSize
}

func (r *ProbeOrder) remember(me, n, nodeSize, intra int) {
	r.built = true
	r.me, r.n, r.nodeSize, r.intra = me, n, nodeSize, intra
}

// shuffle permutes s in place (Fisher–Yates).
func (r *ProbeOrder) shuffle(s []uint16) {
	for i := len(s) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// probeWalkCacheMax is the largest thread count for which probe walks
// materialize and shuffle the cached victim permutation (exact
// Cycle/CycleHier behavior, so historical schedules at experiment scales
// are preserved byte-for-byte). Above it the walk switches to a
// coprime-strided traversal of the ID space with O(1) state per walker:
// with P simulated PEs each caching an O(P) cycle, the permutations cost
// O(P²) memory in one simulator process — ≈137 GB at 131072 PEs, which
// OOM-killed the first 131072-PE work-stealing run at ~130 GB. The strided
// walk runs it in 0.86 GB (EXPERIMENTS.md D3). Completion at that scale is
// still bounded by the algorithm itself: exhaustion means every idle PE
// walks all P−1 victims, an O(P²) event bill no engine can waive. Below it
// a table's ids are two bytes each, 33.5 MB of tables over 4,096 PEs (8-byte
// ids took 134 MB), and des's Doze numbers a table's polls in two bytes too.
const probeWalkCacheMax = 4096

// ProbeWalk is a lazily generated probe cycle: each of the n−1 victims
// exactly once, consumed with Victim (peek), Advance, and Exhausted —
// mirroring indexed iteration over a permutation slice, which is how the
// simulator's probe state machines use it across event callbacks. Below
// probeWalkCacheMax it wraps the cached Cycle/CycleHier permutation;
// above it victims come from (start + k·stride) mod n with the stride
// coprime to n — a uniformly chosen cyclic permutation rather than a
// uniformly chosen permutation. For idle-victim probing the lost shuffle
// entropy is immaterial, and the O(1) footprint is what makes 100K+-PE
// work-stealing simulations affordable in memory.
type ProbeWalk struct {
	perm []uint16 // cached-permutation path; nil on the strided path
	idx  int

	// Strided path. Victims are (start+k·str) mod n skipping the block
	// [base, end): the walker's own node for hierarchical walks, or just
	// [me, me+1) for flat ones. Hierarchical walks first cover the block
	// itself (minus me) with its own stride s0/st0 so same-node victims
	// still come first.
	me, n      int
	base, end  int
	s0, st0    int
	start, str int
	k          int
	phase      int // 0 = intra-block segment, 1 = whole-ring segment
	cur        int
	done       bool
}

// Walk starts a probe cycle over the n−1 threads other than me.
func (r *ProbeOrder) Walk(me, n int) ProbeWalk { return r.WalkHier(me, n, 1) }

// WalkHier starts a locality-aware probe cycle: victims on me's node (of
// nodeSize consecutive IDs) first, then everyone else, as in CycleHier.
func (r *ProbeOrder) WalkHier(me, n, nodeSize int) ProbeWalk {
	if n <= probeWalkCacheMax {
		if nodeSize > 1 {
			return ProbeWalk{perm: r.CycleHier(me, n, nodeSize)}
		}
		return ProbeWalk{perm: r.Cycle(me, n)}
	}
	w := ProbeWalk{me: me, n: n, cur: -1}
	if nodeSize > 1 {
		node := me / nodeSize
		w.base = node * nodeSize
		w.end = w.base + nodeSize
		if w.end > n {
			w.end = n
		}
	} else {
		w.base, w.end = me, me+1
	}
	bl := w.end - w.base
	w.s0 = int(r.next() % uint64(bl))
	w.st0 = r.coprimeStride(bl)
	w.start = int(r.next() % uint64(n))
	w.str = r.coprimeStride(n)
	w.Advance() // position on the first victim
	return w
}

// Victim returns the walk's current victim without consuming it.
func (w *ProbeWalk) Victim() int {
	if w.perm != nil {
		return int(w.perm[w.idx])
	}
	return w.cur
}

// Rest returns the victims still to come, the current one first, when the
// walk holds its order as a table: a host that sleeps through probes
// (Host.Doze) reads ahead in it. The slice is the walk's own and stands
// until the cycle ends. A strided walk, whose order exists only as
// arithmetic, returns nil.
func (w *ProbeWalk) Rest() []uint16 {
	if w.perm == nil {
		return nil
	}
	return w.perm[w.idx:]
}

// Exhausted reports whether every victim of the cycle has been consumed.
func (w *ProbeWalk) Exhausted() bool {
	if w.perm != nil {
		return w.idx >= len(w.perm)
	}
	return w.done
}

// Advance moves the walk to its next victim.
func (w *ProbeWalk) Advance() {
	if w.perm != nil {
		w.idx++
		return
	}
	w.stride()
}

// stride is Advance on the strided path.
func (w *ProbeWalk) stride() {
	for {
		if w.phase == 0 {
			bl := w.end - w.base
			if w.k >= bl {
				w.phase, w.k = 1, 0
				continue
			}
			v := w.base + (w.s0+w.k*w.st0)%bl
			w.k++
			if v != w.me {
				w.cur = v
				return
			}
			continue
		}
		if w.k >= w.n {
			w.done = true
			return
		}
		v := (w.start + w.k*w.str) % w.n
		w.k++
		if v >= w.base && v < w.end {
			continue
		}
		w.cur = v
		return
	}
}

// coprimeStride draws a uniformly random stride in [1, n) coprime to n —
// every such stride generates the full cyclic group mod n, so the strided
// walk visits each ID exactly once. Rejection terminates fast: coprime
// density is at least 1/O(log log n).
func (r *ProbeOrder) coprimeStride(n int) int {
	if n <= 2 {
		return 1
	}
	for {
		s := 1 + int(r.next()%uint64(n-1))
		if gcd(s, n) == 1 {
			return s
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
