// Package pgas provides the partitioned-global-address-space runtime
// surface the work-stealing implementations are written against, standing in
// for UPC and the Berkeley UPC runtime used in the paper.
//
// UPC gives a program: a fixed set of threads, shared data with per-thread
// affinity, one-sided reads and writes of remote shared data, and global
// locks. On a cluster the compiler translates remote references into
// interconnect operations, and the entire argument of the paper is about the
// *cost structure* of those operations: a remote reference costs microseconds
// where a local one costs nanoseconds, and a remote lock acquisition costs an
// order of magnitude more than a remote reference (Section 3.3.3).
//
// In this reproduction, threads are goroutines in one address space, so
// affinity is a bookkeeping notion and remote references are ordinary memory
// operations plus an injected latency charge taken from a Model. The same
// Model drives the discrete-event simulator, which is how the cluster-scale
// experiments (Figures 4 and 5) are reproduced on a single machine.
package pgas

import (
	"fmt"
	"runtime"
	"time"
)

// Model is the interconnect cost model. All entries are charged to the
// calling thread: in real execution as an injected delay, in simulation as
// virtual time.
type Model struct {
	Name string

	// LocalRef is the cost of a shared-variable reference with local
	// affinity (UPC shared-pointer translation overhead).
	LocalRef time.Duration
	// RemoteRef is the one-way latency of a one-sided remote read or write
	// of a small (word-sized) shared variable.
	RemoteRef time.Duration
	// PerKB is the additional bandwidth cost of bulk one-sided transfers,
	// charged per KiB on top of RemoteRef.
	PerKB time.Duration
	// LockRTT is the cost of acquiring or releasing a lock with remote
	// affinity, beyond the queueing delay itself. The paper observes this
	// is typically ~10x a shared-variable reference.
	LockRTT time.Duration
	// NodeCost is the sequential cost of generating and visiting one tree
	// node (the SHA-1 evaluation); it calibrates the simulator's virtual
	// clock. Real-mode execution ignores it: real nodes take real time.
	NodeCost time.Duration
}

// BulkCost returns the modeled cost of a one-sided transfer of n bytes.
func (m *Model) BulkCost(n int) time.Duration {
	return m.RemoteRef + time.Duration(int64(m.PerKB)*int64(n)/1024)
}

// MinRemoteHop returns the minimum nonzero cost of any cross-PE operation
// under this model: the cheapest latency a remote reference, bulk transfer,
// or lock round trip can incur. It is a conservative lookahead — no PE can
// affect another PE's partition in less virtual time than this — so a zero
// return means the model admits instantaneous remote effects. Every remote
// operation charges at least RemoteRef (BulkCost adds bandwidth on top,
// and the simulator clamps LockRTT up to RemoteRef), so the minimum hop
// is RemoteRef when it is nonzero, falling back to LockRTT for models
// that make references free but locks costly.
func (m *Model) MinRemoteHop() time.Duration {
	if m.RemoteRef > 0 {
		return m.RemoteRef
	}
	if m.LockRTT > 0 {
		return m.LockRTT
	}
	return 0
}

// String identifies the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s[local=%v remote=%v lock=%v perKB=%v node=%v]",
		m.Name, m.LocalRef, m.RemoteRef, m.LockRTT, m.PerKB, m.NodeCost)
}

// The stock machine profiles. Latencies are set from the hardware the paper
// reports: InfiniBand clusters (Kitty Hawk, Topsail) with one-sided puts/gets
// in the few-microsecond range and remote locking an order of magnitude
// above a reference, and the SGI Altix 3700 whose hypercube interconnect
// supports sub-microsecond remote references. NodeCost ≈ 1/2.2M s matches
// the paper's measured sequential rates (2.10-2.39M nodes/s on Xeon,
// 1.12M on Itanium2).
var (
	// SharedMemory is an idealized zero-latency profile: every thread pays
	// only nominal local costs. Used for pure-correctness runs.
	SharedMemory = Model{
		Name:      "sharedmem",
		LocalRef:  0,
		RemoteRef: 0,
		PerKB:     0,
		LockRTT:   0,
		NodeCost:  450 * time.Nanosecond,
	}

	// Altix models the SGI Altix 3700 of Section 4.3: hardware shared
	// memory with a low-latency interconnect.
	Altix = Model{
		Name:      "altix",
		LocalRef:  5 * time.Nanosecond,
		RemoteRef: 600 * time.Nanosecond,
		PerKB:     300 * time.Nanosecond,
		LockRTT:   2 * time.Microsecond,
		NodeCost:  890 * time.Nanosecond, // 1.12M nodes/s Itanium2
	}

	// KittyHawk models the 264-processor InfiniBand blade cluster of
	// Section 4.2 (Figure 4's machine).
	KittyHawk = Model{
		Name:      "kittyhawk",
		LocalRef:  5 * time.Nanosecond,
		RemoteRef: 4 * time.Microsecond,
		PerKB:     1 * time.Microsecond,
		LockRTT:   35 * time.Microsecond,
		NodeCost:  418 * time.Nanosecond, // 2.39M nodes/s Xeon E5150
	}

	// Topsail models the 4160-processor InfiniBand cluster of Section
	// 4.2.2 (Figure 5's machine).
	Topsail = Model{
		Name:      "topsail",
		LocalRef:  5 * time.Nanosecond,
		RemoteRef: 5 * time.Microsecond,
		PerKB:     1200 * time.Nanosecond,
		LockRTT:   40 * time.Microsecond,
		NodeCost:  476 * time.Nanosecond, // 2.10M nodes/s Xeon E5345
	}
)

// Profiles lists the stock models by name.
var Profiles = map[string]*Model{
	"sharedmem": &SharedMemory,
	"altix":     &Altix,
	"kittyhawk": &KittyHawk,
	"topsail":   &Topsail,
}

// Charge injects the model delay d into real execution on the calling
// goroutine. Sub-50µs delays are spin-waited with cooperative yields so
// that oversubscribed runs (more threads than cores) stay live; longer
// delays sleep.
func Charge(d time.Duration) {
	if d <= 0 {
		return
	}
	if d >= 50*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
