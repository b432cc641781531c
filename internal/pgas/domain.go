package pgas

import (
	"fmt"
	"sync"
)

// Domain is one PGAS program instance: a fixed set of threads (UPC's
// THREADS) sharing an address space partitioned by affinity. The Domain
// does not own the shared data — the algorithms keep their own structures —
// it owns the cost accounting and the synchronization primitives whose
// semantics depend on affinity.
type Domain struct {
	n     int
	model *Model
}

// NewDomain creates a domain of n threads under the given cost model.
// The model may be nil, meaning SharedMemory.
func NewDomain(n int, model *Model) (*Domain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pgas: domain needs at least one thread, got %d", n)
	}
	if model == nil {
		model = &SharedMemory
	}
	return &Domain{n: n, model: model}, nil
}

// Threads returns the number of threads in the domain (UPC's THREADS).
func (d *Domain) Threads() int { return d.n }

// Model returns the domain's cost model.
func (d *Domain) Model() *Model { return d.model }

// ChargeRef charges thread `me` for one shared-variable reference to data
// with affinity to thread `owner`: the local overhead if me == owner, the
// one-sided remote latency otherwise.
func (d *Domain) ChargeRef(me, owner int) {
	if me == owner {
		Charge(d.model.LocalRef)
	} else {
		Charge(d.model.RemoteRef)
	}
}

// ChargeBulk charges thread `me` for a one-sided bulk transfer of n bytes
// to or from thread `owner`'s partition (upc_memget/upc_memput).
func (d *Domain) ChargeBulk(me, owner, n int) {
	if me == owner {
		Charge(d.model.LocalRef)
	} else {
		Charge(d.model.BulkCost(n))
	}
}

// ChargeLockRTT charges thread `me` a lock round trip to data with
// affinity to thread `owner` (used for atomically claimed protocol words,
// like the distributed-memory algorithm's request variable).
func (d *Domain) ChargeLockRTT(me, owner int) {
	if me == owner {
		Charge(d.model.LocalRef)
		return
	}
	Charge(d.model.LockRTT)
}

// Lock is a UPC-style global lock: any thread may acquire it, and acquiring
// or releasing it from a thread other than its affinity owner costs a
// remote round trip on top of any queueing delay. The zero value is not
// usable; create locks through Domain.NewLock.
type Lock struct {
	dom   *Domain
	owner int
	mu    sync.Mutex

	// One lock, one cache line: the locks of a run are allocated back to
	// back, and at their bare 24 bytes two threads' mutex words share a
	// line, so each owner's uncontended acquire bounces the other's
	// (DESIGN.md §17).
	_ [64 - 24]byte
}

// NewLock returns a lock whose affinity is to thread owner.
func (d *Domain) NewLock(owner int) *Lock {
	return &Lock{dom: d, owner: owner}
}

// Acquire blocks until the lock is held by thread me, charging the
// affinity-dependent acquisition cost.
func (l *Lock) Acquire(me int) {
	if me == l.owner {
		Charge(l.dom.model.LocalRef)
	} else {
		Charge(l.dom.model.LockRTT)
	}
	l.mu.Lock()
}

// Release releases the lock, charging the affinity-dependent cost.
func (l *Lock) Release(me int) {
	l.mu.Unlock()
	if me == l.owner {
		Charge(l.dom.model.LocalRef)
	} else {
		Charge(l.dom.model.LockRTT)
	}
}
