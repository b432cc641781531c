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

	// Two-level topology (optional): threads are grouped into cluster
	// nodes of nodeSize consecutive IDs; references between threads on
	// the same node are charged to intra instead of model. This realizes
	// the machine structure behind the paper's Section 6.2 suggestion of
	// stealing within a node (bupc_thread_distance) before going off-node.
	nodeSize int
	intra    *Model
}

// SetTopology groups the domain's threads into cluster nodes of nodeSize
// consecutive IDs and charges references between same-node threads to the
// intra model. nodeSize <= 1 or a nil intra model restores the flat
// machine.
func (d *Domain) SetTopology(nodeSize int, intra *Model) {
	if nodeSize <= 1 || intra == nil {
		d.nodeSize = 0
		d.intra = nil
		return
	}
	d.nodeSize = nodeSize
	d.intra = intra
}

// NodeSize returns the cluster-node size, or 0 for a flat machine.
func (d *Domain) NodeSize() int { return d.nodeSize }

// SameNode reports whether threads a and b live on the same cluster node.
// On a flat machine only a == b is local.
func (d *Domain) SameNode(a, b int) bool {
	if a == b {
		return true
	}
	if d.nodeSize <= 1 {
		return false
	}
	return a/d.nodeSize == b/d.nodeSize
}

// modelFor returns the cost model governing a reference from thread me to
// data with affinity to owner.
func (d *Domain) modelFor(me, owner int) *Model {
	if d.intra != nil && me != owner && d.SameNode(me, owner) {
		return d.intra
	}
	return d.model
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
		Charge(d.modelFor(me, owner).RemoteRef)
	}
}

// ChargeBulk charges thread `me` for a one-sided bulk transfer of n bytes
// to or from thread `owner`'s partition (upc_memget/upc_memput).
func (d *Domain) ChargeBulk(me, owner, n int) {
	if me == owner {
		Charge(d.model.LocalRef)
	} else {
		Charge(d.modelFor(me, owner).BulkCost(n))
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
	Charge(d.modelFor(me, owner).LockRTT)
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
	// (DESIGN.md §18).
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
		Charge(l.dom.modelFor(me, l.owner).LockRTT)
	}
	l.mu.Lock()
}

// Release releases the lock, charging the affinity-dependent cost.
func (l *Lock) Release(me int) {
	l.mu.Unlock()
	if me == l.owner {
		Charge(l.dom.model.LocalRef)
	} else {
		Charge(l.dom.modelFor(me, l.owner).LockRTT)
	}
}
