// Package lock is the lockcheck golden corpus: the lock pairing
// patterns the analyzer must prove or reject.
package lock

import "sync"

type kind uint8

const kindPut kind = 1

type node struct {
	mu      sync.Mutex
	retries int
}

// okDefer pairs the lock with an immediate defer.
func (n *node) okDefer() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.retries++
}

// okStraight releases on the straight-line path.
func (n *node) okStraight() {
	n.mu.Lock()
	n.retries++
	n.mu.Unlock()
}

// badEarlyReturn leaks the lock on the early exit.
func (n *node) badEarlyReturn(v int) int {
	n.mu.Lock()
	if v < 0 {
		return -1 // want "may leave n.mu held"
	}
	n.mu.Unlock()
	return v
}

// okSwitchCase pairs lock and unlock inside one switch case; the
// unrelated return in the default clause is outside the lock's region.
func (n *node) okSwitchCase(k kind) bool {
	switch k {
	case kindPut:
		n.mu.Lock()
		n.retries++
		n.mu.Unlock()
	default:
		return false
	}
	return true
}

// okBothArms releases on each arm — invisible to the old lexical rule,
// proven by the CFG lattice.
func (n *node) okBothArms(deep bool) {
	n.mu.Lock()
	if deep {
		n.retries++
		n.mu.Unlock()
	} else {
		n.mu.Unlock()
	}
}

// badOneArm releases on only one arm.
func (n *node) badOneArm(deep bool) {
	n.mu.Lock() // want "not released on the path falling out"
	if deep {
		n.mu.Unlock()
	}
}

// okLoopBody pairs the lock inside each iteration.
func (n *node) okLoopBody(k int) {
	for i := 0; i < k; i++ {
		n.mu.Lock()
		n.retries++
		n.mu.Unlock()
	}
}

// okInfinite holds the lock into a loop that never exits: there is no
// exit path to leak on.
func (n *node) okInfinite() {
	n.mu.Lock()
	for {
		n.retries++
	}
}

// okPanicExit: panicking with the lock held is not a leak finding —
// the runtime unwinds, and the CFG routes panic edges past the check.
func (n *node) okPanicExit(v int) {
	n.mu.Lock()
	if v < 0 {
		panic("negative")
	}
	n.retries = v
	n.mu.Unlock()
}

// transferOwned hands the held lock to its caller by contract; the
// release lives in finishTransfer.
func (n *node) transferOwned() {
	n.mu.Lock() //uts:ok lockcheck ownership transfers to the caller, released in finishTransfer
	n.retries++
}

func (n *node) finishTransfer() {
	n.retries = 0
	n.mu.Unlock()
}
