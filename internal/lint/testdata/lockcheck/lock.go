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

// okBothArms releases on each arm. It leaks nothing, but its section is
// not closed in the acquire's own statement list, which is the one shape
// lockcheck proves: it is a finding, and the fix is one release after the
// branch.
func (n *node) okBothArms(deep bool) {
	n.mu.Lock() // want "not released on the path falling out"
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

// okInfinite holds the lock into a loop that never exits. There is no
// exit to leak on, but no release follows the acquire in its statement
// list either: a lock held for good is a finding, to be silenced with a
// reason where it is meant.
func (n *node) okInfinite() {
	n.mu.Lock() // want "not released on the path falling out"
	for {
		n.retries++
	}
}

// badBothArmsReturn releases on each arm and returns from one: the
// return leaves the section before the release that closes it.
func (n *node) badBothArmsReturn(deep bool) int {
	n.mu.Lock()
	if deep {
		n.mu.Unlock()
		return 1 // want "return may leave n.mu held"
	}
	n.mu.Unlock()
	return 0
}

// badBreak leaves the section through the loop's break.
func (n *node) badBreak(k int) {
	for i := 0; i < k; i++ {
		n.mu.Lock()
		if n.retries > i {
			break // want "break may leave n.mu held"
		}
		n.retries++
		n.mu.Unlock()
	}
}

// badContinue leaves the section through the loop's continue.
func (n *node) badContinue(k int) {
	for i := 0; i < k; i++ {
		n.mu.Lock()
		if n.retries > i {
			continue // want "continue may leave n.mu held"
		}
		n.retries++
		n.mu.Unlock()
	}
}

// badGoto leaves the section through a goto to a label outside it.
func (n *node) badGoto(v int) {
	n.mu.Lock()
	if v < 0 {
		goto out // want "goto may leave n.mu held"
	}
	n.retries = v
	n.mu.Unlock()
out:
	n.retries++
}

// okInnerBranches breaks, continues and jumps only within the section:
// each target lies inside it.
func (n *node) okInnerBranches(k int, t kind) {
	n.mu.Lock()
	for i := 0; i < k; i++ {
		if i == 1 {
			continue
		}
		switch t {
		case kindPut:
			break
		}
		if n.retries > k {
			goto done
		}
		n.retries++
	}
done:
	n.mu.Unlock()
}

// okPanicExit: panicking with the lock held is not a leak finding —
// the runtime unwinds, and a panic is not an exit lockcheck looks for.
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
