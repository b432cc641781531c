//go:build go1.23

// The build line raises this file's language version to the one iter.Pull
// needs; go.mod's go line stays at 1.22 because the benchmark module, which
// replaces repro with this tree, declares go 1.22 and may not be edited.

package des

import "iter"

// start makes body p's coroutine, the package's only one: p.next resumes it
// until the body yields back through p.back — the value is what it asks of
// the legacy reference, a delay or blocked, and nothing to the batched
// engine — or returns. A panic in the body surfaces from p.next, on the
// goroutine that runs the dispatcher. The stop function is dropped on
// purpose: a PE still blocked when a run ends stays suspended, as a
// goroutine would, rather than have its body run on.
func (p *Proc) start(body func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(int64) bool) {
		p.back = yield
		body(p)
	})
}
