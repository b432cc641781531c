// Package directivebad exercises the malformed-directive findings that
// cannot share a line with a // want comment: empty and malformed
// //uts:orders directives, and a nameless //uts:mark. The checks are
// programmatic (TestMalformedDirectives).
package directivebad

import "sync/atomic"

type gauge struct {
	n []int32
	w atomic.Uint64
}

// badEmptyOrders declares nothing.
//
//uts:orders
func (g *gauge) badEmptyOrders(i int) {
	g.n[i] = 1
	g.w.Store(1)
}

// badPair declares a pair with no right-hand side.
//
//uts:orders ledger<
func (g *gauge) badPair(i int) {
	g.n[i] = 1 //uts:mark ledger
	g.w.Store(1)
}

// badMark carries a nameless mark; the pair itself holds via the
// field-name fallback, so the only finding is the mark's.
//
//uts:orders n<w
func (g *gauge) badMark(i int) {
	g.n[i] = 1 //uts:mark
	g.w.Store(1)
}
