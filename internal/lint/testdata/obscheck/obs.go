// Package obs is the obscheck golden corpus: a miniature of the
// tracing layer's Lane/Tracer API with the Kind vocabulary, the
// nil-receiver contract (which a policy Controller shares), one violation
// of each rule, and a justified suppression.
package obs

type Kind uint8

const (
	KindSpawn Kind = iota
	KindSteal
)

// rawKind is deliberately mis-named: a declared constant whose name
// does not start with Kind falls outside the exporters' taxonomy.
const rawKind Kind = 7

type Lane struct {
	n int
}

// Rec carries the documented guard: a nil lane means tracing is off.
func (l *Lane) Rec(k Kind, pe int) {
	if l == nil {
		return
	}
	l.n++
}

// RecV forgets the guard.
func (l *Lane) RecV(k Kind, pe int, v uint64) { // want "must begin with a nil-receiver check"
	l.n++
}

func (l *Lane) Flush() { //uts:ok obscheck Flush is only reachable from a non-nil Tracer Close path
	l.n = 0
}

type Tracer struct {
	lanes []Lane
}

// Enabled guards inside the return expression; that counts.
func (t *Tracer) Enabled() bool {
	return t != nil && len(t.lanes) > 0
}

// Controller is nil on a fixed-knob run, like a nil Lane.
type Controller struct {
	k int
}

// Chunk answers with the fixed value when off.
func (c *Controller) Chunk(fixed int) int {
	if c == nil {
		return fixed
	}
	return c.k
}

// NoteDenied forgets the guard.
func (c *Controller) NoteDenied() { // want "must begin with a nil-receiver check"
	c.k--
}

func use(l *Lane, k Kind) {
	l.Rec(KindSpawn, 1)
	l.Rec(k, 2)       // forwarding a Kind-typed value is fine
	l.Rec(rawKind, 3) // want "not a declared Kind"
	l.RecV(KindSteal, 1, 9)
}
