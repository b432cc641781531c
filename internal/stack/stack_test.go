package stack

import (
	"testing"
	"testing/quick"

	"repro/internal/uts"
)

// mk builds a node whose Height encodes an identity for order checks.
func mk(i int) uts.Node { return uts.Node{Height: int32(i)} }

func TestDequeLIFO(t *testing.T) {
	var d Deque
	for i := 0; i < 100; i++ {
		d.Push(mk(i))
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 99; i >= 0; i-- {
		n, ok := d.Pop()
		if !ok || int(n.Height) != i {
			t.Fatalf("pop %d: got (%v, %v)", i, n.Height, ok)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Error("pop from empty deque succeeded")
	}
}

func TestDequeTakeBottomOrder(t *testing.T) {
	var d Deque
	for i := 0; i < 10; i++ {
		d.Push(mk(i))
	}
	got := d.TakeBottomAppend(nil, 4)
	for i, n := range got {
		if int(n.Height) != i {
			t.Fatalf("TakeBottom[%d] = %d, want %d (oldest-first)", i, n.Height, i)
		}
	}
	if d.Len() != 6 {
		t.Fatalf("Len after TakeBottom = %d", d.Len())
	}
	// Remaining stack still pops LIFO from the top.
	n, _ := d.Pop()
	if n.Height != 9 {
		t.Fatalf("top after TakeBottom = %d", n.Height)
	}
}

func TestDequeTakeBottomPanicsBeyondLen(t *testing.T) {
	var d Deque
	d.Push(mk(1))
	defer func() {
		if recover() == nil {
			t.Error("TakeBottom(2) on len-1 deque should panic")
		}
	}()
	d.TakeBottomAppend(nil, 2)
}

func TestDequePushAll(t *testing.T) {
	var d Deque
	d.PushAll([]uts.Node{mk(1), mk(2), mk(3)})
	n, _ := d.Pop()
	if n.Height != 3 {
		t.Errorf("top after PushAll = %d, want 3", n.Height)
	}
}

// TestDequeCompaction drives many release-style TakeBottom calls and checks
// contents survive the internal compaction.
func TestDequeCompaction(t *testing.T) {
	var d Deque
	next := 0
	taken := 0
	for round := 0; round < 3000; round++ {
		for i := 0; i < 8; i++ {
			d.Push(mk(next))
			next++
		}
		if d.Len() >= 6 {
			got := d.TakeBottomAppend(nil, 3)
			for i, n := range got {
				if int(n.Height) != taken+i {
					t.Fatalf("round %d: TakeBottom[%d] = %d, want %d", round, i, n.Height, taken+i)
				}
			}
			taken += 3
		}
	}
	// Drain: tops come down to the first unreleased id.
	prev := next
	for d.Len() > 0 {
		n, _ := d.Pop()
		if int(n.Height) >= prev {
			t.Fatalf("pop order violated: %d then %d", prev, n.Height)
		}
		prev = int(n.Height)
	}
	if prev != taken {
		t.Fatalf("bottom-most popped = %d, want first unreleased %d", prev, taken)
	}
}

// TestDequeModel property-checks Deque against a straightforward slice
// model under random push/pop/takebottom traces.
func TestDequeModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var d Deque
		var model []uts.Node
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				d.Push(mk(next))
				model = append(model, mk(next))
				next++
			case 1: // pop
				got, ok := d.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || got != want {
					return false
				}
			case 2: // take bottom up to 2
				k := 2
				if k > len(model) {
					k = len(model)
				}
				if k == 0 || k > d.Len() {
					continue
				}
				got := d.TakeBottomAppend(nil, k)
				for i := 0; i < k; i++ {
					if got[i] != model[i] {
						return false
					}
				}
				model = model[k:]
			}
			if d.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPoolFIFOOldest(t *testing.T) {
	var p Pool
	for i := 0; i < 5; i++ {
		p.Put(Chunk{mk(i)})
	}
	if p.Len() != 5 || p.Nodes() != 5 {
		t.Fatalf("Len=%d Nodes=%d", p.Len(), p.Nodes())
	}
	for i := 0; i < 5; i++ {
		c, ok := p.TakeOldest()
		if !ok || int(c[0].Height) != i {
			t.Fatalf("TakeOldest %d: got %v", i, c)
		}
	}
	if _, ok := p.TakeOldest(); ok {
		t.Error("TakeOldest from empty pool succeeded")
	}
}

func TestPoolTakeNewest(t *testing.T) {
	var p Pool
	for i := 0; i < 3; i++ {
		p.Put(Chunk{mk(i)})
	}
	c, ok := p.TakeNewest()
	if !ok || c[0].Height != 2 {
		t.Fatalf("TakeNewest = %v", c)
	}
	c, _ = p.TakeOldest()
	if c[0].Height != 0 {
		t.Fatalf("TakeOldest after TakeNewest = %v", c)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPoolTakeHalf(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {7, 4}, {8, 4}}
	for _, tc := range cases {
		var p Pool
		for i := 0; i < tc.n; i++ {
			p.Put(Chunk{mk(i)})
		}
		got := p.TakeHalf()
		if len(got) != tc.want {
			t.Errorf("TakeHalf of %d chunks took %d, want %d", tc.n, len(got), tc.want)
			continue
		}
		// Oldest chunks are taken, in order.
		for i, c := range got {
			if int(c[0].Height) != i {
				t.Errorf("TakeHalf[%d] = chunk %d", i, c[0].Height)
			}
		}
		if p.Len() != tc.n-tc.want {
			t.Errorf("pool left with %d chunks, want %d", p.Len(), tc.n-tc.want)
		}
	}
}

// TestPoolNoChunkLostOrDuplicated runs a long random put/take trace and
// checks conservation: every chunk put is taken exactly once.
func TestPoolNoChunkLostOrDuplicated(t *testing.T) {
	var p Pool
	seen := map[int32]bool{}
	next := 0
	taken := 0
	rand := uint32(12345)
	for step := 0; step < 20000; step++ {
		rand = rand*1664525 + 1013904223
		switch rand % 4 {
		case 0, 1:
			p.Put(Chunk{mk(next)})
			next++
		case 2:
			if c, ok := p.TakeOldest(); ok {
				if seen[c[0].Height] {
					t.Fatalf("chunk %d taken twice", c[0].Height)
				}
				seen[c[0].Height] = true
				taken++
			}
		case 3:
			for _, c := range p.TakeHalf() {
				if seen[c[0].Height] {
					t.Fatalf("chunk %d taken twice (half)", c[0].Height)
				}
				seen[c[0].Height] = true
				taken++
			}
		}
	}
	for p.Len() > 0 {
		c, _ := p.TakeNewest()
		if seen[c[0].Height] {
			t.Fatalf("chunk %d taken twice (drain)", c[0].Height)
		}
		seen[c[0].Height] = true
		taken++
	}
	if taken != next {
		t.Fatalf("put %d chunks, took %d", next, taken)
	}
}

func BenchmarkDequePushPop(b *testing.B) {
	var d Deque
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(mk(i))
		if i%3 == 0 {
			d.Pop()
		}
		if d.Len() > 1024 {
			d.TakeBottomAppend(nil, 512)
		}
	}
}

// TestTakeHalfCountProperty property-checks the steal-half arithmetic:
// TakeHalf removes exactly ceil(len/2) chunks, always the oldest ones.
func TestTakeHalfCountProperty(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8 % 64)
		var p Pool
		for i := 0; i < n; i++ {
			p.Put(Chunk{mk(i)})
		}
		got := p.TakeHalf()
		want := (n + 1) / 2
		if n == 0 {
			return got == nil && p.Len() == 0
		}
		if len(got) != want || p.Len() != n-want {
			return false
		}
		for i, c := range got {
			if int(c[0].Height) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDequeBoundedFootprint drives the steady-state release pattern of a
// long-lived worker — push a few, take a chunk from the bottom, never fully
// drain — and checks the backing array stays proportional to the live node
// count instead of growing with the cumulative release total.
func TestDequeBoundedFootprint(t *testing.T) {
	var d Deque
	next := 0
	for i := 0; i < 64; i++ { // seed some residents
		d.Push(mk(next))
		next++
	}
	for step := 0; step < 100000; step++ {
		for i := 0; i < 4; i++ {
			d.Push(mk(next))
			next++
		}
		d.TakeBottomAppend(nil, 4)
		if c := cap(d.buf); c > 16*64 {
			t.Fatalf("step %d: cap(buf) = %d for Len = %d; dead prefix not compacted", step, c, d.Len())
		}
	}
	if d.Len() != 64 {
		t.Fatalf("Len = %d after balanced push/take, want 64", d.Len())
	}
	// The survivors must be the 64 newest in order.
	for i := 0; i < 64; i++ {
		want := next - 1 - i
		n, ok := d.Pop()
		if !ok || int(n.Height) != want {
			t.Fatalf("pop %d: got (%v, %v), want %d", i, n.Height, ok, want)
		}
	}
}

func TestDequeTakeBottomAppendReusesBuffer(t *testing.T) {
	var d Deque
	for i := 0; i < 8; i++ {
		d.Push(mk(i))
	}
	buf := make([]uts.Node, 0, 4)
	out := d.TakeBottomAppend(buf, 4)
	if &out[0] != &buf[:1][0] {
		t.Error("TakeBottomAppend reallocated despite sufficient capacity")
	}
	for i, n := range out {
		if n.Height != int32(i) {
			t.Fatalf("out[%d] = %d, want %d (oldest first)", i, n.Height, i)
		}
	}
	if d.Len() != 4 {
		t.Fatalf("deque has %d nodes left, want 4", d.Len())
	}
}

func TestPoolTakeHalfAppendReusesBuffer(t *testing.T) {
	var p Pool
	for i := 0; i < 5; i++ {
		p.Put(Chunk{mk(i)})
	}
	buf := make([]Chunk, 0, 3)
	out := p.TakeHalfAppend(buf)
	if len(out) != 3 {
		t.Fatalf("took %d chunks, want 3 (ceil(5/2))", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("TakeHalfAppend reallocated despite sufficient capacity")
	}
	for i, c := range out {
		if c[0].Height != int32(i) {
			t.Fatalf("chunk %d is %d, want %d (oldest first)", i, c[0].Height, i)
		}
	}
	if got := p.TakeHalfAppend(out[:0]); len(got) != 1 {
		t.Fatalf("second take got %d chunks, want 1", len(got))
	}
	p.TakeHalfAppend(nil) // drain the last chunk
	if got := p.TakeHalfAppend(out[:0]); len(got) != 0 {
		t.Fatalf("empty pool returned %d chunks, want dst unchanged", len(got))
	}
}

// TestPoolPutCompactsDeadPrefix: a full slice behind a dead prefix is
// compacted in place, not regrown with its dead slots, and keeps the order.
func TestPoolPutCompactsDeadPrefix(t *testing.T) {
	chunks := []Chunk{{mk(0)}, {mk(1)}, {mk(2)}, {mk(3)}}
	backing := make([]Chunk, len(chunks))
	var p Pool
	put := func() {
		copy(backing, chunks)
		backing[0] = nil // taken: one dead slot in a full slice
		p.chunks, p.head = backing, 1
		p.Put(backing[3])
	}
	if n := testing.AllocsPerRun(10, put); n != 0 {
		t.Errorf("Put behind a dead prefix allocated %v times, want 0", n)
	}
	if cap(p.chunks) != len(backing) || &p.chunks[:1][0] != &backing[0] {
		t.Errorf("cap = %d, want the slice of %d kept", cap(p.chunks), len(backing))
	}
	for _, want := range []int32{1, 2, 3, 3} {
		if got, _ := p.TakeOldest(); got[0].Height != want {
			t.Fatalf("oldest chunk is %d, want %d", got[0].Height, want)
		}
	}
}
