package stack

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/uts"
)

// rch builds a one-node chunk tagged with id (via Height) so tests can
// track which published chunk each consumer ended up with.
func rch(id int) Chunk {
	return Chunk{uts.Node{Height: int32(id)}}
}

func rid(c Chunk) int { return int(c[0].Height) }

func TestRelaxedPublishRetractLIFO(t *testing.T) {
	r := NewRelaxed(0)
	for i := 0; i < 3; i++ {
		if rec, ok := r.Publish(rch(i)); !ok || rec != nil {
			t.Fatalf("Publish(%d) = (%v, %v), want (nil, true)", i, rec, ok)
		}
	}
	if r.Live() != 3 {
		t.Fatalf("Live() = %d, want 3", r.Live())
	}
	for want := 2; want >= 0; want-- {
		c, ok := r.Retract()
		if !ok || rid(c) != want {
			t.Fatalf("Retract() = (%v, %v), want chunk %d", c, ok, want)
		}
	}
	if c, ok := r.Retract(); ok {
		t.Fatalf("Retract() on empty ring returned %v", c)
	}
	if r.Live() != 0 || r.Unconsumed() != 0 {
		t.Fatalf("Live=%d Unconsumed=%d after drain, want 0/0", r.Live(), r.Unconsumed())
	}
}

func TestRelaxedClaimOldest(t *testing.T) {
	r := NewRelaxed(0)
	for i := 0; i < 3; i++ {
		r.Publish(rch(i))
	}
	for want := 0; want < 3; want++ {
		c, dups, ok := r.Claim(7)
		if !ok || dups != 0 || rid(c) != want {
			t.Fatalf("Claim = (%v, %d, %v), want chunk %d", c, dups, ok, want)
		}
	}
	if _, dups, ok := r.Claim(7); ok || dups != 0 {
		t.Fatalf("Claim on empty ring succeeded")
	}
	// The owner has not observed the thief's consumption, so Live still
	// reports 3; Retract discovers the losses and returns empty-handed.
	if r.Live() != 3 {
		t.Fatalf("Live() = %d before lazy discovery, want 3", r.Live())
	}
	if c, ok := r.Retract(); ok {
		t.Fatalf("Retract() after thief drain returned %v", c)
	}
	if r.Live() != 0 || r.Unconsumed() != 0 {
		t.Fatalf("Live=%d Unconsumed=%d, want 0/0", r.Live(), r.Unconsumed())
	}
}

func TestRelaxedRingFull(t *testing.T) {
	r := NewRelaxed(0)
	for i := 0; i < RelaxedSlots; i++ {
		if _, ok := r.Publish(rch(i)); !ok {
			t.Fatalf("Publish(%d) reported full on a non-full ring", i)
		}
	}
	if !r.Full() {
		t.Fatal("Full() = false on a saturated ring")
	}
	if _, ok := r.Publish(rch(99)); ok {
		t.Fatal("Publish succeeded on a full ring")
	}
	// A thief claim replaces the oldest slot's word with a claim marker,
	// so the ring is no longer full and the next publish resolves the
	// consumed position and reuses it.
	c, _, ok := r.Claim(3)
	if !ok || rid(c) != 0 {
		t.Fatalf("Claim = (%v, %v), want chunk 0", c, ok)
	}
	if r.Full() {
		t.Fatal("Full() = true after a claim freed a slot")
	}
	if rec, ok := r.Publish(rch(100)); !ok || rec != nil {
		t.Fatalf("Publish after claim = (%v, %v), want (nil, true)", rec, ok)
	}
	// Drain: owner retracts everything that is left.
	got := map[int]bool{}
	for {
		c, ok := r.Retract()
		if !ok {
			break
		}
		got[rid(c)] = true
	}
	if len(got) != RelaxedSlots {
		t.Fatalf("drained %d chunks, want %d", len(got), RelaxedSlots)
	}
	if r.Unconsumed() != 0 {
		t.Fatalf("Unconsumed() = %d after drain, want 0", r.Unconsumed())
	}
}

// TestRelaxedForcedDuplicateTake drives the claim handshake halves
// directly to force the multiplicity window: two thieves take (read) the
// same chunk before either commits. Exactly one must win the ledger CAS;
// the other must report a duplicate take, and accounting must close.
func TestRelaxedForcedDuplicateTake(t *testing.T) {
	r := NewRelaxed(0)
	r.Publish(rch(42))

	t1 := r.takeSnapshot(0, 1)
	t2 := r.takeSnapshot(0, 1)
	if !t1.ok || !t2.ok {
		t.Fatalf("takeSnapshot ok = %v/%v, want true/true", t1.ok, t2.ok)
	}
	if rid(t1.c) != 42 || rid(t2.c) != 42 {
		t.Fatalf("both snapshots should carry chunk 42, got %d/%d", rid(t1.c), rid(t2.c))
	}

	c1, dup1 := r.commitTake(t1, 1)
	c2, dup2 := r.commitTake(t2, 2)
	if c1 == nil || dup1 {
		t.Fatalf("first commit = (%v, dup=%v), want win", c1, dup1)
	}
	if c2 != nil || !dup2 {
		t.Fatalf("second commit = (%v, dup=%v), want duplicate take", c2, dup2)
	}
	if r.Unconsumed() != 0 {
		t.Fatalf("Unconsumed() = %d, want 0 (ledger settled)", r.Unconsumed())
	}
	// A third, later claimer sees the consumed ledger word and does not
	// even count a take.
	t3 := r.takeSnapshot(0, 1)
	if t3.ok {
		t.Fatal("takeSnapshot after consumption should be a silent skip")
	}
}

// TestRelaxedStaleClaimClobber forces the worst interleaving the protocol
// tolerates: a thief's stale claim-marker store lands on a slot that has
// since been republished with a newer chunk, hiding that chunk from other
// thieves. The owner's shadow-driven arbitration must recover it — via
// Retract, and via Publish's slot-reuse resolution — with nothing lost
// and nothing double-consumed.
func TestRelaxedStaleClaimClobber(t *testing.T) {
	t.Run("RetractRecovers", func(t *testing.T) {
		r := NewRelaxed(0)
		r.Publish(rch(1)) // seq 1 at position 0

		stale := r.takeSnapshot(0, 1)
		if !stale.ok {
			t.Fatal("stale takeSnapshot failed")
		}
		// Another thief claims seq 1 outright.
		if c, _, ok := r.Claim(2); !ok || rid(c) != 1 {
			t.Fatalf("Claim = (%v, %v), want chunk 1", c, ok)
		}
		// Owner wraps the ring back to position 0 and publishes seq 65.
		for i := 2; i <= RelaxedSlots+1; i++ {
			if _, ok := r.Publish(rch(i)); !ok {
				t.Fatalf("Publish(%d) unexpectedly full", i)
			}
		}
		// The stale commit clobbers position 0's pub(65) word and loses
		// the ledger CAS for seq 1: a duplicate take.
		c, dup := r.commitTake(stale, 9)
		if c != nil || !dup {
			t.Fatalf("stale commit = (%v, dup=%v), want duplicate", c, dup)
		}
		// Chunk 65 is invisible to thieves now (its slot word is a claim
		// marker), but the owner's shadow still knows seq 65 lives at
		// position 0: Retract recovers it first (newest-first).
		got, ok := r.Retract()
		if !ok || rid(got) != RelaxedSlots+1 {
			t.Fatalf("Retract = (%v, %v), want clobbered chunk %d", got, ok, RelaxedSlots+1)
		}
	})

	t.Run("PublishRecovers", func(t *testing.T) {
		r := NewRelaxed(0)
		r.Publish(rch(1))
		stale := r.takeSnapshot(0, 1)
		if c, _, ok := r.Claim(2); !ok || rid(c) != 1 {
			t.Fatalf("Claim = (%v, %v), want chunk 1", c, ok)
		}
		for i := 2; i <= RelaxedSlots+1; i++ {
			r.Publish(rch(i)) // seq 65 = chunk 65 lands at position 0
		}
		if c, dup := r.commitTake(stale, 9); c != nil || !dup {
			t.Fatalf("stale commit = (%v, dup=%v), want duplicate", c, dup)
		}
		// Thieves drain seqs 2..64 (the clobbered seq 65 is invisible).
		for i := 2; i <= RelaxedSlots; i++ {
			if c, _, ok := r.Claim(3); !ok || rid(c) != i {
				t.Fatalf("Claim drain = (%v, %v), want chunk %d", c, ok, i)
			}
		}
		// Owner keeps publishing; when position 0 is reused, the seq-65
		// shadow mismatch triggers resolution and the clobbered chunk
		// comes back as recovered.
		var recovered Chunk
		for i := RelaxedSlots + 2; i <= 2*RelaxedSlots+1; i++ {
			rec, ok := r.Publish(rch(i))
			if !ok {
				t.Fatalf("Publish(%d) unexpectedly full", i)
			}
			if rec != nil {
				if recovered != nil {
					t.Fatalf("two recoveries: %d then %d", rid(recovered), rid(rec))
				}
				recovered = rec
			}
		}
		if recovered == nil || rid(recovered) != RelaxedSlots+1 {
			t.Fatalf("Publish recovery = %v, want chunk %d", recovered, RelaxedSlots+1)
		}
	})
}

// TestRelaxedPrune publishes and consumes enough chunks that the ledger's
// fully-consumed prefix segments are released, and checks that lookups of
// pruned sequence numbers degrade to "consumed" instead of crashing.
func TestRelaxedPrune(t *testing.T) {
	r := NewRelaxed(0)
	n := 4 * relaxedSegSize // publish/consume through 4 full segments
	for i := 0; i < n; i++ {
		if _, ok := r.Publish(rch(i)); !ok {
			t.Fatalf("Publish(%d) full", i)
		}
		if c, _, ok := r.Claim(5); !ok || rid(c) != i {
			t.Fatalf("Claim = (%v, %v), want chunk %d", c, ok, i)
		}
	}
	led := r.led.Load()
	if led == nil || led.base == 0 {
		t.Fatal("no ledger segments dropped after full consumption")
	}
	if len(led.segs) > 3 {
		t.Fatalf("live ledger window is %d segments, want <= 3 (O(1) memory)", len(led.segs))
	}
	if seg, _ := r.entry(1); seg != nil {
		t.Fatal("entry(1) should be pruned")
	}
	if tk := r.takeSnapshot(0, 1); tk.ok {
		t.Fatal("takeSnapshot of a pruned sequence should skip")
	}
	if r.Unconsumed() != 0 {
		t.Fatalf("Unconsumed() = %d, want 0", r.Unconsumed())
	}
}

// TestRelaxedConcurrentStress runs the real protocol under -race: one
// owner publishing (and retracting when full), several thieves claiming
// concurrently. Every published chunk must be consumed exactly once
// across all participants, and the ledger must close to zero.
func TestRelaxedConcurrentStress(t *testing.T) {
	const n = 4000
	const thieves = 4
	r := NewRelaxed(0)

	var stop sync.WaitGroup
	done := make(chan struct{})
	got := make([][]int, thieves+1) // index 0 = owner
	dupTotal := make([]int, thieves)

	stop.Add(thieves)
	for th := 0; th < thieves; th++ {
		go func(th int) {
			defer stop.Done()
			for {
				c, d, ok := r.Claim(th + 1)
				dupTotal[th] += d
				if ok {
					got[th+1] = append(got[th+1], rid(c))
					continue
				}
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		}(th)
	}

	for i := 0; i < n; i++ {
		for {
			rec, ok := r.Publish(rch(i))
			if rec != nil {
				got[0] = append(got[0], rid(rec))
			}
			if ok {
				break
			}
			// Ring full: reacquire one chunk like the real owner does.
			if c, ok2 := r.Retract(); ok2 {
				got[0] = append(got[0], rid(c))
			} else {
				runtime.Gosched()
			}
		}
	}
	// Owner drains whatever the thieves have not taken.
	for {
		c, ok := r.Retract()
		if !ok {
			break
		}
		got[0] = append(got[0], rid(c))
	}
	close(done)
	stop.Wait()

	seen := make(map[int]int, n)
	for who, ids := range got {
		for _, id := range ids {
			seen[id]++
			if seen[id] > 1 {
				t.Fatalf("chunk %d consumed twice (last by participant %d)", id, who)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("consumed %d distinct chunks, want %d", len(seen), n)
	}
	if r.Unconsumed() != 0 {
		t.Fatalf("Unconsumed() = %d after drain, want 0", r.Unconsumed())
	}
	if r.Published() < n {
		t.Fatalf("Published() = %d, want >= %d", r.Published(), n)
	}
}

// TestRelaxedAllocatesNothing: in steady state — the ring wrapped, the
// ledger pruned behind its live window — a release and reacquire cycle
// allocates nothing: the owner publishes three chunks, a thief claims the
// oldest and the owner retracts the rest. A ledger segment is one
// allocation per 2,048 publishes, under one a call.
func TestRelaxedAllocatesNothing(t *testing.T) {
	r := NewRelaxed(0)
	chunks := []Chunk{rch(0), rch(1), rch(2)}
	cycle := func() {
		for _, c := range chunks {
			if r.Full() {
				t.Fatal("the ring is full with every earlier chunk consumed")
			}
			if _, ok := r.Publish(c); !ok {
				t.Fatal("Publish refused")
			}
		}
		if c, dups, ok := r.Claim(7); !ok || dups != 0 || rid(c) != 0 {
			t.Fatalf("Claim = (%v, %d, %v), want chunk 0", c, dups, ok)
		}
		for want := 2; want >= 1; want-- {
			if c, ok := r.Retract(); !ok || rid(c) != want {
				t.Fatalf("Retract() = (%v, %v), want chunk %d", c, ok, want)
			}
		}
	}
	for i := 0; i < relaxedSegSize; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(2000, cycle); n != 0 {
		t.Errorf("a publish, claim and retract cycle allocates %v times", n)
	}
}
