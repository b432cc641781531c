package pgas

import (
	"sync"
	"testing"
	"time"
)

func TestNewDomain(t *testing.T) {
	d, err := NewDomain(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Threads() != 4 {
		t.Errorf("Threads = %d", d.Threads())
	}
	if d.Model().Name != "sharedmem" {
		t.Errorf("nil model should default to sharedmem, got %s", d.Model().Name)
	}
	if _, err := NewDomain(0, nil); err == nil {
		t.Error("zero-thread domain should fail")
	}
	if _, err := NewDomain(-3, nil); err == nil {
		t.Error("negative-thread domain should fail")
	}
}

func TestBulkCost(t *testing.T) {
	m := Model{RemoteRef: time.Microsecond, PerKB: time.Microsecond}
	if got := m.BulkCost(0); got != time.Microsecond {
		t.Errorf("BulkCost(0) = %v", got)
	}
	if got := m.BulkCost(2048); got != 3*time.Microsecond {
		t.Errorf("BulkCost(2KiB) = %v, want 3µs", got)
	}
	if got := m.BulkCost(512); got != time.Microsecond+500*time.Nanosecond {
		t.Errorf("BulkCost(512B) = %v", got)
	}
}

func TestChargeZeroIsFree(t *testing.T) {
	start := time.Now()
	for i := 0; i < 1000; i++ {
		Charge(0)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Errorf("1000 zero charges took %v", el)
	}
}

func TestChargeDelays(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	start := time.Now()
	Charge(2 * time.Millisecond) // sleep path? no: 2ms >= 50µs → sleep path
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Errorf("Charge(2ms) returned after only %v", el)
	}
	start = time.Now()
	Charge(20 * time.Microsecond) // spin path
	if el := time.Since(start); el < 20*time.Microsecond {
		t.Errorf("Charge(20µs) returned after only %v", el)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	d, _ := NewDomain(8, &SharedMemory)
	l := d.NewLock(0)
	var counter int
	var wg sync.WaitGroup
	for me := 0; me < 8; me++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Acquire(me)
				counter++
				l.Release(me)
			}
		}(me)
	}
	wg.Wait()
	if counter != 8*200 {
		t.Errorf("counter = %d, want %d (lock not mutually exclusive)", counter, 8*200)
	}
}

func TestLockRemoteCostCharged(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	m := Model{Name: "t", LockRTT: 200 * time.Microsecond}
	d, _ := NewDomain(2, &m)
	l := d.NewLock(0)
	start := time.Now()
	l.Acquire(1) // remote acquirer pays LockRTT
	l.Release(1)
	if el := time.Since(start); el < 400*time.Microsecond {
		t.Errorf("remote acquire+release took %v, want >= 400µs", el)
	}
	start = time.Now()
	l.Acquire(0) // owner pays ~nothing
	l.Release(0)
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Errorf("owner acquire took %v", el)
	}
}

func TestProfilesComplete(t *testing.T) {
	for name, m := range Profiles {
		if m.Name != name {
			t.Errorf("profile %q has Name %q", name, m.Name)
		}
		if m.NodeCost <= 0 {
			t.Errorf("profile %q has no NodeCost", name)
		}
		if m.String() == "" {
			t.Errorf("profile %q: empty String", name)
		}
	}
	// Cost-structure sanity: clusters must be costlier than shared memory,
	// and remote locks an order of magnitude above remote references.
	for _, m := range []*Model{&KittyHawk, &Topsail} {
		if m.RemoteRef <= Altix.RemoteRef {
			t.Errorf("%s RemoteRef should exceed Altix", m.Name)
		}
		if m.LockRTT < 5*m.RemoteRef {
			t.Errorf("%s LockRTT %v should be ~10x RemoteRef %v", m.Name, m.LockRTT, m.RemoteRef)
		}
	}
}

func TestChargeRefAffinity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	m := Model{Name: "t", LocalRef: 0, RemoteRef: 300 * time.Microsecond}
	d, _ := NewDomain(2, &m)
	start := time.Now()
	d.ChargeRef(0, 0)
	local := time.Since(start)
	start = time.Now()
	d.ChargeRef(0, 1)
	remote := time.Since(start)
	if remote < 300*time.Microsecond {
		t.Errorf("remote ref took %v, want >= 300µs", remote)
	}
	if local > remote {
		t.Errorf("local ref (%v) costlier than remote (%v)", local, remote)
	}
}

func TestTopology(t *testing.T) {
	d, _ := NewDomain(12, &Topsail)
	if d.NodeSize() != 0 {
		t.Error("flat domain should have node size 0")
	}
	if d.SameNode(1, 2) {
		t.Error("flat domain: distinct threads share no node")
	}
	if !d.SameNode(3, 3) {
		t.Error("a thread is always on its own node")
	}
	d.SetTopology(4, &Altix)
	if d.NodeSize() != 4 {
		t.Errorf("NodeSize = %d", d.NodeSize())
	}
	if !d.SameNode(0, 3) || d.SameNode(3, 4) || !d.SameNode(8, 11) {
		t.Error("node grouping wrong")
	}
	// Resetting topology.
	d.SetTopology(1, &Altix)
	if d.NodeSize() != 0 {
		t.Error("nodeSize 1 should flatten the domain")
	}
	d.SetTopology(4, nil)
	if d.NodeSize() != 0 {
		t.Error("nil intra model should flatten the domain")
	}
}

func TestTopologyChargesIntraModel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent")
	}
	inter := Model{Name: "inter", RemoteRef: 2 * time.Millisecond}
	intra := Model{Name: "intra", RemoteRef: 0}
	d, _ := NewDomain(8, &inter)
	d.SetTopology(4, &intra)
	start := time.Now()
	d.ChargeRef(0, 1) // same node: intra, free
	if el := time.Since(start); el > time.Millisecond {
		t.Errorf("intra-node ref took %v", el)
	}
	start = time.Now()
	d.ChargeRef(0, 5) // different node: inter
	if el := time.Since(start); el < 2*time.Millisecond {
		t.Errorf("inter-node ref took only %v", el)
	}
}

// TestMinRemoteHop covers every built-in profile plus the fallback and
// zero cases: the minimum hop is a conservative lookahead, so a profile
// must report zero exactly when it admits instantaneous remote effects (the
// SharedMemory profile).
func TestMinRemoteHop(t *testing.T) {
	for name, m := range Profiles {
		hop := m.MinRemoteHop()
		if name == "sharedmem" {
			if hop != 0 {
				t.Errorf("%s: MinRemoteHop = %v, want 0 (zero-latency profile)", name, hop)
			}
			continue
		}
		if hop != m.RemoteRef {
			t.Errorf("%s: MinRemoteHop = %v, want RemoteRef %v", name, hop, m.RemoteRef)
		}
		if hop <= 0 {
			t.Errorf("%s: cluster profile reports no positive remote hop", name)
		}
		if m.LockRTT > 0 && hop > m.LockRTT {
			t.Errorf("%s: MinRemoteHop %v exceeds LockRTT %v", name, hop, m.LockRTT)
		}
		if bulk := m.BulkCost(1); hop > bulk {
			t.Errorf("%s: MinRemoteHop %v exceeds minimal bulk transfer %v", name, hop, bulk)
		}
	}
	lockOnly := Model{LockRTT: 3 * time.Microsecond}
	if got := lockOnly.MinRemoteHop(); got != 3*time.Microsecond {
		t.Errorf("lock-only model: MinRemoteHop = %v, want LockRTT", got)
	}
	var zero Model
	if got := zero.MinRemoteHop(); got != 0 {
		t.Errorf("zero model: MinRemoteHop = %v, want 0", got)
	}
}
