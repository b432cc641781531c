package des

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/uts"
)

// TestNegativePollAndNodeSizeRejected: des.run mirrors core's option
// validation, so the same bad input is an error on both substrates
// instead of a silently odd simulation.
func TestNegativePollAndNodeSizeRejected(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Algorithm: core.MPIWS, PEs: 4, PollInterval: -1}, "negative poll interval -1"},
		{Config{Algorithm: core.UPCDistMemHier, PEs: 4, NodeSize: -2}, "negative node size -2"},
	} {
		_, err := Run(&uts.BenchTiny, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got error %v, want one containing %q", tc.cfg, err, tc.want)
		}
		copt := core.Options{Algorithm: tc.cfg.Algorithm, Threads: 2, PollInterval: tc.cfg.PollInterval, NodeSize: tc.cfg.NodeSize}
		if _, cerr := core.Run(&uts.BenchTiny, copt); cerr == nil {
			t.Errorf("core accepts what des rejects: %+v", copt)
		}
	}
}

// TestAllocationsPerRun is core's test of the same name on the virtual
// clock: a simulated PE releases through the same shell, so a run at k = 1
// allocates for its set-up, its events' growth and a buffer per pooled
// chunk, not once a release (nodes/2 ≈ 31,800 on this tree).
func TestAllocationsPerRun(t *testing.T) {
	const bound = 6000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(&uts.BenchSmall, Config{Algorithm: core.UPCDistMem, PEs: 8, Chunk: 1, Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var releases int64
	for i := range res.Threads {
		releases += res.Threads[i].Releases
	}
	if releases < 5*bound {
		t.Fatalf("only %d releases: the run no longer releases at every other node", releases)
	}
	if n := after.Mallocs - before.Mallocs; n > bound {
		t.Errorf("%d allocations in a run of %d releases, want at most %d", n, releases, bound)
	} else {
		t.Logf("%d allocations, %d releases, %d nodes", n, releases, res.Nodes())
	}
}
