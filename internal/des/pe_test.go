package des

import (
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
