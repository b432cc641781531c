package des

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/uts"
)

// TuneChunk finds the best steal granularity for a configuration by
// simulating the candidate chunk sizes and returning the one with the
// highest exploration rate, along with each candidate's result.
//
// This automates the manual tuning the paper's Section 4.2.1 describes:
// the chunk-size sweet spot is a plateau whose position depends on the
// machine's message costs and that narrows with processor count, so a
// deployment at a new scale needs re-tuning. A simulated sweep under the
// machine's cost model answers in seconds what a testbed sweep answers in
// machine-hours. Candidates default to the Figure 4 axis {1,2,...,128}.
func TuneChunk(sp *uts.Spec, cfg Config, candidates []int) (best int, results map[int]*core.Result, err error) {
	if len(candidates) == 0 {
		candidates = []int{1, 2, 4, 8, 16, 32, 64, 128}
	}
	results = make(map[int]*core.Result, len(candidates))
	rates := make(map[int]float64, len(candidates))
	for _, k := range candidates {
		if k < 1 {
			return 0, nil, fmt.Errorf("des: chunk candidate %d out of range", k)
		}
		c := cfg
		c.Chunk = k
		res, runErr := Run(sp, c)
		if runErr != nil {
			return 0, nil, fmt.Errorf("des: tuning chunk %d: %w", k, runErr)
		}
		results[k] = res
		rates[k] = res.Rate()
	}
	best = bestCandidate(candidates, rates)
	return best, results, nil
}

// bestCandidate selects the candidate with the highest finite rate.
// Non-finite rates (NaN/±Inf from degenerate runs — a zero-duration
// makespan, a division artifact) never win: a NaN would poison every `>`
// comparison and silently keep whatever candidate preceded it. Ties break
// deterministically toward the smaller chunk, since on the paper's
// Figure-4 plateau the smaller granularity transfers less per steal for
// the same rate. Returns 0 if no candidate has a finite rate.
func bestCandidate(candidates []int, rates map[int]float64) int {
	best, bestRate := 0, math.Inf(-1)
	for _, k := range candidates {
		r, ok := rates[k]
		if !ok || math.IsNaN(r) || math.IsInf(r, 0) {
			continue
		}
		if best == 0 || r > bestRate || (r == bestRate && k < best) {
			bestRate, best = r, k
		}
	}
	return best
}
