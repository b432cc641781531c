package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/pgas"
	"repro/internal/stats"
	"repro/internal/uts"
)

// A4Hierarchical evaluates the paper's Section 6.2 future-work idea,
// implemented in this repository as upc-distmem-hier: on a cluster of
// multi-core nodes, first try to steal from threads on the same node
// (cheap references) before probing off-node. The machine is two-level:
// Topsail-like between nodes, Altix-like within a node.
func A4Hierarchical(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	nodeSize := pick(sc, 4, 8, 8)
	t := &Table{
		ID: "A4",
		Title: fmt.Sprintf("Extension (paper §6.2 future work): locality-aware stealing, %d PEs in nodes of %d, %s",
			pes, nodeSize, tree.Name),
		Columns: []string{"impl", "chunk", "Mnodes/s", "efficiency", "steals", "probes"},
		Notes: []string{
			"both variants run on the same two-level machine (topsail inter-node, altix intra-node);",
			"upc-distmem-hier probes same-node victims first, as bupc_thread_distance would allow",
		},
	}
	for _, alg := range []core.Algorithm{core.UPCDistMem, core.UPCDistMemHier} {
		for _, k := range pick(sc, []int{4}, []int{4, 16}, []int{4, 16, 64}) {
			res, err := des.Run(tree, des.Config{
				Algorithm: alg,
				PEs:       pes,
				Chunk:     k,
				Model:     &pgas.Topsail,
				NodeSize:  nodeSize,
				Intra:     &pgas.Altix,
			})
			if err != nil {
				return nil, err
			}
			t.AddRow(string(alg), k,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()),
				res.Sum(func(th *stats.Thread) int64 { return th.Steals }),
				res.Sum(func(th *stats.Thread) int64 { return th.Probes }))
		}
	}
	return t, nil
}

// D1Diffusion measures the rapid-diffusion mechanism of Section 3.3.2
// directly: how fast the number of "work sources" (threads with stealable
// surplus) grows from one at the start of the search, under steal-one
// (upc-term) versus steal-half (upc-term-rapdif) policies.
func D1Diffusion(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	pes := pick(sc, 8, 64, 256)
	t := &Table{
		ID:      "D1",
		Title:   fmt.Sprintf("Diffusion of work sources over time, %d PEs, %s, kittyhawk profile", pes, tree.Name),
		Columns: []string{"policy", "t(sources≥P/4)", "t(sources≥P/2)", "peak sources", "makespan"},
		Notes: []string{
			"Section 3.3.2: steal-half 'rapidly increases the number of work sources', cutting",
			"the probes needed to find a victim; steal-one leaves few sources for a long time",
		},
	}
	for _, alg := range []core.Algorithm{core.UPCTerm, core.UPCTermRapdif, core.UPCDistMem} {
		label := map[core.Algorithm]string{
			core.UPCTerm:       "steal-one (upc-term)",
			core.UPCTermRapdif: "steal-half (upc-term-rapdif)",
			core.UPCDistMem:    "steal-half lockless (upc-distmem)",
		}[alg]
		res, trace, err := des.RunTraced(tree, des.Config{
			Algorithm: alg, PEs: pes, Chunk: 8, Model: &pgas.KittyHawk,
		})
		if err != nil {
			return nil, err
		}
		peak := 0
		for _, s := range trace.Changes {
			peak = max(peak, s.WorkSources)
		}
		fmtT := func(d time.Duration) string {
			if d < 0 {
				return "never"
			}
			return d.Round(time.Microsecond).String()
		}
		t.AddRow(label,
			fmtT(trace.TimeToSources(pes/4)),
			fmtT(trace.TimeToSources(pes/2)),
			peak,
			res.Elapsed.Round(time.Microsecond).String())
	}
	return t, nil
}

// E0StaticBaseline quantifies the paper's opening premise (Section 1/2):
// the UTS state space "can not be statically partitioned across
// processors", so dynamic load balancing is required. Static round-robin
// partitioning of the root's subtrees is compared against upc-distmem.
func E0StaticBaseline(sc Scale) (*Table, error) {
	tree := pick(sc, &uts.BenchTiny, &uts.BenchMedium, &uts.BenchLarge)
	peCounts := pick(sc, []int{4}, []int{16, 64}, []int{16, 64, 256})
	t := &Table{
		ID:      "E0",
		Title:   fmt.Sprintf("Why dynamic balancing: static partitioning vs work stealing, %s", tree.Name),
		Columns: []string{"strategy", "PEs", "Mnodes/s", "speedup", "efficiency", "imbalance(max/mean)"},
		Notes: []string{
			"over 99.9% of a critical binomial tree hangs under a few root children, so static",
			"partitioning degenerates to sequential execution regardless of processor count",
		},
	}
	for _, alg := range []core.Algorithm{core.Static, core.UPCDistMem} {
		for _, p := range peCounts {
			res, err := des.Run(tree, des.Config{Algorithm: alg, PEs: p, Chunk: 16, Model: &pgas.KittyHawk})
			if err != nil {
				return nil, err
			}
			t.AddRow(string(alg), p,
				fmt.Sprintf("%.2f", res.Rate()/1e6),
				fmt.Sprintf("%.1f", res.Speedup()),
				fmt.Sprintf("%.1f%%", 100*res.Efficiency()),
				fmt.Sprintf("%.1f", res.Imbalance()))
		}
	}
	return t, nil
}

// W1TreeShape validates the workload substitution of DESIGN.md §2: as the
// binomial extinction margin ε shrinks toward the paper's 10⁻⁸, the share
// of the tree hanging under the single largest root subtree approaches the
// paper's "over 99.9% of the work is contained in just one of the 2000
// subtrees" (Section 4.1). The bench trees keep the same heavy-tailed
// character at laptop-scale ε.
func W1TreeShape(sc Scale) (*Table, error) {
	t := &Table{
		ID:      "W1",
		Title:   "Workload validation: dominance of the largest root subtree vs extinction margin ε",
		Columns: []string{"tree", "ε", "root-children", "nodes", "top-1 share", "top-10 share"},
		Notes: []string{
			"paper (ε=1e-8, 10.6B nodes): one subtree holds >99.9% of the work;",
			"dominance grows monotonically as ε shrinks, so laptop-scale trees preserve the regime",
		},
	}
	specs := pick(sc,
		[]*uts.Spec{&uts.BenchTiny},
		[]*uts.Spec{&uts.BenchTiny, &uts.BenchSmall, &uts.BenchMedium},
		[]*uts.Spec{&uts.BenchTiny, &uts.BenchSmall, &uts.BenchMedium, &uts.BenchLarge},
	)
	for _, sp := range specs {
		shares, total := uts.RootShares(sp)
		var top1, top10 int64
		for i, s := range shares {
			if i == 0 {
				top1 = s
			}
			if i < 10 {
				top10 += s
			}
		}
		eps := 1 - float64(sp.M)*sp.Q
		t.AddRow(sp.Name,
			fmt.Sprintf("%.0e", eps),
			len(shares),
			total,
			fmt.Sprintf("%.1f%%", 100*float64(top1)/float64(total)),
			fmt.Sprintf("%.1f%%", 100*float64(top10)/float64(total)))
	}
	return t, nil
}
