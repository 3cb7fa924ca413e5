package core

// Kernel-policy coverage: mined counts must be bit-identical across every
// Kernel policy × thread count (the engine-side half of the
// "kernel selection never changes results" contract; the simulator-side half
// — cycle invariance — lives in the root package's TestSimCyclesKernelProof).
// Also asserts the per-kernel Stats attribution so speedups stay explainable.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

var allKernels = []KernelPolicy{KernelAuto, KernelMergeOnly, KernelGallop, KernelBitmap}

// TestKernelInvariance sweeps the full policy grid on Table-I stand-in
// shapes (power-law, so hubs and skewed intersections actually occur).
func TestKernelInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat10": graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 0x17),
		"cl1200": graph.ChungLu(1200, 9600, 2.3, 0x31),
	}
	plans := map[string]*plan.Plan{}
	for _, p := range []*pattern.Pattern{
		pattern.KClique(2).WithName("edge"), // leaf at depth 1: count-only + hub slicing
		pattern.Triangle(),
		pattern.Diamond(),
		pattern.FourCycle(), // frontier memoization path
	} {
		pl, err := plan.Compile(p, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plans[p.Name()] = pl
	}
	for gname, g := range graphs {
		for plname, pl := range plans {
			ref, err := Mine(g, pl, Options{Threads: 1, Kernel: KernelMergeOnly})
			if err != nil {
				t.Fatal(err)
			}
			for _, kernel := range allKernels {
				for _, threads := range []int{1, 4, 16} {
					res, err := Mine(g, pl, Options{Threads: threads, Kernel: kernel})
					if err != nil {
						t.Fatal(err)
					}
					for i := range ref.Counts {
						if res.Counts[i] != ref.Counts[i] {
							t.Errorf("%s/%s kernel=%v threads=%d: count[%d]=%d, want %d",
								gname, plname, kernel, threads, i, res.Counts[i], ref.Counts[i])
						}
					}
				}
			}
		}
	}
}

// TestKernelInvarianceDAG covers the oriented-DAG clique path (the paper's
// clique workloads), including vertex-induced motifs on the symmetric side.
func TestKernelInvarianceDAG(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 0x17).Orient()
	pl, err := plan.CompileCliqueDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Mine(g, pl, Options{Threads: 1, Kernel: KernelMergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range allKernels {
		for _, slice := range []int{SliceOff, 0, 8, 64} {
			res, err := Mine(g, pl, Options{Threads: 8, Kernel: kernel, SliceElems: slice})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count() != ref.Count() {
				t.Errorf("kernel=%v slice=%d: 4-CL=%d want %d", kernel, slice, res.Count(), ref.Count())
			}
		}
	}
}

// TestKernelInvarianceInduced exercises Disconnected sets (difference
// kernels) through vertex-induced motif plans. The DFS is pinned: the
// closed-form census would answer the plan without any set-op kernel.
func TestKernelInvarianceInduced(t *testing.T) {
	g := graph.ChungLu(400, 3200, 2.4, 9)
	pl, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Mine(g, pl, Options{Threads: 1, Kernel: KernelMergeOnly, Strategy: StrategyDFS})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range allKernels {
		res, err := Mine(g, pl, Options{Threads: 4, Kernel: kernel, Strategy: StrategyDFS})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Counts {
			if res.Counts[i] != ref.Counts[i] {
				t.Errorf("kernel=%v: motif[%d]=%d want %d", kernel, i, res.Counts[i], ref.Counts[i])
			}
		}
	}
}

// TestKernelStatsAttribution: the counters must attribute work to the kernel
// that did it — merge-only runs report no probes, and on a hubby power-law
// graph the auto policy must actually have used the fast kernels.
func TestKernelStatsAttribution(t *testing.T) {
	g := graph.ChungLu(1200, 14400, 2.2, 0x55) // dmax well above hubMinDegree
	pl, err := plan.Compile(pattern.KClique(4), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	merge, err := Mine(g, pl, Options{Threads: 2, Kernel: KernelMergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	if merge.Stats.GallopProbes != 0 || merge.Stats.BitmapProbes != 0 {
		t.Errorf("merge-only run reported probes: gallop=%d bitmap=%d",
			merge.Stats.GallopProbes, merge.Stats.BitmapProbes)
	}
	if merge.Stats.LeafCountsSkippedMaterialize == 0 {
		t.Error("count-only leaves never engaged")
	}
	auto, err := Mine(g, pl, Options{Threads: 2, Kernel: KernelAuto})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Stats.GallopProbes == 0 {
		t.Error("auto policy never galloped on a skewed power-law workload")
	}
	if auto.Stats.BitmapProbes == 0 {
		t.Error("auto policy never probed a hub bitmap")
	}
	if auto.Stats.SetOpIterations >= merge.Stats.SetOpIterations {
		t.Errorf("auto ran at least as many merge iterations (%d) as merge-only (%d)",
			auto.Stats.SetOpIterations, merge.Stats.SetOpIterations)
	}
	// Invariant plumbing: candidates and extensions are kernel-independent.
	if auto.Stats.Candidates != merge.Stats.Candidates || auto.Stats.Extensions != merge.Stats.Extensions {
		t.Errorf("search-shape stats drifted: auto cand/ext %d/%d, merge %d/%d",
			auto.Stats.Candidates, auto.Stats.Extensions, merge.Stats.Candidates, merge.Stats.Extensions)
	}
}

// TestListUnaffectedByKernel: the listing path (visitor set) must still
// materialize leaves and deliver every match under any kernel policy.
func TestListUnaffectedByKernel(t *testing.T) {
	g := graph.ChungLu(300, 2100, 2.3, 9)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Mine(g, pl, Options{Threads: 1, Kernel: KernelMergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	for _, kernel := range allKernels {
		var visits int64
		res, err := List(g, pl, Options{Threads: 1, Kernel: kernel}, func(emb []graph.VID, _ int) {
			visits++
			if !g.Connected(emb[0], emb[1]) || !g.Connected(emb[1], emb[2]) || !g.Connected(emb[0], emb[2]) {
				t.Fatalf("kernel=%v: non-triangle embedding %v", kernel, emb)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != ref.Count() || visits != ref.Count() {
			t.Errorf("kernel=%v: count=%d visits=%d want %d", kernel, res.Count(), visits, ref.Count())
		}
		if res.Stats.LeafCountsSkippedMaterialize != 0 {
			t.Errorf("kernel=%v: listing skipped materialization %d times",
				kernel, res.Stats.LeafCountsSkippedMaterialize)
		}
	}
}
