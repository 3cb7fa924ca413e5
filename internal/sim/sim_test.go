package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

func simGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er":   graph.ErdosRenyi(200, 900, 11),
		"cl":   graph.ChungLu(300, 1500, 2.3, 12),
		"rmat": graph.RMAT(8, 1200, 0.57, 0.19, 0.19, 13),
		"grid": graph.Grid(8, 8),
	}
}

func simPatterns() []*pattern.Pattern {
	return []*pattern.Pattern{
		pattern.Triangle(),
		pattern.FourCycle(),
		pattern.Diamond(),
		pattern.TailedTriangle(),
		pattern.KClique(4),
	}
}

// TestSimulatorCountsMatchEngine enforces the central invariant: the
// accelerator model and the CPU engine find exactly the same matches, for
// every c-map configuration.
func TestSimulatorCountsMatchEngine(t *testing.T) {
	for gname, g := range simGraphs() {
		for _, p := range simPatterns() {
			pl, err := plan.Compile(p, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Mine(g, pl, core.Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []Config{
				DefaultConfig().WithPEs(4).WithCMapBytes(0),
				DefaultConfig().WithPEs(4),
				DefaultConfig().WithPEs(4).WithCMapBytes(1 << 10),
				DefaultConfig().WithPEs(4).WithCMapBytes(64), // constant overflow
				DefaultConfig().WithPEs(4).WithUnlimitedCMap(),
			} {
				got, err := Simulate(g, pl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count() != want.Count() {
					t.Errorf("%s on %s (cmap=%d,unl=%v): sim=%d engine=%d",
						p.Name(), gname, cfg.CMapBytes, cfg.CMapUnlimited, got.Count(), want.Count())
				}
			}
		}
	}
}

// randomConnectedPattern draws a connected k-vertex pattern: a random
// spanning tree plus each remaining edge with probability 1/3.
func randomConnectedPattern(r *rand.Rand, k int) *pattern.Pattern {
	p := pattern.New(k)
	for v := 1; v < k; v++ {
		p.AddEdge(v, r.Intn(v))
	}
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if !p.HasEdge(u, v) && r.Intn(3) == 0 {
				p.AddEdge(u, v)
			}
		}
	}
	return p
}

// TestRandomPatternsCMapAgree checks the compiler's c-map hints (InsertCMap,
// CMapBound, CMapQuery) beyond the fixed catalog: on random connected
// 3–5-vertex patterns, the accelerator's c-map paths — a small banked map,
// one that overflows constantly, and the unlimited map — must count exactly
// what the CPU engine counts with set operations alone.
func TestRandomPatternsCMapAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomConnectedPattern(r, 3+r.Intn(3))
		g := graph.ChungLu(60, 250, 2.5, uint64(seed)+1)
		pl, err := plan.Compile(p, plan.Options{})
		if err != nil {
			t.Logf("seed=%d pattern=%s: compile: %v", seed, p, err)
			return false
		}
		want, err := core.Mine(g, pl, core.Options{Threads: 2})
		if err != nil {
			t.Logf("seed=%d pattern=%s: mine: %v", seed, p, err)
			return false
		}
		for _, cfg := range []Config{
			DefaultConfig().WithPEs(4).WithCMapBytes(1 << 10),
			DefaultConfig().WithPEs(4).WithCMapBytes(64), // constant overflow
			DefaultConfig().WithPEs(4).WithUnlimitedCMap(),
		} {
			got, err := Simulate(g, pl, cfg)
			if err != nil || got.Count() != want.Count() {
				t.Logf("seed=%d pattern=%s (cmap=%d,unl=%v): sim=%d engine=%d err=%v\n%s",
					seed, p, cfg.CMapBytes, cfg.CMapUnlimited, got.Count(), want.Count(), err, pl)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorDAGCliques checks the oriented k-clique path in the simulator.
func TestSimulatorDAGCliques(t *testing.T) {
	for gname, g := range simGraphs() {
		for k := 3; k <= 5; k++ {
			pl, err := plan.CompileCliqueDAG(k)
			if err != nil {
				t.Fatal(err)
			}
			dag := g.Orient()
			want, err := core.Mine(dag, pl, core.Options{Threads: 4})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Simulate(dag, pl, DefaultConfig().WithPEs(8))
			if err != nil {
				t.Fatal(err)
			}
			if got.Count() != want.Count() {
				t.Errorf("%d-CL on %s: sim=%d engine=%d", k, gname, got.Count(), want.Count())
			}
		}
	}
}

// TestSimulatorMotifs checks the multi-pattern tree in the simulator.
func TestSimulatorMotifs(t *testing.T) {
	g := simGraphs()["cl"]
	pl, err := plan.CompileMotifs(3, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mine(g, pl, core.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(g, pl, DefaultConfig().WithPEs(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Errorf("3-MC %s: sim=%d engine=%d", pl.Patterns[i].Name(), got.Counts[i], want.Counts[i])
		}
	}
}

// TestSimulatorDeterminism: identical runs must produce identical cycles and
// stats.
func TestSimulatorDeterminism(t *testing.T) {
	g := simGraphs()["cl"]
	pl, err := plan.Compile(pattern.FourCycle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig().WithPEs(16)
	a, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("nondeterministic stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestSimulatorPEScaling: more PEs must not slow the accelerator down, and
// parallel efficiency over a modest range should be substantial.
func TestSimulatorPEScaling(t *testing.T) {
	g := graph.ChungLu(800, 6000, 2.3, 21)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	var oneCycles int64
	for _, pes := range []int{1, 2, 4, 8} {
		r, err := Simulate(g, pl, DefaultConfig().WithPEs(pes))
		if err != nil {
			t.Fatal(err)
		}
		if pes == 1 {
			oneCycles = r.Stats.Cycles
		} else if r.Stats.Cycles > prev {
			t.Errorf("%d PEs slower than %d: %d > %d cycles", pes, pes/2, r.Stats.Cycles, prev)
		}
		prev = r.Stats.Cycles
	}
	speedup8 := float64(oneCycles) / float64(prev)
	if speedup8 < 3 {
		t.Errorf("8-PE speedup over 1-PE too low: %.2f", speedup8)
	}
}

// TestSimulatorCMapReducesWork: with a c-map, 4-cycle mining should issue
// fewer NoC requests and finish in fewer cycles than without (Fig 14/16).
func TestSimulatorCMapReducesWork(t *testing.T) {
	// The graph must exceed the 32 kB private cache or there is no repeated
	// edgelist traffic for the c-map to save (the paper's graphs are orders
	// of magnitude past that).
	g := graph.ChungLu(4000, 40000, 2.3, 22)
	pl, err := plan.Compile(pattern.FourCycle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	no, err := Simulate(g, pl, DefaultConfig().WithPEs(8).WithCMapBytes(0))
	if err != nil {
		t.Fatal(err)
	}
	with, err := Simulate(g, pl, DefaultConfig().WithPEs(8).WithCMapBytes(8<<10))
	if err != nil {
		t.Fatal(err)
	}
	if with.Count() != no.Count() {
		t.Fatalf("counts diverge: %d vs %d", with.Count(), no.Count())
	}
	if with.Stats.Cycles >= no.Stats.Cycles {
		t.Errorf("cmap did not speed up 4-cycle: %d >= %d cycles", with.Stats.Cycles, no.Stats.Cycles)
	}
	if with.Stats.NoCRequests >= no.Stats.NoCRequests {
		t.Errorf("cmap did not reduce NoC traffic: %d >= %d", with.Stats.NoCRequests, no.Stats.NoCRequests)
	}
	if with.Stats.CMap.Lookups == 0 {
		t.Error("cmap unused")
	}
	if rr := with.Stats.CMap.ReadRatio(); rr < 0.5 {
		t.Errorf("unexpectedly low cmap read ratio: %.2f", rr)
	}
}

// TestSimulatorUtilization sanity-checks the utilization accounting.
func TestSimulatorUtilization(t *testing.T) {
	g := simGraphs()["er"]
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(g, pl, DefaultConfig().WithPEs(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Utilization <= 0 || r.Stats.Utilization > 1 {
		t.Errorf("utilization out of range: %v", r.Stats.Utilization)
	}
	if r.Stats.Cycles <= 0 || r.Stats.Seconds <= 0 {
		t.Errorf("no time elapsed: %+v", r.Stats)
	}
	if r.Stats.Tasks != int64(g.NumVertices()) {
		t.Errorf("tasks=%d want %d", r.Stats.Tasks, g.NumVertices())
	}
}

func mustPlan(t *testing.T, name string) *plan.Plan {
	t.Helper()
	p, err := pattern.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Compile(p, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
