package core

import (
	"context"
	"errors"
	"math"
	"math/big"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// TestCensusCheckedArithmetic pins the overflow helpers around d = 2²¹,
// where the naive product d(d−1)(d−2) reaches int64's limit (it first wraps
// at 2²¹+2): binom3 must stay exact there, and must flag the first
// binomials that truly overflow.
func TestCensusCheckedArithmetic(t *testing.T) {
	exact := func(n int64, k int64) *big.Int { return new(big.Int).Binomial(n, k) }
	d := int64(1) << 21 // a variable: the naive product below must wrap at run time
	if naive := (d + 2) * (d + 1) * d; naive >= 0 {
		t.Fatalf("naive (2^21+2)(2^21+1)2^21 = %d did not wrap; the fixture no longer exercises overflow", naive)
	}
	var ck checked
	for _, n := range []int64{d, d + 1, d + 2, d + 3} {
		if got := ck.binom3(n); ck.overflow || got != exact(n, 3).Int64() {
			t.Errorf("binom3(%d) = %d (overflow %v), want %s", n, got, ck.overflow, exact(n, 3))
		}
		if got := ck.binom2(n); ck.overflow || got != exact(n, 2).Int64() {
			t.Errorf("binom2(%d) = %d, want %s", n, got, exact(n, 2))
		}
	}
	for _, n := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 1000, 1<<20 + 7} {
		if got := ck.binom3(n); got != exact(n, 3).Int64() {
			t.Errorf("binom3(%d) = %d, want %s", n, got, exact(n, 3))
		}
		if got := ck.binom2(n); got != exact(n, 2).Int64() {
			t.Errorf("binom2(%d) = %d, want %s", n, got, exact(n, 2))
		}
	}
	if ck.overflow {
		t.Fatal("in-range binomials latched overflow")
	}

	// C(2^22, 3) ≈ 1.2e19 > MaxInt64.
	if ck.binom3(d << 1); !ck.overflow {
		t.Error("binom3(2^22) did not report overflow")
	}
	ck = checked{}
	if ck.binom2(1 << 33); !ck.overflow {
		t.Error("binom2(2^33) did not report overflow")
	}
	ck = checked{}
	if ck.mul(1<<32, 1<<31); !ck.overflow {
		t.Error("2^32 · 2^31 did not report overflow")
	}
	ck = checked{}
	if got := ck.mul(1<<31, 1<<31); ck.overflow || got != 1<<62 {
		t.Errorf("2^31 · 2^31 = %d (overflow %v)", got, ck.overflow)
	}
	if ck.add(math.MaxInt64, 1); !ck.overflow {
		t.Error("MaxInt64 + 1 did not report overflow")
	}
	ck = checked{}
	if got := ck.add(math.MaxInt64-1, 1); ck.overflow || got != math.MaxInt64 {
		t.Errorf("MaxInt64-1 + 1 = %d (overflow %v)", got, ck.overflow)
	}
}

// TestCensusFormMatchesKnownMatrix checks the induced ↔ non-induced matrix
// derived from the pattern package against the published 4-motif identities
// (I_D = N_D − 6I_K, I_C = N_C − I_D − 3I_K, I_T = N_T − 4I_D − 12I_K,
// I_P = N_P − 2I_T − 4I_C − 6I_D − 12I_K, I_S = N_S − I_T − 2I_D − 4I_K) and
// the 3-motif one (wedge = N_wedge − 3·triangle).
func TestCensusFormMatchesKnownMatrix(t *testing.T) {
	type row struct {
		of   *pattern.Pattern
		in   *pattern.Pattern
		want int64
	}
	star, path, tailed := pattern.KStar(4), pattern.KPath(4), pattern.TailedTriangle()
	cycle, diamond, clique := pattern.FourCycle(), pattern.Diamond(), pattern.KClique(4)
	want := map[int][]row{
		3: {{pattern.Wedge(), pattern.Triangle(), 3}},
		4: {
			{diamond, clique, 6},
			{cycle, diamond, 1}, {cycle, clique, 3},
			{tailed, diamond, 4}, {tailed, clique, 12},
			{path, tailed, 2}, {path, cycle, 4}, {path, diamond, 6}, {path, clique, 12},
			{star, tailed, 1}, {star, diamond, 2}, {star, clique, 4},
		},
	}
	for k, rows := range want {
		f := censusForms()[k]
		got := map[[2]int]int64{}
		for i := range f.sub {
			for j, c := range f.sub[i] {
				if i != j && c != 0 {
					got[[2]int{i, j}] = c
				}
			}
			if f.sub[i][i] != 1 {
				t.Errorf("k=%d: diagonal entry %d = %d, want 1", k, i, f.sub[i][i])
			}
		}
		for _, r := range rows {
			key := [2]int{f.slot[r.of.CanonicalCode()], f.slot[r.in.CanonicalCode()]}
			if got[key] != r.want {
				t.Errorf("k=%d: copies of %s in %s = %d, want %d", k, r.of.Name(), r.in.Name(), got[key], r.want)
			}
			delete(got, key)
		}
		if len(got) != 0 {
			t.Errorf("k=%d: unexpected off-diagonal entries %v", k, got)
		}
	}
}

// censusGraphs are inputs with hubs, cliques, bipartite and sparse shapes —
// large enough to exercise the degree order, small enough for the DFS.
func censusGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat":    graph.RMAT(9, 3000, 0.57, 0.19, 0.19, 5),
		"chunglu": graph.ChungLu(400, 3200, 2.2, 9),
		"er":      graph.ErdosRenyi(200, 1500, 3),
		"k12":     graph.Clique(12),
		"bip":     graph.Bipartite(30, 40, 500, 4),
		"grid":    graph.Grid(9, 7),
		"empty":   graph.MustFromEdges(5, nil),
	}
}

// TestCensusMatchesDFS: the solver must reproduce the DFS counts exactly and
// report its own work shape — one task per vertex, scanned elements as
// SetOpIterations, no extensions or candidates — identically at any thread
// count.
func TestCensusMatchesDFS(t *testing.T) {
	for gname, g := range censusGraphs() {
		for k := 3; k <= 4; k++ {
			pl, err := plan.CompileMotifs(k, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dfs, err := Mine(g, pl, Options{Threads: 2, Strategy: StrategyDFS})
			if err != nil {
				t.Fatal(err)
			}
			var first Stats
			for i, threads := range []int{1, 3, 8} {
				got, err := Mine(g, pl, Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Counts, dfs.Counts) {
					t.Fatalf("%s %d-MC threads=%d: census %v, dfs %v", gname, k, threads, got.Counts, dfs.Counts)
				}
				st := got.Stats
				if st.Tasks != int64(g.NumVertices()) || st.Extensions != 0 || st.Candidates != 0 {
					t.Errorf("%s %d-MC: stats %+v, want %d tasks and no extensions/candidates", gname, k, st, g.NumVertices())
				}
				if g.NumArcs() > 0 && st.SetOpIterations == 0 {
					t.Errorf("%s %d-MC: no set-op iterations reported", gname, k)
				}
				if i == 0 {
					first = st
				} else if st != first {
					t.Errorf("%s %d-MC threads=%d: stats %+v differ from 1 thread %+v", gname, k, threads, st, first)
				}
			}
		}
	}
}

// TestCensusEligibility: only complete vertex-induced 3/4-motif sets under
// StrategyAuto reach the solver; listing, StrategyDFS, partial sets and
// edge-induced motif sets stay on the DFS, and every route agrees.
func TestCensusEligibility(t *testing.T) {
	g := graph.ChungLu(300, 2000, 2.3, 4)
	shuffled := pattern.Motifs(4)
	shuffled[0], shuffled[3], shuffled[5] = shuffled[5], shuffled[0], shuffled[3]
	compile := func(ps []*pattern.Pattern, o plan.Options) *plan.Plan {
		t.Helper()
		pl, err := plan.CompileMulti(ps, o)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	cases := []struct {
		name   string
		pl     *plan.Plan
		o      Options
		census bool
	}{
		{"3-MC", compile(pattern.Motifs(3), plan.Options{Induced: true}), Options{}, true},
		{"4-MC shuffled", compile(shuffled, plan.Options{Induced: true}), Options{}, true},
		{"4-MC no symmetry", compile(pattern.Motifs(4), plan.Options{Induced: true, NoSymmetry: true}), Options{}, true},
		{"4-MC dfs", compile(pattern.Motifs(4), plan.Options{Induced: true}), Options{Strategy: StrategyDFS}, false},
		{"4-MC partial", compile(pattern.Motifs(4)[:5], plan.Options{Induced: true}), Options{}, false},
		{"4-motifs edge-induced", compile(pattern.Motifs(4), plan.Options{}), Options{}, false},
	}
	for _, c := range cases {
		c.o.Threads = 2
		eng, err := NewEngine(g, c.pl, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if (eng.census != nil) != c.census {
			t.Errorf("%s: census solver selected = %v, want %v", c.name, eng.census != nil, c.census)
		}
		got := eng.Mine()
		if c.census && got.Stats.Extensions != 0 {
			t.Errorf("%s: solver run reported %d extensions", c.name, got.Stats.Extensions)
		}
		dfs := c.o
		dfs.Strategy = StrategyDFS
		want, err := Mine(g, c.pl, dfs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%s: counts %v, dfs %v", c.name, got.Counts, want.Counts)
		}
		if c.pl.CountDivisor[0] != 1 {
			continue // listing needs a symmetry-broken plan
		}
		// Listing needs embeddings, so it always enumerates.
		listed, err := List(g, c.pl, c.o, func([]graph.VID, int) {})
		if err != nil {
			t.Fatal(err)
		}
		if listed.Stats.Extensions == 0 || !reflect.DeepEqual(listed.Counts, want.Counts) {
			t.Errorf("%s: listing counts %v (extensions %d), want %v by DFS", c.name, listed.Counts, listed.Stats.Extensions, want.Counts)
		}
	}
}

// TestCensusProgressAndCancellation: solver runs keep the progress contract
// — TaskCount tasks, one OnTask and one trace event per task, one
// OnTaskDone carrying the raw total — and a cancelled run returns the
// context error and no counts.
func TestCensusProgressAndCancellation(t *testing.T) {
	g := graph.RMAT(9, 3000, 0.57, 0.19, 0.19, 8)
	pl, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var onTask, onDone, matches atomic.Int64
	tr := obs.NewTracer(obs.NewVirtualClock(), 1<<13)
	eng, err := NewEngine(g, pl, Options{
		Threads:    3,
		SchedHooks: sched.Hooks{OnTask: func(int, sched.Task) { onTask.Add(1) }},
		OnTaskDone: func(_ int, m int64) { onDone.Add(1); matches.Add(m) },
		Trace:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.MineContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.Counts {
		total += c
	}
	if n := int64(eng.TaskCount()); n != int64(g.NumVertices()) || onTask.Load() != n || res.Stats.Tasks != n {
		t.Errorf("TaskCount %d, OnTask fired %d, Stats.Tasks %d; want %d each", n, onTask.Load(), res.Stats.Tasks, g.NumVertices())
	}
	if onDone.Load() != 1 || matches.Load() != total {
		t.Errorf("OnTaskDone fired %d times with %d matches; want once with %d", onDone.Load(), matches.Load(), total)
	}
	var traced int64
	for _, ev := range tr.Events() {
		if ev.Name == "task" {
			traced++
		}
	}
	if traced != res.Stats.Tasks {
		t.Errorf("tracer recorded %d task events for %d tasks", traced, res.Stats.Tasks)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := eng.MineContext(ctx)
	if !errors.Is(err, context.Canceled) || got.Counts != nil {
		t.Fatalf("cancelled census: err %v, counts %v; want context.Canceled and no counts", err, got.Counts)
	}
}

// TestCensusOverflowReportsError drives the combine with terms whose induced
// conversion leaves int64 (4·I_K in the star row) and with an overflow
// latched during accumulation: both must fail with ErrCountOverflow and
// carry no counts.
func TestCensusOverflowReportsError(t *testing.T) {
	cp := &censusPlan{k: 4, motif: []int{0, 1, 2, 3, 4, 5}}
	div := []int64{1, 1, 1, 1, 1, 1}
	big := censusSums{triples: math.MaxInt64, paths: math.MaxInt64, cliques: math.MaxInt64 / 3}
	if counts, _, err := cp.counts(&big, div); !errors.Is(err, ErrCountOverflow) || counts != nil {
		t.Errorf("induced conversion overflow: counts %v, err %v", counts, err)
	}
	var latched censusSums
	latched.ck.add(math.MaxInt64, math.MaxInt64)
	var sum censusSums
	sum.add(&latched)
	if counts, _, err := cp.counts(&sum, div); !errors.Is(err, ErrCountOverflow) || counts != nil {
		t.Errorf("latched overflow: counts %v, err %v", counts, err)
	}
	var fine censusSums
	if counts, _, err := cp.counts(&fine, div); err != nil || len(counts) != 6 {
		t.Errorf("empty census: counts %v, err %v", counts, err)
	}
}

// FuzzMotifCensus decodes a graph of at most 12 vertices from the input and
// requires closed form == StrategyDFS == brute force for k = 3 and 4.
func FuzzMotifCensus(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{11, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 2, 3, 3, 4, 4, 1, 5, 6, 6, 7, 7, 5, 8, 9})
	plans := map[int]*plan.Plan{}
	for k := 3; k <= 4; k++ {
		pl, err := plan.CompileMotifs(k, plan.Options{})
		if err != nil {
			f.Fatal(err)
		}
		plans[k] = pl
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		var edges []graph.Edge
		for i := 1; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: graph.VID(int(data[i]) % n), V: graph.VID(int(data[i+1]) % n)})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for k, pl := range plans {
			closed, err := Mine(g, pl, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			dfs, err := Mine(g, pl, Options{Threads: 2, Strategy: StrategyDFS})
			if err != nil {
				t.Fatal(err)
			}
			brute := BruteMotifCensus(g, k)
			if !reflect.DeepEqual(closed.Counts, brute) || !reflect.DeepEqual(dfs.Counts, brute) {
				t.Fatalf("%d-MC on %d vertices %v: closed form %v, dfs %v, brute %v", k, n, edges, closed.Counts, dfs.Counts, brute)
			}
		}
	})
}
