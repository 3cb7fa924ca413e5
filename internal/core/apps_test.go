package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

func TestStandardAppsRun(t *testing.T) {
	g := graph.ChungLu(120, 700, 2.4, 99)
	for _, app := range StandardApps() {
		counts, err := app.Run(g, Options{Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if len(counts) == 0 {
			t.Errorf("%s: no counts", app.Name)
		}
	}
}

func TestAppByName(t *testing.T) {
	if _, err := AppByName("TC"); err != nil {
		t.Fatal(err)
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAppsOnKnownGraphs(t *testing.T) {
	// Petersen graph: girth 5 — no triangles, no 4-cycles; 12 5-cycles.
	petersen := graph.MustFromEdges(10, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0},
		{U: 5, V: 7}, {U: 7, V: 9}, {U: 9, V: 6}, {U: 6, V: 8}, {U: 8, V: 5},
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 2, V: 7}, {U: 3, V: 8}, {U: 4, V: 9},
	})
	if tc, _ := TriangleCount(petersen, Options{}); tc != 0 {
		t.Errorf("petersen triangles = %d", tc)
	}
	if c4, _ := SubgraphListing(petersen, pattern.FourCycle(), Options{}); c4 != 0 {
		t.Errorf("petersen 4-cycles = %d", c4)
	}
	if c5, _ := SubgraphListing(petersen, pattern.KCycle(5), Options{}); c5 != 12 {
		t.Errorf("petersen 5-cycles = %d want 12", c5)
	}
	// K6: C(6,2) edges; wedges = 6·C(5,2) = 60; triangles = 20.
	k6 := graph.Clique(6)
	counts, motifs, err := MotifCounts(k6, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range motifs {
		want := int64(0)
		switch m.Name() {
		case "triangle":
			want = 20
		case "wedge":
			want = 0 // induced wedges don't exist in a clique
		}
		if counts[i] != want {
			t.Errorf("K6 %s = %d want %d", m.Name(), counts[i], want)
		}
	}
	// Grid 4x4: 9 unit squares + 4 2x2 squares... edge-induced 4-cycles in
	// a grid are exactly the unit faces plus larger rectangles; count via
	// brute force instead of hand-derivation.
	grid := graph.Grid(4, 4)
	want := BruteCount(grid, pattern.FourCycle(), false)
	if got, _ := SubgraphListing(grid, pattern.FourCycle(), Options{}); got != want {
		t.Errorf("grid 4-cycles = %d want %d", got, want)
	}
}

// randomConnectedPattern draws a connected pattern on k vertices.
func randomConnectedPattern(r *rand.Rand, k int) *pattern.Pattern {
	for {
		p := pattern.New(k)
		// Random spanning tree guarantees connectivity.
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
		if p.IsConnected() {
			return p
		}
	}
}

// TestRandomPatternsMatchBruteForce is the strongest compiler test: random
// connected patterns (sizes 2–5), random graphs, both semantics, engine vs
// brute force.
func TestRandomPatternsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		p := randomConnectedPattern(r, k)
		n := k + r.Intn(18)
		var edges []graph.Edge
		m := r.Intn(3*n + 1)
		for i := 0; i < m; i++ {
			edges = append(edges, graph.Edge{U: graph.VID(r.Intn(n)), V: graph.VID(r.Intn(n))})
		}
		g := graph.MustFromEdges(n, edges)
		induced := r.Intn(2) == 0
		pl, err := plan.Compile(p, plan.Options{Induced: induced})
		if err != nil {
			return false
		}
		res, err := Mine(g, pl, Options{Threads: 2})
		if err != nil {
			return false
		}
		want := BruteCount(g, p, induced)
		if res.Count() != want {
			t.Logf("seed=%d pattern=%s induced=%v: engine=%d brute=%d\n%s",
				seed, p, induced, res.Count(), want, pl)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestObliviousEnumerationSizes: ESU must visit exactly the number of
// connected induced k-subgraphs (sum of motif counts).
func TestObliviousEnumerationSizes(t *testing.T) {
	g := graph.ErdosRenyi(40, 140, 5)
	for k := 3; k <= 4; k++ {
		obl := MineOblivious(g, k, 3)
		var wantTotal int64
		for _, c := range BruteMotifCensus(g, k) {
			wantTotal += c
		}
		if obl.Enumerated != wantTotal {
			t.Errorf("k=%d: ESU enumerated %d, brute total %d", k, obl.Enumerated, wantTotal)
		}
	}
}
