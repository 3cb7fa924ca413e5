//go:build unix

package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// storageBackends materializes g in every storage backend: the heap graph
// itself, a zero-copy mmap of its binary file, and mmap-backed shard
// directories at 1 and 4 shards. Cleanup closes the mapped stores.
func storageBackends(t *testing.T, g *graph.Graph) map[string]graph.Store {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	if err := graph.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(bin)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	stores := map[string]graph.Store{"heap": g, "mmap": m}
	for _, shards := range []int{1, 4} {
		sdir := filepath.Join(dir, "shards", string(rune('0'+shards)))
		if err := graph.WriteSharded(sdir, g, shards); err != nil {
			t.Fatal(err)
		}
		s, err := graph.OpenSharded(sdir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if shards == 1 {
			stores["shard1"] = s
		} else {
			stores["shard4"] = s
		}
	}
	return stores
}

// equivPlans compiles the workload catalog the equivalence suite mines:
// the full 3-motif census, two subgraph-listing patterns, a generic 4-clique
// plan, and (for oriented inputs) the DAG clique plan.
func equivPlans(t *testing.T, dag bool) map[string]*plan.Plan {
	t.Helper()
	plans := map[string]*plan.Plan{}
	compile := func(name string, pl *plan.Plan, err error) {
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		plans[name] = pl
	}
	if dag {
		pl, err := plan.CompileCliqueDAG(4)
		compile("4-CL-dag", pl, err)
		return plans
	}
	pl, err := plan.CompileMotifs(3, plan.Options{})
	compile("3-MC", pl, err)
	pl, err = plan.Compile(pattern.Diamond(), plan.Options{})
	compile("SL-diamond", pl, err)
	pl, err = plan.Compile(pattern.FourCycle(), plan.Options{})
	compile("SL-4cycle", pl, err)
	pl, err = plan.Compile(pattern.KClique(4), plan.Options{})
	compile("4-CL-sym", pl, err)
	return plans
}

// TestStorageBackendEquivalence is the acceptance suite: for every workload
// in the catalog, Counts AND the full Stats block must be DeepEqual across
// heap, mmap, 1-shard, and 4-shard backends — storage (and shard-local
// placement) may move bytes and tasks around, but never the computation.
func TestStorageBackendEquivalence(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"er":   graph.ErdosRenyi(400, 3000, 17),
		"rmat": graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 5),
	}
	opts := []Options{
		{Threads: 4},
		{Threads: 8, Kernel: KernelMergeOnly, SliceElems: 16, Strategy: StrategyDFS},
	}
	for gname, g := range inputs {
		for dag := 0; dag < 2; dag++ {
			base := g
			if dag == 1 {
				base = g.Orient()
			}
			stores := storageBackends(t, base)
			for pname, pl := range equivPlans(t, dag == 1) {
				for oi, o := range opts {
					want, err := Mine(stores["heap"], pl, o)
					if err != nil {
						t.Fatal(err)
					}
					for sname, st := range stores {
						if sname == "heap" {
							continue
						}
						got, err := Mine(st, pl, o)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Counts, want.Counts) {
							t.Fatalf("%s/%s/opt%d: %s counts %v != heap %v", gname, pname, oi, sname, got.Counts, want.Counts)
						}
						if !reflect.DeepEqual(got.Stats, want.Stats) {
							t.Fatalf("%s/%s/opt%d: %s stats diverge from heap:\n%+v\n%+v", gname, pname, oi, sname, got.Stats, want.Stats)
						}
					}
				}
			}
		}
	}
}

// TestStorageBackendShardObliviousEquivalence checks the A/B switch only
// moves tasks, never results: oblivious and shard-local placement produce
// identical Counts and Stats on a 4-shard store.
func TestStorageBackendShardObliviousEquivalence(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 5)
	stores := storageBackends(t, g)
	pl, err := plan.CompileMotifs(3, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Mine(stores["shard4"], pl, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	obliv, err := Mine(stores["shard4"], pl, Options{Threads: 8, ShardOblivious: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local.Counts, obliv.Counts) || !reflect.DeepEqual(local.Stats, obliv.Stats) {
		t.Fatalf("shard-oblivious placement changed results:\nlocal %+v %+v\nobliv %+v %+v",
			local.Counts, local.Stats, obliv.Counts, obliv.Stats)
	}
}

// TestStorageBackendCancellation checks cancellation-with-partial-results
// works on every backend: the run returns the context error, and the partial
// counts never exceed the full run's. The DFS is pinned: its partial counts
// are what is under test (a cancelled closed-form census has none).
func TestStorageBackendCancellation(t *testing.T) {
	g := graph.RMAT(11, 40000, 0.57, 0.19, 0.19, 23)
	stores := storageBackends(t, g)
	pl, err := plan.CompileMotifs(3, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Mine(stores["heap"], pl, Options{Threads: 4, Strategy: StrategyDFS})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range stores {
		var fired atomic.Int64
		ctx, cancel := context.WithCancel(context.Background())
		// OnTaskDone runs on worker goroutines: the counter is atomic.
		o := Options{Threads: 4, Strategy: StrategyDFS, OnTaskDone: func(w int, matches int64) {
			if fired.Add(1) == 10 {
				cancel()
			}
		}}
		got, err := MineContext(ctx, st, pl, o)
		cancel()
		if err == nil {
			// The run may legitimately finish before poll latency bites on
			// tiny inputs, but this fixture is large enough that it must not.
			t.Fatalf("%s: cancelled run returned nil error", name)
		}
		for i := range got.Counts {
			if got.Counts[i] < 0 || got.Counts[i] > full.Counts[i] {
				t.Fatalf("%s: partial count %d = %d outside [0, %d]", name, i, got.Counts[i], full.Counts[i])
			}
		}
		if got.Stats.Tasks == 0 || got.Stats.Tasks >= full.Stats.Tasks {
			t.Fatalf("%s: cancelled run executed %d tasks, want partial progress below %d", name, got.Stats.Tasks, full.Stats.Tasks)
		}
	}
}

// TestMappedMineConstantHeap is the acceptance bound end-to-end: mining a
// multi-megabyte graph through OpenMapped must allocate per-worker scratch
// only — O(maxDegree), not O(|E|) — so heap growth stays far below the file
// size.
func TestMappedMineConstantHeap(t *testing.T) {
	g := graph.RMAT(14, 250_000, 0.57, 0.19, 0.19, 11)
	bin := filepath.Join(t.TempDir(), "g.bin")
	if err := graph.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(bin)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TriangleCountStoreFixture(g)
	if err != nil {
		t.Fatal(err)
	}
	g = nil
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := graph.OpenMapped(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(m, pl, Options{Threads: 2, Kernel: KernelMergeOnly})
	if err != nil {
		t.Fatal(err)
	}
	// Collect transient run-time garbage (task lists, sort scratch) so the
	// delta measures what mining through the mapped store keeps live — which
	// must not include any copy of the adjacency arrays.
	runtime.GC()
	runtime.ReadMemStats(&after)
	if res.Count() != want {
		t.Fatalf("mapped mine count %d != heap count %d", res.Count(), want)
	}
	// Workers allocate O(K · maxDegree) scratch; bound generously but far
	// below the adjacency arrays (the file is several MB).
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if bound := fi.Size() / 4; grew > bound {
		t.Fatalf("mapped mine grew heap by %d bytes for a %d-byte graph; want < %d", grew, fi.Size(), bound)
	}
}

// TriangleCountStoreFixture computes the reference triangle count on the
// heap store before the MemStats window opens.
func TriangleCountStoreFixture(g *graph.Graph) (int64, error) {
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		return 0, err
	}
	res, err := Mine(g, pl, Options{Threads: 2, Kernel: KernelMergeOnly})
	if err != nil {
		return 0, err
	}
	return res.Count(), nil
}

// TestStorageBackendListEquivalence drives the listing path (per-embedding
// visitor) through a mapped store, confirming visitors see identical
// embeddings regardless of backend.
func TestStorageBackendListEquivalence(t *testing.T) {
	g := graph.ErdosRenyi(200, 1200, 29)
	stores := storageBackends(t, g)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(st graph.Store) map[[3]graph.VID]int {
		seen := map[[3]graph.VID]int{}
		var mu = make(chan struct{}, 1)
		mu <- struct{}{}
		_, err := List(st, pl, Options{Threads: 4}, func(emb []graph.VID, pat int) {
			var k [3]graph.VID
			copy(k[:], emb)
			<-mu
			seen[k]++
			mu <- struct{}{}
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want := collect(stores["heap"])
	for _, name := range []string{"mmap", "shard1", "shard4"} {
		if got := collect(stores[name]); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: listed embeddings differ from heap (%d vs %d distinct)", name, len(got), len(want))
		}
	}
}
