package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// testShardMap partitions vertex IDs by explicit cut points.
type testShardMap struct {
	cuts []graph.VID // len shards+1
}

func (m testShardMap) NumShards() int { return len(m.cuts) - 1 }
func (m testShardMap) ShardOf(v graph.VID) int {
	for s := 0; s < m.NumShards(); s++ {
		if v < m.cuts[s+1] {
			return s
		}
	}
	return m.NumShards() - 1
}

// quarterMap splits [0, n) into 4 equal vertex ranges.
func quarterMap(n int) testShardMap {
	q := graph.VID(n / 4)
	return testShardMap{cuts: []graph.VID{0, q, 2 * q, 3 * q, graph.VID(n)}}
}

func TestWorkerGroups(t *testing.T) {
	cases := []struct {
		workers, shards int
		want            []int
	}{
		{8, 4, []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{4, 4, []int{0, 1, 2, 3}},
		{2, 4, []int{0, 1}},
		{3, 4, []int{0, 1, 2}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{1, 4, []int{0}},
		{4, 1, []int{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		got := WorkerGroups(tc.workers, tc.shards)
		if len(got) != len(tc.want) {
			t.Fatalf("WorkerGroups(%d,%d) len = %d", tc.workers, tc.shards, len(got))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("WorkerGroups(%d,%d) = %v, want %v", tc.workers, tc.shards, got, tc.want)
			}
		}
		// Every group up to the max must be inhabited, and every shard's
		// group must exist among the workers.
		groups := got[len(got)-1] + 1
		for s := 0; s < tc.shards; s++ {
			if g := shardGroup(s, tc.shards, groups); g < 0 || g >= groups {
				t.Fatalf("shard %d maps to group %d of %d", s, g, groups)
			}
		}
	}
}

// TestRunShardedExactlyOnce checks the execution contract holds in both
// seeding modes: every task runs exactly once, no matter how stealing moves
// work around.
func TestRunShardedExactlyOnce(t *testing.T) {
	const n = 4000
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID(i % 1024), Lo: i, Hi: i + 1}
	}
	for _, oblivious := range []bool{false, true} {
		for _, workers := range []int{1, 3, 8} {
			var mu sync.Mutex
			seen := make(map[Task]int, n)
			err := RunSharded(context.Background(), workers, tasks,
				ShardOptions{Map: quarterMap(1024), Oblivious: oblivious},
				func(w int, tk Task) bool {
					mu.Lock()
					seen[tk]++
					mu.Unlock()
					return true
				}, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != n {
				t.Fatalf("oblivious=%v workers=%d: %d distinct tasks ran, want %d", oblivious, workers, len(seen), n)
			}
			for tk, c := range seen {
				if c != 1 {
					t.Fatalf("oblivious=%v workers=%d: task %+v ran %d times", oblivious, workers, tk, c)
				}
			}
		}
	}
}

func TestRunShardedCancellation(t *testing.T) {
	tasks := make([]Task, 2000)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID(i % 256), Lo: 0, Hi: All}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := RunSharded(ctx, 4, tasks, ShardOptions{Map: quarterMap(256)},
		func(w int, tk Task) bool {
			if ran.Add(1) == 100 {
				cancel()
			}
			return ctx.Err() == nil
		}, Hooks{})
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if got := ran.Load(); got < 100 || got >= 2000 {
		t.Fatalf("ran %d tasks; want partial progress in [100, 2000)", got)
	}
}

// TestRunShardedTierClassification checks OnStealTier agrees with the
// exported WorkerGroups mapping for every reported steal, and that an
// unsharded run (RunHooked, what the engine uses for heap and mmap stores)
// steals without ever reporting a locality tier.
func TestRunShardedTierClassification(t *testing.T) {
	const workers = 8
	sm := quarterMap(1024)
	groupOf := WorkerGroups(workers, sm.NumShards())
	tasks := make([]Task, 3000)
	for i := range tasks {
		tasks[i] = Task{V0: graph.VID((i * 31) % 1024), Lo: 0, Hi: All}
	}
	var bad atomic.Int64
	var steals atomic.Int64
	h := Hooks{OnStealTier: func(thief, victim, n, tier int) {
		steals.Add(1)
		want := StealLocal
		if groupOf[thief] != groupOf[victim] {
			want = StealCross
		}
		if tier != want {
			bad.Add(1)
		}
	}}
	// Uneven work so stealing actually happens.
	work := func(w int, tk Task) bool {
		spin := int(tk.V0%17) * 300
		for i := 0; i < spin; i++ {
			_ = i * i
		}
		return true
	}
	for run := 0; run < 4; run++ {
		if err := RunSharded(context.Background(), workers, tasks, ShardOptions{Map: sm}, work, h); err != nil {
			t.Fatal(err)
		}
	}
	if bad.Load() != 0 {
		t.Fatalf("%d of %d steals misclassified", bad.Load(), steals.Load())
	}

	var plain, tiered atomic.Int64
	unsharded := Hooks{
		OnSteal:     func(thief, victim, n int) { plain.Add(1) },
		OnStealTier: func(thief, victim, n, tier int) { tiered.Add(1) },
	}
	for run := 0; run < 4; run++ {
		if err := RunHooked(context.Background(), workers, tasks, work, unsharded); err != nil {
			t.Fatal(err)
		}
	}
	if tiered.Load() != 0 {
		t.Fatalf("unsharded runs reported %d tiered steals", tiered.Load())
	}
	if plain.Load() == 0 {
		t.Fatal("unsharded runs never stole; the tier check above is vacuous")
	}
}

// TestMergeHooks checks fan-out order and that absent callbacks stay nil
// (so the scheduler's per-event nil test keeps skipping them).
func TestMergeHooks(t *testing.T) {
	if h := MergeHooks(); h.OnSteal != nil || h.OnStealTier != nil || h.OnTask != nil {
		t.Fatal("MergeHooks() of nothing must be the zero Hooks")
	}
	var log []string
	a := Hooks{
		OnSteal:     func(thief, victim, n int) { log = append(log, "a-steal") },
		OnStealTier: func(thief, victim, n, tier int) { log = append(log, "a-tier") },
	}
	b := Hooks{
		OnSteal: func(thief, victim, n int) { log = append(log, "b-steal") },
		OnTask:  func(w int, tk Task) { log = append(log, "b-task") },
	}
	m := MergeHooks(a, b)
	m.OnSteal(1, 0, 2)
	m.OnStealTier(1, 0, 2, StealCross)
	m.OnTask(0, Task{})
	want := []string{"a-steal", "b-steal", "a-tier", "b-task"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// countCrossSteals mines the task list under the given seeding mode and
// returns (cross, total) steal counts.
func countCrossSteals(t *testing.T, g *graph.Graph, sm ShardMap, workers int, oblivious bool, runs int) (int64, int64) {
	t.Helper()
	tasks := Expand(g, 0)
	OrderByDegreeDesc(g, tasks)
	var cross, total atomic.Int64
	h := Hooks{OnStealTier: func(thief, victim, n, tier int) {
		total.Add(1)
		if tier == StealCross {
			cross.Add(1)
		}
	}}
	// Work proportional to adjacency size times a per-vertex factor the
	// degree-descending deal cannot see: deque totals inside a group
	// diverge mid-run, so idle workers steal while their group still has
	// surplus — the case shard-local sweeping serves from the local tier
	// and shard-oblivious sweeping serves mostly cross-group.
	var sink atomic.Uint64
	work := func(w int, tk Task) bool {
		weight := 1 + (uint64(tk.V0)*2654435761)>>27&31
		sum := uint64(0)
		for _, u := range g.Adj(tk.V0) {
			for i := uint64(0); i < weight; i++ {
				sum += uint64(u) + i
			}
		}
		sink.Add(sum)
		return true
	}
	for run := 0; run < runs; run++ {
		if err := RunSharded(context.Background(), workers, tasks,
			ShardOptions{Map: sm, Oblivious: oblivious}, work, h); err != nil {
			t.Fatal(err)
		}
	}
	return cross.Load(), total.Load()
}

// arcBalancedMap cuts the vertex space into `shards` ranges with roughly
// equal arc counts — the same degree-aware partition graph.WriteSharded
// uses. Equal-vertex quarters would pile all of an RMAT graph's arcs into
// shard 0 and leave nothing local to balance.
func arcBalancedMap(g *graph.Graph, shards int) testShardMap {
	cuts := make([]graph.VID, shards+1)
	cuts[shards] = graph.VID(g.NumVertices())
	total := g.NumArcs()
	v := 0
	for s := 1; s < shards; s++ {
		target := total * int64(s) / int64(shards)
		for v < g.NumVertices() && g.Row[v+1] < target {
			v++
		}
		cuts[s] = graph.VID(v)
	}
	return testShardMap{cuts: cuts}
}

// TestShardLocalSeedingReducesCrossSteals is the locality acceptance check:
// on a 4-shard RMAT stand-in with two workers per shard group, shard-local
// seeding must produce strictly fewer cross-group steals than shard-oblivious
// seeding (summed over several runs to damp scheduling noise).
func TestShardLocalSeedingReducesCrossSteals(t *testing.T) {
	g := graph.RMAT(11, 16000, 0.57, 0.19, 0.19, 42)
	sm := arcBalancedMap(g, 4)
	const workers, runs = 8, 6
	localCross, _ := countCrossSteals(t, g, sm, workers, false, runs)
	oblivCross, oblivTotal := countCrossSteals(t, g, sm, workers, true, runs)
	if oblivTotal == 0 {
		t.Fatal("oblivious runs produced no steals at all; fixture too uniform to compare")
	}
	if localCross >= oblivCross {
		t.Fatalf("shard-local seeding did not reduce cross-shard steals: local=%d oblivious=%d (total oblivious steals %d)",
			localCross, oblivCross, oblivTotal)
	}
	t.Logf("cross-shard steals over %d runs: shard-local=%d shard-oblivious=%d", runs, localCross, oblivCross)
}
