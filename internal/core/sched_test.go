package core

// Tests for the engine's integration with the internal/sched runtime:
// scheduler invariance (counts must not depend on threads, slicing, or the
// scheduler itself), context cancellation (prompt return, no goroutine
// leak), and the empty-result Count guard.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

// chunkMine reproduces the pre-sched scheduler exactly — an atomic counter
// handing out contiguous 16-vertex chunks — as the old-vs-new reference.
func chunkMine(g *graph.Graph, pl *plan.Plan, threads int) Result {
	n := g.NumVertices()
	if threads > n && n > 0 {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	var next int64
	const chunk = 16
	results := make([]Result, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w := newWorker(g, pl, Options{Threads: threads}.withDefaults())
			for {
				start := atomic.AddInt64(&next, chunk) - chunk
				if start >= int64(n) {
					break
				}
				end := start + chunk
				if end > int64(n) {
					end = int64(n)
				}
				for v := start; v < end; v++ {
					w.runTask(sched.Task{V0: graph.VID(v), Lo: 0, Hi: sched.All})
				}
			}
			results[t] = Result{Counts: w.counts, Stats: w.stats}
		}(t)
	}
	wg.Wait()
	total := Result{Counts: make([]int64, len(pl.Patterns))}
	for _, r := range results {
		for i, c := range r.Counts {
			total.Counts[i] += c
		}
	}
	for i := range total.Counts {
		total.Counts[i] /= pl.CountDivisor[i]
	}
	return total
}

// TestSchedulerInvariance: on RMAT stand-ins, counts must be identical
// across thread counts, slice sizes, and old-vs-new scheduler.
func TestSchedulerInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat10": graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 0x17),
		"rmat9":  graph.RMAT(9, 3500, 0.55, 0.2, 0.2, 0x42),
	}
	plans := map[string]*plan.Plan{}
	if pl, err := plan.Compile(pattern.Triangle(), plan.Options{}); err == nil {
		plans["triangle"] = pl
	} else {
		t.Fatal(err)
	}
	if pl, err := plan.Compile(pattern.Diamond(), plan.Options{}); err == nil {
		plans["diamond"] = pl
	} else {
		t.Fatal(err)
	}
	for gname, g := range graphs {
		for plname, pl := range plans {
			want := chunkMine(g, pl, 4).Counts
			for _, threads := range []int{1, 4, 16} {
				for _, slice := range []int{SliceOff, 0, 8, 64} {
					res, err := Mine(g, pl, Options{Threads: threads, SliceElems: slice})
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if res.Counts[i] != want[i] {
							t.Errorf("%s/%s threads=%d slice=%d: count[%d]=%d, chunk scheduler got %d",
								gname, plname, threads, slice, i, res.Counts[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSchedulerInvarianceDAG covers the oriented-DAG clique path (TC-style
// workloads) under the same sweep.
func TestSchedulerInvarianceDAG(t *testing.T) {
	g := graph.RMAT(10, 6000, 0.57, 0.19, 0.19, 0x17).Orient()
	pl, err := plan.CompileCliqueDAG(4)
	if err != nil {
		t.Fatal(err)
	}
	want := chunkMine(g, pl, 4).Counts[0]
	for _, threads := range []int{1, 4, 16} {
		for _, slice := range []int{SliceOff, 0, 8, 64} {
			res, err := Mine(g, pl, Options{Threads: threads, SliceElems: slice})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts[0] != want {
				t.Errorf("threads=%d slice=%d: 4-CL=%d want %d", threads, slice, res.Counts[0], want)
			}
		}
	}
}

// TestMineContextCancel: a cancelled context must stop the run promptly,
// return partial results with ctx's error, and leak no goroutines.
func TestMineContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	g := graph.ChungLu(1500, 30000, 2.2, 5)
	pl, err := plan.Compile(pattern.KClique(5), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := MineContext(ctx, g, pl, Options{Threads: 4})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Counts) != 1 {
		t.Fatalf("partial result missing counts: %+v", res)
	}
	// A full 5-clique run on this graph takes far longer than the
	// cancellation budget; promptness means we came back within a small
	// multiple of the cancel delay even on a loaded host.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation not prompt: took %v", elapsed)
	}
	// Workers must have exited: poll briefly, then compare goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutine leak: %d before, %d after", before, after)
	}
}

// TestMineContextDeadline covers the timeout flavor end to end.
func TestMineContextDeadline(t *testing.T) {
	g := graph.ChungLu(1500, 30000, 2.2, 6)
	pl, err := plan.Compile(pattern.KClique(5), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	_, err = MineContext(ctx, g, pl, Options{Threads: 2})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMineContextComplete: an unexercised context must not disturb a run.
func TestMineContextComplete(t *testing.T) {
	g := graph.Clique(6)
	pl, err := plan.Compile(pattern.Triangle(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineContext(context.Background(), g, pl, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 20 {
		t.Errorf("triangles = %d, want 20", res.Count())
	}
}

// TestListContextCancel: the listing path shares the cancellation machinery.
func TestListContextCancel(t *testing.T) {
	g := graph.ChungLu(1500, 30000, 2.2, 7)
	pl, err := plan.Compile(pattern.KClique(4), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	_, err = ListContext(ctx, g, pl, Options{Threads: 4}, func(emb []graph.VID, idx int) {
		if seen.Add(1) == 100 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResultCountEmpty: Count on an empty result must not panic.
func TestResultCountEmpty(t *testing.T) {
	if c := (Result{}).Count(); c != 0 {
		t.Errorf("empty Result.Count() = %d, want 0", c)
	}
}

// TestListMatchesMineUnderSlicing: the visitor must see each match exactly
// once regardless of hub slicing.
func TestListMatchesMineUnderSlicing(t *testing.T) {
	g := graph.ChungLu(200, 1400, 2.3, 9)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Mine(g, pl, Options{Threads: 1, SliceElems: SliceOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, slice := range []int{SliceOff, 8, 64} {
		var visits atomic.Int64
		res, err := List(g, pl, Options{Threads: 4, SliceElems: slice}, func([]graph.VID, int) {
			visits.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count() != want.Count() || visits.Load() != want.Count() {
			t.Errorf("slice=%d: count=%d visits=%d want %d",
				slice, res.Count(), visits.Load(), want.Count())
		}
	}
}
