package serve

// httptest smoke for the serving surface, exercised concurrently with a
// real engine run so the -race CI step covers the hook path: scheduler
// workers write the Progress atomics while HTTP handlers read them.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeSmoke(t *testing.T) {
	reg := obs.NewRegistry(nil)
	reg.Add("cpu.tasks", 42)
	reg.Add("sim.breakdown.compute", 1000)
	end := reg.StartPhase("mine")
	end()
	var prog Progress
	srv := httptest.NewServer(NewMux(reg, &prog, "flexminer"))
	defer srv.Close()

	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz: %d %q", code, body)
	}

	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"flexminer_cpu_tasks 42",
		"flexminer_sim_breakdown_compute 1000",
		`flexminer_phase_duration_ticks{phase="mine"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get(t, srv, "/debug/progress")
	if code != http.StatusOK {
		t.Fatalf("/debug/progress: status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/progress not JSON: %v\n%s", err, body)
	}

	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}

// TestServeProgressDuringRun drives a real parallel mine with the Progress
// hooks wired while hammering /debug/progress — the race detector proves
// the hook path is sound, and the final snapshot must agree with the run.
func TestServeProgressDuringRun(t *testing.T) {
	g := graph.ChungLu(600, 4800, 2.3, 9)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	srv := httptest.NewServer(NewMux(obs.NewRegistry(nil), &prog, "flexminer"))
	defer srv.Close()

	tasks := sched.Expand(g, 16)
	prog.BeginRun(len(tasks))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				get(t, srv, "/debug/progress")
				get(t, srv, "/metrics")
			}
		}
	}()
	res, err := core.Mine(g, pl, core.Options{
		Threads:    4,
		SliceElems: 16,
		SchedHooks: prog.Hooks(),
		OnTaskDone: prog.OnTaskDone,
	})
	prog.EndRun()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	snap := prog.Snapshot()
	if snap.Running {
		t.Error("snapshot still running after EndRun")
	}
	if snap.TasksDone != int64(len(tasks)) {
		t.Errorf("tasks_done=%d, want %d", snap.TasksDone, len(tasks))
	}
	if snap.TasksDone != res.Stats.Tasks {
		t.Errorf("tasks_done=%d disagrees with Stats.Tasks=%d", snap.TasksDone, res.Stats.Tasks)
	}
	// PartialMatches is pre-divisor: counts × the plan's symmetry divisor.
	if want := res.Counts[0] * pl.CountDivisor[0]; snap.PartialMatches != want {
		t.Errorf("partial_matches=%d, want %d (count %d × divisor %d)",
			snap.PartialMatches, want, res.Counts[0], pl.CountDivisor[0])
	}
	if snap.RunsCompleted != 1 {
		t.Errorf("runs_completed=%d, want 1", snap.RunsCompleted)
	}
}

// TestServeProgressCensusRun: a 4-motif census answered in closed form keeps
// the progress contract — the engine's TaskCount sizes the run, one OnTask
// per solver task brings tasks_done to it, and the single OnTaskDone carries
// the raw total, so partial_matches ends at Σ counts (divisors are 1).
func TestServeProgressCensusRun(t *testing.T) {
	g := graph.ChungLu(600, 4800, 2.3, 9)
	pl, err := plan.CompileMotifs(4, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	eng, err := core.NewEngine(g, pl, core.Options{
		Threads:    4,
		SchedHooks: prog.Hooks(),
		OnTaskDone: prog.OnTaskDone,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog.BeginRun(eng.TaskCount())
	res, err := eng.MineContext(context.Background())
	prog.EndRun()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Extensions != 0 {
		t.Fatalf("census plan was enumerated (%d extensions), want the closed-form solver", res.Stats.Extensions)
	}
	snap := prog.Snapshot()
	if snap.Tasks != int64(g.NumVertices()) || snap.TasksDone != snap.Tasks || snap.TasksDone != res.Stats.Tasks {
		t.Errorf("tasks=%d tasks_done=%d Stats.Tasks=%d, want all equal to %d vertices",
			snap.Tasks, snap.TasksDone, res.Stats.Tasks, g.NumVertices())
	}
	var total int64
	for _, c := range res.Counts {
		total += c
	}
	if total == 0 || snap.PartialMatches != total {
		t.Errorf("partial_matches=%d, want Σ counts = %d", snap.PartialMatches, total)
	}
}

// TestProgressStealTiers checks the sharded-run locality split reaches the
// snapshot and the /debug/progress document under the documented field names.
func TestProgressStealTiers(t *testing.T) {
	var prog Progress
	h := prog.Hooks()
	h.OnSteal(1, 0, 3)
	h.OnStealTier(1, 0, 3, sched.StealLocal)
	h.OnSteal(2, 0, 2)
	h.OnStealTier(2, 0, 2, sched.StealCross)
	h.OnSteal(3, 0, 1)
	h.OnStealTier(3, 0, 1, sched.StealCross)

	snap := prog.Snapshot()
	if snap.Steals != 3 || snap.TasksStolen != 6 {
		t.Errorf("steals=%d stolen=%d, want 3/6", snap.Steals, snap.TasksStolen)
	}
	if snap.StealsLocal != 1 || snap.StealsCross != 2 {
		t.Errorf("local=%d cross=%d, want 1/2", snap.StealsLocal, snap.StealsCross)
	}
	if snap.StealsLocal+snap.StealsCross != snap.Steals {
		t.Errorf("tier split %d+%d does not account for all %d steals",
			snap.StealsLocal, snap.StealsCross, snap.Steals)
	}

	srv := httptest.NewServer(NewMux(nil, &prog, ""))
	defer srv.Close()
	_, body := get(t, srv, "/debug/progress")
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/progress not JSON: %v", err)
	}
	if got := doc["steals_local"]; got != float64(1) {
		t.Errorf("steals_local = %v, want 1", got)
	}
	if got := doc["steals_cross_shard"]; got != float64(2) {
		t.Errorf("steals_cross_shard = %v, want 2", got)
	}
}

// TestProgressHooksAreInert: wiring progress observation must not change
// counts or stats (the serve-mode half of the observers-never-perturb
// contract).
func TestProgressHooksAreInert(t *testing.T) {
	g := graph.ChungLu(600, 4800, 2.3, 9)
	pl, err := plan.Compile(pattern.Diamond(), plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Mine(g, pl, core.Options{Threads: 4, SliceElems: 16})
	if err != nil {
		t.Fatal(err)
	}
	var prog Progress
	hooked, err := core.Mine(g, pl, core.Options{
		Threads: 4, SliceElems: 16,
		SchedHooks: prog.Hooks(), OnTaskDone: prog.OnTaskDone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked.Count() != plain.Count() || hooked.Stats != plain.Stats {
		t.Errorf("progress hooks changed the run:\nhooked %+v\nplain  %+v", hooked.Stats, plain.Stats)
	}
}

// TestListenAndServeDrainsBeforeShutdown: after ctx cancellation the
// drainers must (a) run to completion before the listener closes — the
// server must still answer requests while in-flight mining work finishes —
// and (b) receive a DrainGrace-bounded context. This is the SIGINT fix: the
// old path stopped the listener immediately, orphaning the in-flight mine.
func TestListenAndServeDrainsBeforeShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	drainEntered := make(chan struct{})
	releaseDrain := make(chan struct{})
	var deadlineOK bool
	drain := func(dctx context.Context) error {
		if _, ok := dctx.Deadline(); ok && dctx.Err() == nil {
			deadlineOK = true
		}
		close(drainEntered)
		<-releaseDrain
		return nil
	}
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr }, drain)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	cancel()
	select {
	case <-drainEntered:
	case <-time.After(10 * time.Second):
		t.Fatal("drainer never ran after ctx cancellation")
	}
	// Mid-drain the listener must still serve: in-flight work stays
	// observable on /metrics until the drain completes.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("server stopped serving during drain: %v", err)
	}
	resp.Body.Close()
	select {
	case err := <-done:
		t.Fatalf("ListenAndServe returned %v before the drainer finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(releaseDrain)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown after drain returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete after drain")
	}
	if !deadlineOK {
		t.Error("drainer context carried no deadline (DrainGrace not applied)")
	}
}

// TestListenAndServeDrainErrorPropagates: a drainer that gives up (deadline
// expired with work still running) must not abort the shutdown, but its
// error must surface to the caller.
func TestListenAndServeDrainErrorPropagates(t *testing.T) {
	old := DrainGrace
	DrainGrace = 30 * time.Millisecond
	defer func() { DrainGrace = old }()

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	drain := func(dctx context.Context) error {
		<-dctx.Done() // simulate work outlasting the grace period
		return dctx.Err()
	}
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr }, drain)
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Errorf("drain overrun returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung on an overrunning drainer")
	}
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ListenAndServe(ctx, "127.0.0.1:0", NewMux(nil, nil, ""), func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
