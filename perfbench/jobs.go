package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
)

// The job pool: every (graph, pattern) pair once per round. Drawing whole
// rounds in seeded order keeps the job mix identical across seeds, so the
// latency percentiles move with the service and not with the draw.
var (
	jobGraphs   = []string{"As", "Mi", "Pa", "heap", "mmap", "sharded"}
	jobPatterns = []string{"triangle", "diamond", "tailed-triangle", "4-cycle", "4-clique"}
	tenants     = []string{"t0", "t1", "t2", "t3"}
)

const (
	// housePerBurst 5-vertex house jobs ride in every burst, all from one
	// tenant: long-running elephants that use auxiliary graphs and that
	// deficit round-robin must keep from starving the other tenants.
	housePerBurst = 3
	houseGraph    = "heap"
	houseTenant   = "t3"

	// burstRounds pool rounds make one burst (10 × 30 = 300 jobs).
	burstRounds = 10
	// pacedRate is the paced workload's offered load, in jobs per second.
	pacedRate = 15.0
)

// jobKind is one (graph, pattern) pair of the pool.
type jobKind struct{ graph, pattern string }

// jobsEnv is the job workloads' input: the named stand-ins, three seeded
// RMAT graphs written under a graph root in three storage formats, and the
// one-shot reference count of every pool pair.
type jobsEnv struct {
	root  string
	named map[string]graph.Store
	want  map[jobKind]int64
}

// jobsSetup generates and writes the graphs and starts (and stops) a server,
// setupReps times; graph.* layer times come from the last repetition.
func jobsSetup(cfg config, s *sample, tr *tracer) (*jobsEnv, func(), error) {
	base := filepath.Join(cfg.workdir, fmt.Sprintf("jobs-%d", os.Getpid()))
	cleanup := func() { os.RemoveAll(base) }
	var env *jobsEnv
	var mem map[string]*graph.Graph
	for i := 0; i < setupReps; i++ {
		root := filepath.Join(base, fmt.Sprint(i))
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, cleanup, err
		}
		id := tr.begin("bench.setup", 0)
		t := time.Now()
		mem = map[string]*graph.Graph{}
		gen := timed(tr, "graph.gen", id, func() {
			for _, name := range jobGraphs {
				mem[name] = jobGraph(cfg, name)
			}
		})
		// Preregistered graphs are held by the server with their hub
		// index, so the index is set-up work.
		hub := timed(tr, "graph.hub_index", id, func() {
			for _, name := range []string{"As", "Mi", "Pa"} {
				mem[name].EnsureHubIndex(0)
			}
		})
		var err error
		save := timed(tr, "graph.save", id, func() {
			if err = graph.SaveBinary(filepath.Join(root, "rmat-heap.bin"), mem["heap"]); err != nil {
				return
			}
			if err = graph.SaveBinary(filepath.Join(root, "rmat-mmap.bin"), mem["mmap"]); err != nil {
				return
			}
			err = graph.WriteSharded(filepath.Join(root, "rmat.shards"), mem["sharded"], 4)
		})
		if err != nil {
			return nil, cleanup, err
		}
		load := timed(tr, "graph.load", id, func() { _, err = graph.Load(filepath.Join(root, "rmat-heap.bin")) })
		if err != nil {
			return nil, cleanup, err
		}
		mmap := timed(tr, "graph.open_mmap", id, func() {
			var m *graph.Mapped
			if m, err = graph.OpenMapped(filepath.Join(root, "rmat-mmap.bin")); err == nil {
				err = m.Close()
			}
		})
		if err != nil {
			return nil, cleanup, err
		}
		sharded := timed(tr, "graph.open_sharded", id, func() {
			var sg *graph.Sharded
			if sg, err = graph.OpenSharded(filepath.Join(root, "rmat.shards")); err == nil {
				err = sg.Close()
			}
		})
		if err != nil {
			return nil, cleanup, err
		}
		env = &jobsEnv{root: root, named: map[string]graph.Store{"As": mem["As"], "Mi": mem["Mi"], "Pa": mem["Pa"]}}
		timed(tr, "jobs.server_start", id, func() {
			srv := jobs.New(jobs.Config{Graphs: env.named, GraphDir: root})
			err = srv.Close(context.Background())
		})
		s.setupS = append(s.setupS, time.Since(t).Seconds())
		tr.end(id)
		if err != nil {
			return nil, cleanup, err
		}
		s.layer["graph.gen_ms"] = ms(gen)
		s.layer["graph.save_ms"] = ms(save)
		s.layer["graph.hub_index_ms"] = ms(hub)
		s.layer["graph.load_ms"] = ms(load)
		s.layer["graph.open_mmap_ms"] = ms(mmap)
		s.layer["graph.open_sharded_ms"] = ms(sharded)
	}
	var bytes int64
	for _, g := range mem {
		bytes += csrBytes(g)
	}
	s.layer["graph.csr_bytes"] = float64(bytes)
	s.counters["graph.csr_bytes"] = bytes

	// Reference counts: one untimed one-shot core.Mine per pool pair, on
	// the in-memory graphs (the server reads the written copies).
	env.want = map[jobKind]int64{}
	kinds := poolKinds()
	kinds = append(kinds, jobKind{houseGraph, "house"})
	for _, k := range kinds {
		p, err := pattern.ByName(k.pattern)
		if err != nil {
			return nil, cleanup, err
		}
		pl, err := plan.Compile(p, plan.Options{})
		if err != nil {
			return nil, cleanup, err
		}
		res, err := core.Mine(mem[k.graph], pl, core.Options{})
		if err != nil {
			return nil, cleanup, err
		}
		env.want[k] = res.Count()
		s.counters[fmt.Sprintf("count.%s.%s", k.graph, k.pattern)] = res.Count()
	}
	if cfg.corruptReference {
		env.want[kinds[0]]++
	}
	return env, cleanup, nil
}

// jobGraph generates one of the pool's graphs: the As, Mi and Pa stand-ins
// and RMAT graphs of scale 10, 11 and 12 with four edges per vertex for the
// heap, mmap and sharded path references. All are fixed; the workload seed
// drives the job order, tenants and arrival times. Seeded RMAT graphs moved
// burst throughput by about a tenth between seeds, the same in repeated
// sets of runs, which is as much as the host's own noise.
func jobGraph(cfg config, name string) *graph.Graph {
	rmat := func(scale int, seed uint64) *graph.Graph {
		if cfg.tiny {
			scale -= 4
		}
		return graph.RMAT(scale, 4<<scale, 0.57, 0.19, 0.19, seed)
	}
	switch name {
	case "heap":
		return rmat(10, 0x10)
	case "mmap":
		return rmat(11, 0x11)
	case "sharded":
		return rmat(12, 0x12)
	}
	if cfg.tiny {
		return graph.ChungLu(200, 1200, 2.3, 0xA5)
	}
	for _, d := range bench.Datasets() {
		if d.Name == name {
			return d.Gen()
		}
	}
	panic("perfbench: no dataset " + name)
}

func poolKinds() []jobKind {
	var out []jobKind
	for _, g := range jobGraphs {
		for _, p := range jobPatterns {
			out = append(out, jobKind{g, p})
		}
	}
	return out
}

// graphRef is the request's graph reference for a pool graph.
func graphRef(name string) jobs.GraphRef {
	switch name {
	case "heap":
		return jobs.GraphRef{Path: "rmat-heap.bin"}
	case "mmap":
		return jobs.GraphRef{Path: "rmat-mmap.bin", Mmap: true}
	case "sharded":
		return jobs.GraphRef{Path: "rmat.shards"}
	}
	return jobs.GraphRef{Name: name}
}

// jobReq is one drawn job: its kind and the POST /jobs body for it.
type jobReq struct {
	kind jobKind
	body []byte
}

// drawJobs returns house jobs followed by rounds × pool jobs in seeded
// order, each with a seeded tenant (house jobs all from houseTenant). The
// elephants lead, so deficit round-robin meets them at the head of their
// tenant's queue in every burst; at a seeded position the burst's latencies
// would swing with where the one long batch happened to land.
func drawJobs(rng *rand.Rand, rounds, house int) ([]jobReq, error) {
	var kinds []jobKind
	for r := 0; r < rounds; r++ {
		kinds = append(kinds, poolKinds()...)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := 0; i < house; i++ {
		kinds = append([]jobKind{{houseGraph, "house"}}, kinds...)
	}
	out := make([]jobReq, len(kinds))
	for i, k := range kinds {
		tenant := tenants[rng.Intn(len(tenants))]
		if k.pattern == "house" {
			tenant = houseTenant
		}
		body, err := json.Marshal(jobs.SubmitRequest{Tenant: tenant, Graph: graphRef(k.graph), Pattern: jobs.PatternRef{Name: k.pattern}})
		if err != nil {
			return nil, err
		}
		out[i] = jobReq{kind: k, body: body}
	}
	return out, nil
}

// jobTimes are one job's lifecycle instants as the benchmark saw them.
type jobTimes struct {
	due, submitted               time.Time
	compiling, running, terminal time.Time
}

// recorder timestamps job state transitions through Config.OnTransition and
// signals each terminal transition on term.
type recorder struct {
	mu    sync.Mutex
	times map[string]*jobTimes
	term  chan struct{}
}

func newRecorder(jobs int) *recorder {
	// One buffered token per job, so OnTransition never blocks.
	return &recorder{times: map[string]*jobTimes{}, term: make(chan struct{}, jobs)}
}

func (r *recorder) get(id string) *jobTimes {
	jt := r.times[id]
	if jt == nil {
		jt = &jobTimes{}
		r.times[id] = jt
	}
	return jt
}

func (r *recorder) onTransition(id string, st jobs.State) {
	now := time.Now()
	r.mu.Lock()
	jt := r.get(id)
	switch {
	case st == jobs.StateCompiling:
		jt.compiling = now
	case st == jobs.StateRunning:
		jt.running = now
	case st.Terminal():
		jt.terminal = now
	}
	r.mu.Unlock()
	if st.Terminal() {
		r.term <- struct{}{}
	}
}

// submit parses and submits one job, as POST /jobs does after reading the
// body, and records its due and submit instants.
func (r *recorder) submit(srv *jobs.Server, q jobReq, due time.Time, tr *tracer, parent int) (string, error) {
	submitted := time.Now()
	sp := tr.begin("jobs.submit", parent)
	req, pat, err := jobs.ParseSubmit(q.body)
	if err != nil {
		tr.end(sp)
		return "", err
	}
	id, err := srv.Submit(req, pat)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	jt := r.get(id)
	jt.due, jt.submitted = due, submitted
	r.mu.Unlock()
	return id, nil
}

// awaitTerminal waits until n jobs have reached a terminal state.
func (r *recorder) awaitTerminal(n int) error {
	timeout := time.NewTimer(150 * time.Second)
	defer timeout.Stop()
	for i := 0; i < n; i++ {
		select {
		case <-r.term:
		case <-timeout.C:
			return fmt.Errorf("jobs: %d of %d jobs still pending after 150 s", n-i, n)
		}
	}
	return nil
}

// jobStats accumulates the job-service metrics over every job of a run.
type jobStats struct {
	queueWait, toCompiling, compile, run, late []float64
	batches, engineBusy                        float64 // Σ 1/width, Σ run/width (ms)
	makespanMs                                 float64
	core                                       [len(coreStatNames)]float64 // core counters, Σ stat/width
	registry                                   map[string]int64
}

// collect checks every submitted job's outcome against the reference and
// folds its timings into the sample and st. Latency runs from due time to
// the terminal transition.
func collect(srv *jobs.Server, rec *recorder, ids []string, reqs []jobReq, env *jobsEnv, s *sample, st *jobStats, tr *tracer, parent int) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, id := range ids {
		q := reqs[i]
		jt := rec.times[id]
		status, err := srv.Status(id)
		if err != nil {
			s.failed++
			s.fail("job %s (%s on %s): status: %v", id, q.kind.pattern, q.kind.graph, err)
			continue
		}
		res, _ := srv.Result(id)
		switch {
		case status.State != jobs.StateDone || res == nil:
			s.failed++
			s.fail("job %s (%s on %s) ended %s: %s", id, q.kind.pattern, q.kind.graph, status.State, status.Error)
			continue
		case res.Partial:
			s.failed++
			s.fail("job %s (%s on %s) returned a partial result", id, q.kind.pattern, q.kind.graph)
			continue
		case res.Count != env.want[q.kind]:
			s.failed++
			s.fail("job %s (%s on %s) counted %d, one-shot reference %d", id, q.kind.pattern, q.kind.graph, res.Count, env.want[q.kind])
			continue
		}
		lat := ms(jt.terminal.Sub(jt.due))
		s.opMs = append(s.opMs, lat)
		kind := q.kind.graph + "/" + q.kind.pattern
		s.byKind[kind] = append(s.byKind[kind], lat)
		st.late = append(st.late, ms(jt.submitted.Sub(jt.due)))
		st.queueWait = append(st.queueWait, float64(status.QueueWaitMS))
		st.toCompiling = append(st.toCompiling, ms(jt.compiling.Sub(jt.submitted)))
		st.compile = append(st.compile, ms(jt.running.Sub(jt.compiling)))
		run := ms(jt.terminal.Sub(jt.running))
		st.run = append(st.run, run)
		w := float64(max(status.BatchWidth, 1))
		st.batches += 1 / w
		st.engineBusy += run / w
		for k, v := range coreStatVector(res.Stats) {
			st.core[k] += float64(v) / w
		}
		if tr != nil {
			root := tr.add("jobs.job", parent, id, jt.due, jt.terminal)
			tr.add("loadgen.late", root, id, jt.due, jt.submitted)
			tr.add("jobs.queued", root, id, jt.submitted, jt.compiling)
			tr.add("jobs.compiling", root, id, jt.compiling, jt.running)
			tr.add("jobs.running", root, id, jt.running, jt.terminal)
		}
	}
}

// report writes the jobs.*, loadgen.*, sched.* and core.* metrics. The
// core counters are summed over batches; like everything else here they
// depend on which jobs shared a batch, so they are not drift-checked.
func (st *jobStats) report(s *sample) {
	s.layer["jobs.queue_wait_ms_p50"] = median(st.queueWait)
	s.layer["jobs.queue_wait_ms_p95"] = percentile(st.queueWait, 0.95)
	s.layer["jobs.to_compiling_ms_p50"] = median(st.toCompiling)
	s.layer["jobs.compile_ms_p50"] = median(st.compile)
	s.layer["jobs.run_ms_p50"] = median(st.run)
	s.layer["jobs.batches"] = math.Round(st.batches)
	if st.batches > 0 {
		s.layer["jobs.batch_width_mean"] = float64(len(st.run)) / st.batches
	}
	s.layer["jobs.batched_share"] = ratio(st.registry[jobs.MetricBatched], st.registry[jobs.MetricQueued])
	s.layer["jobs.rejected"] = float64(st.registry[jobs.MetricRejectedQueueFull])
	if st.makespanMs > 0 {
		s.layer["jobs.engine_busy_share"] = st.engineBusy / st.makespanMs
	}
	s.layer["loadgen.late_ms_p95"] = percentile(st.late, 0.95)
	s.layer["loadgen.late_ms_max"] = percentile(st.late, 1)
	s.layer["sched.steals"] = float64(st.registry[obs.SchedSteals])
	s.layer["sched.tasks_stolen"] = float64(st.registry[obs.SchedTasksStolen])
	for k, name := range coreStatNames {
		s.layer[name] = math.Round(st.core[k])
	}
	s.layer["core.aux_reuse_ratio"] = st.core[9] / math.Max(st.core[8]+st.core[9], 1)
}

// addRegistry accumulates a finished server's registry counters.
func (st *jobStats) addRegistry(srv *jobs.Server) {
	if st.registry == nil {
		st.registry = map[string]int64{}
	}
	for k, v := range obs.SnapshotRegistry(srv.Registry()) {
		st.registry[k] += v
	}
}

// planProbe compiles the pool's patterns from outside the server, one plan
// per pattern and one multi-pattern plan over the 4-vertex ones, for the
// plan.* metrics.
func planProbe(s *sample, tr *tracer) error {
	var pats []*pattern.Pattern
	var single, multi time.Duration
	for _, name := range append(append([]string(nil), jobPatterns...), "house") {
		p, err := pattern.ByName(name)
		if err != nil {
			return err
		}
		var pl *plan.Plan
		single += timed(tr, "plan.compile", 0, func() { pl, err = plan.Compile(p, plan.Options{}) })
		if err != nil {
			return err
		}
		s.counters["plan.ops"] += int64(planOps(pl))
		s.counters["plan.aux_specs"] += int64(len(pl.AuxSpecs))
		if p.Size() == 4 {
			pats = append(pats, p)
		}
	}
	var pl *plan.Plan
	var err error
	multi = timed(tr, "plan.compile_multi", 0, func() { pl, err = plan.CompileMulti(pats, plan.Options{}) })
	if err != nil {
		return err
	}
	s.counters["plan.ops"] += int64(planOps(pl))
	s.counters["plan.aux_specs"] += int64(len(pl.AuxSpecs))
	s.layer["plan.compile_ms"] = ms(single)
	s.layer["plan.compile_multi_ms"] = ms(multi)
	s.layer["plan.ops"] = float64(s.counters["plan.ops"])
	s.layer["plan.aux_specs"] = float64(s.counters["plan.aux_specs"])
	return nil
}

// serverConfig is the default job-service configuration plus the graph
// registry and root, with the queue sized to hold a whole burst.
func serverConfig(env *jobsEnv, rec *recorder, queue int) jobs.Config {
	return jobs.Config{Graphs: env.named, GraphDir: env.root, MaxQueue: queue, OnTransition: rec.onTransition}
}

// runJobsBurst measures bursts of 303 jobs from four tenants, all due at
// once, each burst on a fresh server (graph files opened cold), until the
// time is up. ops_per_s is the median burst's jobs finished ÷ (last
// terminal transition − first submit).
func runJobsBurst(cfg config, tr *tracer) (*sample, error) {
	s := newSample()
	s.byKind = map[string][]float64{}
	env, cleanup, err := jobsSetup(cfg, s, tr)
	defer cleanup()
	if err != nil {
		return nil, err
	}
	if err := planProbe(s, tr); err != nil {
		return nil, err
	}
	rounds, house := burstRounds, housePerBurst
	if cfg.tiny {
		rounds, house = 1, 1
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	var st jobStats
	var rates, burstMs []float64
	start := time.Now()
	for more(start, burstMs, cfg.seconds) {
		reqs, err := drawJobs(rng, rounds, house)
		if err != nil {
			return nil, err
		}
		rec := newRecorder(len(reqs))
		// The whole burst is due at once: it queues while the dispatcher
		// is paused, so which jobs share a batch follows from the seeded
		// order and not from a race between this loop and the dispatcher.
		cfgBurst := serverConfig(env, rec, len(reqs))
		cfgBurst.StartPaused = true
		srv := jobs.New(cfgBurst)
		burst := tr.begin("bench.burst", 0)
		t0 := time.Now()
		var ids []string
		var accepted []jobReq
		for _, q := range reqs {
			s.attempted++
			id, err := rec.submit(srv, q, t0, tr, burst)
			if err != nil {
				s.failed++
				s.fail("submitting %s on %s: %v", q.kind.pattern, q.kind.graph, err)
				continue
			}
			ids = append(ids, id)
			accepted = append(accepted, q)
		}
		srv.Resume()
		waitErr := rec.awaitTerminal(len(ids))
		tr.end(burst)
		closeErr := srv.Close(context.Background())
		if waitErr != nil {
			return nil, waitErr
		}
		if closeErr != nil {
			return nil, closeErr
		}
		var last time.Time
		for _, id := range ids {
			if jt := rec.times[id]; jt.terminal.After(last) {
				last = jt.terminal
			}
		}
		span := last.Sub(t0)
		rates = append(rates, float64(len(ids))/span.Seconds())
		burstMs = append(burstMs, ms(time.Since(t0)))
		st.makespanMs += ms(span)
		collect(srv, rec, ids, accepted, env, s, &st, tr, burst)
		st.addRegistry(srv)
	}
	s.opsPerS = median(rates)
	st.late = nil // every burst job is due at once; lateness is a paced measure
	st.report(s)
	return s, nil
}

// runJobsPaced measures an open-loop arrival stream at pacedRate jobs per
// second against one server, enough whole pool rounds to fill the time (12
// rounds, 360 jobs, in 25 s). Latency runs from each job's due time, so a
// late generator shows up in it.
func runJobsPaced(cfg config, tr *tracer) (*sample, error) {
	s := newSample()
	s.byKind = map[string][]float64{}
	env, cleanup, err := jobsSetup(cfg, s, tr)
	defer cleanup()
	if err != nil {
		return nil, err
	}
	if err := planProbe(s, tr); err != nil {
		return nil, err
	}
	rate := pacedRate
	perRound := len(jobGraphs) * len(jobPatterns)
	rounds := max(1, int(cfg.seconds*rate)/perRound)
	if cfg.tiny {
		rate, rounds = 200, 1
	}
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	reqs, err := drawJobs(rng, rounds, 0)
	if err != nil {
		return nil, err
	}
	// Arrivals are evenly spaced: Poisson gaps at this rate let arrival
	// clumps queue behind the 60–90 ms jobs, and the p95 then moved by a
	// quarter or more between seeds.
	due := make([]time.Duration, len(reqs))
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}

	// The generator stands in for clients outside the server's process.
	// With every P busy running engine workers, its timer goroutine waits up
	// to a preemption slice (10 ms) before it can submit, so during the
	// stream the process gets one P more than the engine's workers use.
	workers := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(workers + 1)
	defer runtime.GOMAXPROCS(workers)
	rec := newRecorder(len(reqs))
	scfg := serverConfig(env, rec, len(reqs))
	scfg.DefaultWorkers = workers
	srv := jobs.New(scfg)
	var accepted []string
	var acceptedReqs []jobReq
	t0 := time.Now()
	for i, q := range reqs {
		when := t0.Add(due[i])
		time.Sleep(time.Until(when))
		s.attempted++
		id, err := rec.submit(srv, q, when, tr, 0)
		if err != nil {
			s.failed++
			s.fail("submitting %s on %s: %v", q.kind.pattern, q.kind.graph, err)
			continue
		}
		accepted = append(accepted, id)
		acceptedReqs = append(acceptedReqs, q)
	}
	waitErr := rec.awaitTerminal(len(accepted))
	closeErr := srv.Close(context.Background())
	if waitErr != nil {
		return nil, waitErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	var st jobStats
	var last time.Time
	for _, id := range accepted {
		if jt := rec.times[id]; jt.terminal.After(last) {
			last = jt.terminal
		}
	}
	st.makespanMs = ms(last.Sub(t0))
	s.opsPerS = float64(len(accepted)) / last.Sub(t0).Seconds()
	collect(srv, rec, accepted, acceptedReqs, env, s, &st, tr, 0)
	st.addRegistry(srv)
	st.report(s)
	return s, nil
}
