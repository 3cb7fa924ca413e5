package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/setops"
)

// ljGraph generates the Lj stand-in (RMAT, scale 12, 34,000 edges) under the
// workload seed; tiny scale shrinks it for the self-test.
func ljGraph(cfg config) *graph.Graph {
	if cfg.tiny {
		return graph.RMAT(8, 1200, 0.57, 0.19, 0.19, genSeed(0x17, cfg.seed))
	}
	return graph.RMAT(12, 34000, 0.57, 0.19, 0.19, genSeed(0x17, cfg.seed))
}

func csrBytes(g *graph.Graph) int64 { return int64(len(g.Row))*8 + int64(len(g.Col))*4 }

// runCensus measures the vertex-induced 3- and 4-motif census on the Lj
// stand-in with the CPU engine's default options. Its outputs are checked
// against two degree identities that hold for every graph.
func runCensus(cfg config, tr *tracer) (*sample, error) {
	s := newSample()
	var g *graph.Graph
	for i := 0; i < setupReps; i++ {
		id := tr.begin("bench.setup", 0)
		t := time.Now()
		var gen, hub time.Duration
		gen = timed(tr, "graph.gen", id, func() { g = ljGraph(cfg) })
		// The hub-bitmap index is built once per graph and reused by every
		// engine, so it is set-up work, as in a server holding the graph.
		hub = timed(tr, "graph.hub_index", id, func() { g.EnsureHubIndex(0) })
		s.setupS = append(s.setupS, time.Since(t).Seconds())
		tr.end(id)
		s.layer["graph.gen_ms"] = ms(gen)
		s.layer["graph.hub_index_ms"] = ms(hub)
	}
	s.layer["graph.csr_bytes"] = float64(csrBytes(g))
	s.counters["graph.csr_bytes"] = csrBytes(g)
	kernelMicro(g, cfg.seed, s, tr)

	hooks, sh := schedProbe(tr)
	var compile, newEngine, mine time.Duration
	var first map[string]int64
	start := time.Now()
	for more(start, s.opMs, cfg.seconds) {
		pass := tr.begin("bench.pass", 0)
		t := time.Now()
		var pats []*pattern.Pattern
		var counts []int64
		counters := map[string]int64{}
		var work [len(coreStatNames)]int64
		for _, k := range []int{3, 4} {
			var pl *plan.Plan
			var err error
			compile += timed(tr, "plan.compile_motifs", pass, func() { pl, err = plan.CompileMotifs(k, plan.Options{}) })
			if err != nil {
				return nil, err
			}
			var eng *core.Engine
			newEngine += timed(tr, "core.new_engine", pass, func() {
				eng, err = core.NewEngine(g, pl, core.Options{SchedHooks: hooks})
			})
			if err != nil {
				return nil, err
			}
			var res core.Result
			sh.beginRun()
			mine += timed(tr, "core.mine", pass, func() { res = eng.Mine() })
			sh.endRun()
			for i, v := range coreStatVector(res.Stats) {
				work[i] += v
			}
			counters["plan.ops"] += int64(planOps(pl))
			counters["plan.aux_specs"] += int64(len(pl.AuxSpecs))
			pats = append(pats, pl.Patterns...)
			counts = append(counts, res.Counts...)
			for i, c := range res.Counts {
				counters[fmt.Sprintf("count.%d-motif.%d", k, i)] = c
			}
		}
		s.opMs = append(s.opMs, ms(time.Since(t)))
		tr.end(pass)
		s.attempted++
		if msg := checkCensus(g, pats, counts, cfg.corruptReference); msg != "" {
			s.failed++
			s.fail("census pass %d: %s", len(s.opMs), msg)
		}
		for i, name := range coreStatNames {
			counters[name] = work[i]
		}
		if first == nil {
			first = counters
		} else {
			s.wrong = append(s.wrong, driftBetween(fmt.Sprintf("census passes 1 and %d", len(s.opMs)), first, counters)...)
		}
	}
	elapsed := time.Since(start)
	passes := float64(len(s.opMs))
	s.opsPerS = passes / elapsed.Seconds()
	for k, v := range first {
		s.counters[k] = v
		s.layer[k] = float64(v)
	}
	s.layer["plan.compile_ms"] = ms(compile) / passes
	s.layer["core.new_engine_ms"] = ms(newEngine) / passes
	s.layer["core.mine_ms"] = ms(mine) / passes
	s.layer["core.ns_per_extension"] = float64(mine.Nanoseconds()) / passes / float64(max(first["core.extensions"], 1))
	s.layer["core.aux_reuse_ratio"] = ratio(first["core.aux_reused"], first["core.aux_built"]+first["core.aux_reused"])
	sh.report(s, passes)
	return s, nil
}

// checkCensus verifies the census against two identities on the degree
// sequence, with counts of the vertex-induced motifs:
//
//	Σ C(d,2) = wedge + 3·triangle
//	Σ C(d,3) = 4-star + tailed-triangle + 2·diamond + 4·4-clique
//
// Each side counts the same objects (paths of length two, and stars with
// three leaves) by the induced subgraph they span.
func checkCensus(g *graph.Graph, pats []*pattern.Pattern, counts []int64, corrupt bool) string {
	find := func(want *pattern.Pattern) int64 {
		for i, p := range pats {
			if p.IsIsomorphic(want) {
				return counts[i]
			}
		}
		return -1
	}
	wedge, tri := find(pattern.Wedge()), find(pattern.KClique(3))
	star, tailed := find(pattern.KStar(4)), find(pattern.TailedTriangle())
	diamond, clique := find(pattern.Diamond()), find(pattern.KClique(4))
	if corrupt {
		tri++
	}
	var pairs, triples int64
	for v := 0; v < g.NumVertices(); v++ {
		d := int64(g.Degree(graph.VID(v)))
		pairs += d * (d - 1) / 2
		triples += d * (d - 1) * (d - 2) / 6
	}
	if got := wedge + 3*tri; got != pairs {
		return fmt.Sprintf("wedge + 3·triangle = %d, want Σ C(d,2) = %d", got, pairs)
	}
	if got := star + tailed + 2*diamond + 4*clique; got != triples {
		return fmt.Sprintf("4-star + tailed-triangle + 2·diamond + 4·4-clique = %d, want Σ C(d,3) = %d", got, triples)
	}
	return ""
}

// planOps counts the vertex ops in a plan's tree.
func planOps(pl *plan.Plan) int {
	var walk func(n *plan.Node) int
	walk = func(n *plan.Node) int {
		c := 1
		for _, ch := range n.Children {
			c += walk(ch)
		}
		return c
	}
	return walk(pl.Root)
}

// coreStatNames are the metric names of the engine's work counters, in
// coreStatVector's order.
var coreStatNames = [...]string{"core.tasks", "core.extensions", "core.candidates", "core.set_op_iterations",
	"core.gallop_probes", "core.bitmap_probes", "core.frontier_reuses", "core.leaf_count_skips",
	"core.aux_built", "core.aux_reused"}

func coreStatVector(c core.Stats) [len(coreStatNames)]int64 {
	return [...]int64{c.Tasks, c.Extensions, c.Candidates, c.SetOpIterations, c.GallopProbes,
		c.BitmapProbes, c.FrontierReuses, c.LeafCountsSkippedMaterialize, c.AuxBuilt, c.AuxReused}
}

// schedStats observes the work-stealing scheduler through core.Options'
// SchedHooks: steals, tasks per worker, and each worker's last task
// completion per Mine call.
type schedStats struct {
	steals, stolen atomic.Int64
	tasks          []atomic.Int64
	last           []atomic.Int64 // ns since run start of each worker's last task
	runStart       time.Time
	tailNs         int64
}

// schedProbe returns the hooks to install (none when tracing is off) and
// the probe that accumulates what they see.
func schedProbe(tr *tracer) (sched.Hooks, *schedStats) {
	if tr == nil {
		return sched.Hooks{}, nil
	}
	n := runtime.GOMAXPROCS(0)
	sh := &schedStats{tasks: make([]atomic.Int64, n), last: make([]atomic.Int64, n)}
	return sched.Hooks{
		OnSteal: func(_, _, ntasks int) {
			sh.steals.Add(1)
			sh.stolen.Add(int64(ntasks))
		},
		OnTask: func(w int, _ sched.Task) {
			sh.tasks[w].Add(1)
			sh.last[w].Store(time.Since(sh.runStart).Nanoseconds())
		},
	}, sh
}

func (sh *schedStats) beginRun() {
	if sh == nil {
		return
	}
	for i := range sh.last {
		sh.last[i].Store(-1)
	}
	sh.runStart = time.Now()
}

// endRun adds the spread of the workers' last task completions to the tail.
func (sh *schedStats) endRun() {
	if sh == nil {
		return
	}
	lo, hi := int64(-1), int64(-1)
	for i := range sh.last {
		v := sh.last[i].Load()
		if v < 0 {
			continue
		}
		if lo < 0 || v < lo {
			lo = v
		}
		hi = max(hi, v)
	}
	if lo >= 0 {
		sh.tailNs += hi - lo
	}
}

// report writes the sched.* metrics, per operation.
func (sh *schedStats) report(s *sample, ops float64) {
	if sh == nil {
		return
	}
	s.layer["sched.steals"] = float64(sh.steals.Load()) / ops
	s.layer["sched.tasks_stolen"] = float64(sh.stolen.Load()) / ops
	s.layer["sched.tail_ms"] = float64(sh.tailNs) / 1e6 / ops
	var total, most int64
	for i := range sh.tasks {
		v := sh.tasks[i].Load()
		total += v
		most = max(most, v)
	}
	if total > 0 {
		s.layer["sched.worker_task_skew"] = float64(most) / (float64(total) / float64(len(sh.tasks)))
	}
}

// sink keeps the kernel results alive so the compiler cannot drop the calls.
var sink int64

// kernelMicro times the set-operation kernels over seeded pairs of
// adjacency lists from the census graph: merge intersection and difference
// per element scanned, galloping intersection per probe, and bitmap
// intersection per bitmap probe.
func kernelMicro(g *graph.Graph, seed uint64, s *sample, tr *tracer) {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := g.NumVertices()
	const pairs = 2000
	as, bs := make([][]graph.VID, pairs), make([][]graph.VID, pairs)
	bms := make([][]uint64, pairs)
	words := setops.BitmapWords(n)
	var elems, gallop, bitmap int64
	for i := range as {
		as[i] = g.Adj(graph.VID(rng.Intn(n)))
		bs[i] = g.Adj(graph.VID(rng.Intn(n)))
		elems += int64(len(as[i]) + len(bs[i]))
		bms[i] = make([]uint64, words)
		for _, x := range bs[i] {
			bms[i][x/64] |= 1 << (x % 64)
		}
		_, c := setops.IntersectGallopingCount(as[i], bs[i], setops.NoBound)
		gallop += c
		_, c = setops.IntersectBitmapCount(as[i], bms[i], setops.NoBound)
		bitmap += c
	}
	// Each kernel repeats over all pairs for at least 20 ms.
	perRep := func(name string, f func(i int) int64) float64 {
		id := tr.begin(name, 0)
		defer tr.end(id)
		reps := 0
		t := time.Now()
		for reps == 0 || time.Since(t) < 20*time.Millisecond {
			for i := range as {
				sink += f(i)
			}
			reps++
		}
		return float64(time.Since(t).Nanoseconds()) / float64(reps)
	}
	inter := perRep("setops.intersect", func(i int) int64 { return setops.IntersectCount(as[i], bs[i], setops.NoBound) })
	diff := perRep("setops.difference", func(i int) int64 { return setops.DifferenceCount(as[i], bs[i], setops.NoBound) })
	gal := perRep("setops.gallop", func(i int) int64 {
		c, _ := setops.IntersectGallopingCount(as[i], bs[i], setops.NoBound)
		return c
	})
	bit := perRep("setops.bitmap", func(i int) int64 {
		c, _ := setops.IntersectBitmapCount(as[i], bms[i], setops.NoBound)
		return c
	})
	s.layer["setops.intersect_ns_per_elem"] = inter / float64(max(elems, 1))
	s.layer["setops.difference_ns_per_elem"] = diff / float64(max(elems, 1))
	s.layer["setops.gallop_ns_per_probe"] = gal / float64(max(gallop, 1))
	s.layer["setops.bitmap_ns_per_probe"] = bit / float64(max(bitmap, 1))
	for k, v := range map[string]int64{"setops.merge_elems": elems, "setops.gallop_probes": gallop, "setops.bitmap_probes": bitmap} {
		s.layer[k] = float64(v)
		s.counters[k] = v
	}
}
