// Command flexminer mines a pattern in a graph, on the CPU engine or on the
// simulated accelerator.
//
// Usage:
//
//	flexminer -app TC -graph graph.txt
//	flexminer -pattern diamond -graph graph.bin -engine sim -pes 64 -cmap 8192
//	flexminer -app 3-MC -dataset Mi -engine both
//	flexminer -app 5-CL -dataset Or -timeout 2s -stats
//	flexminer -app 4-CL -dataset Lj -kernel merge -stats
//	flexminer -app TC -dataset Mi -engine sim -metrics out.json -trace out.trace.json
//	flexminer -app TC -dataset Mi -engine sim -timeseries out.ts.json -sample-window 4096
//	flexminer -app 3-MC -graph big.bin -mmap
//	flexminer -pattern triangle -graph shards/
//	flexminer serve -addr localhost:8080 -app TC -dataset Mi
//
// Either -graph (a file, or a sharded store directory written by gengraph
// -shards) or -dataset (a built-in Table I stand-in) selects the input; with
// -mmap a binary CSR file is memory-mapped zero-copy instead of loaded onto
// the heap (see README "Large graphs"); either -app (TC, k-CL, SL-4cycle,
// SL-diamond, SL-house, 3-MC, 4-MC) or -pattern (catalog name, edge-induced
// SL) selects the workload. -timeout bounds the run: on expiry the partial
// counts and stats are printed and the command exits nonzero. -kernel pins the CPU engine's set-kernel policy
// (auto/merge/gallop/bitmap) for A/B runs; -aux selects the auxiliary-graph
// pruning layer (off/auto/on, README "Auxiliary-graph pruning"). Neither
// affects -engine sim.
//
// The serve subcommand keeps the process alive as an HTTP service exposing
// /metrics (Prometheus text), /healthz, /debug/progress and /debug/pprof
// while running the workload; see README "Serve mode".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/plan"
	"repro/internal/sim"
)

// options carries every CLI knob through run.
type options struct {
	graphPath, dataset string
	useMmap            bool
	app, patName       string
	induced            bool
	engine             string
	kernel             string
	aux                string
	threads            int
	pes                int
	cmapBytes          int
	slice              int
	timeout            time.Duration
	showPlan, statsOut bool

	metricsPath    string
	tracePath      string
	timeseriesPath string
	sampleWindow   int
	pprofAddr      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "flexminer serve:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.graphPath, "graph", "", "input graph file (edge list, or .bin CSR)")
	flag.StringVar(&o.dataset, "dataset", "", "built-in dataset stand-in (As, Mi, Pa, Yo, Lj, Or)")
	flag.BoolVar(&o.useMmap, "mmap", false, "memory-map the -graph .bin file zero-copy instead of loading it onto the heap")
	flag.StringVar(&o.app, "app", "", "application: TC, 4-CL, 5-CL, SL-4cycle, SL-diamond, SL-house, 3-MC, 4-MC")
	flag.StringVar(&o.patName, "pattern", "", "pattern name for edge-induced subgraph listing")
	flag.BoolVar(&o.induced, "induced", false, "vertex-induced matching for -pattern")
	flag.StringVar(&o.engine, "engine", "cpu", "cpu, sim, or both")
	flag.StringVar(&o.kernel, "kernel", "auto", "CPU set-kernel policy: auto, merge, gallop, bitmap")
	flag.StringVar(&o.aux, "aux", "auto", "CPU auxiliary-graph pruning: off, auto (cost-model gated), on")
	flag.IntVar(&o.threads, "threads", runtime.GOMAXPROCS(0), "CPU engine threads")
	flag.IntVar(&o.pes, "pes", 64, "simulated processing elements")
	flag.IntVar(&o.cmapBytes, "cmap", 8<<10, "simulated c-map bytes (0 disables)")
	flag.IntVar(&o.slice, "slice", 0, "hub-slicing task size in adjacency elements (0 auto, -1 off)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort after this long, printing partial results (0 = no limit)")
	flag.BoolVar(&o.showPlan, "show-plan", false, "print the compiled execution plan IR")
	flag.BoolVar(&o.statsOut, "stats", false, "print engine/simulator statistics")
	flag.StringVar(&o.metricsPath, "metrics", "", "write a metrics JSON artifact (counters + phase timers) to this file")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON artifact to this file")
	flag.StringVar(&o.timeseriesPath, "timeseries", "", "write a flexminer-timeseries/v1 JSON artifact to this file (requires -engine sim or both)")
	flag.IntVar(&o.sampleWindow, "sample-window", 4096, "sim-cycle window between -timeseries samples")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "flexminer:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "flexminer: pprof:", err)
			}
		}()
	}
	// Observability artifacts read the virtual clock, so repeated runs write
	// byte-identical files; wall-clock timing stays on stdout only.
	var reg *obs.Registry
	if o.metricsPath != "" {
		reg = obs.NewRegistry(nil)
	}
	var tracer *obs.Tracer
	if o.tracePath != "" {
		tracer = obs.NewTracer(nil, 0)
	}
	var sampler *obs.Sampler
	if o.timeseriesPath != "" {
		if o.engine != "sim" && o.engine != "both" {
			return fmt.Errorf("-timeseries samples on sim cycles; it requires -engine sim or both")
		}
		sampler = obs.NewSampler(int64(o.sampleWindow))
	}
	defer func() {
		// Written in a defer so timeout partial-result paths still produce
		// their artifacts.
		if err := writeArtifacts(o, reg, tracer, sampler); err != nil {
			fmt.Fprintln(os.Stderr, "flexminer:", err)
		}
	}()

	endLoad := phase(reg, "load")
	g, closeG, err := loadInput(o.graphPath, o.dataset, o.useMmap)
	endLoad()
	if err != nil {
		return err
	}
	defer closeG()
	fmt.Printf("graph: %s\n", graph.ComputeStats(inputName(o.graphPath, o.dataset), g))

	endPlan := phase(reg, "plan")
	pl, mineG, err := buildPlan(g, o.app, o.patName, o.induced)
	endPlan()
	if err != nil {
		return err
	}
	if o.showPlan {
		fmt.Println(pl)
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	runCPU := o.engine == "cpu" || o.engine == "both"
	runSim := o.engine == "sim" || o.engine == "both"
	if !runCPU && !runSim {
		return fmt.Errorf("unknown engine %q (want cpu, sim, or both)", o.engine)
	}
	if runCPU {
		kernel, err := core.ParseKernelPolicy(o.kernel)
		if err != nil {
			return err
		}
		aux, err := core.ParseAuxMode(o.aux)
		if err != nil {
			return err
		}
		start := time.Now()
		endBuild := phase(reg, "build-index")
		eng, err := core.NewEngine(mineG, pl, core.Options{
			Threads: o.threads, SliceElems: o.slice, Kernel: kernel, AuxGraph: aux, Trace: tracer,
		})
		endBuild()
		if err != nil {
			return err
		}
		endMine := phase(reg, "mine")
		res, err := eng.MineContext(ctx)
		endMine()
		registerResult(reg, "cpu", res.Counts, &res.Stats)
		if timedOut(err) {
			fmt.Printf("cpu engine (%d threads, %s kernels): PARTIAL after %v (timeout): %s\n",
				o.threads, kernel, time.Since(start), formatCounts(pl, res.Counts))
			printCPUStats(res.Stats)
			return fmt.Errorf("cpu engine: %w", err)
		}
		if err != nil {
			return err
		}
		fmt.Printf("cpu engine (%d threads, %s kernels): %s in %v\n",
			o.threads, kernel, formatCounts(pl, res.Counts), time.Since(start))
		if o.statsOut {
			printCPUStats(res.Stats)
		}
	}
	if runSim {
		simG, ok := mineG.(*graph.Graph)
		if !ok {
			return fmt.Errorf("-engine sim runs on an in-heap graph; mapped and sharded stores are CPU-engine-only (drop -mmap, or point -graph at the original file)")
		}
		cfg := sim.DefaultConfig().WithPEs(o.pes).WithCMapBytes(o.cmapBytes)
		if o.slice > 0 {
			cfg.TaskSliceElems = o.slice
		}
		cfg.Trace = tracer
		cfg.Sample = sampler
		endSim := phase(reg, "simulate")
		res, err := sim.SimulateContext(ctx, simG, pl, cfg)
		endSim()
		registerResult(reg, "sim", res.Counts, &res.Stats)
		if timedOut(err) {
			fmt.Printf("accelerator (%d PEs, %s c-map): PARTIAL (timeout): %s after %d simulated cycles\n",
				o.pes, cmapLabel(o.cmapBytes), formatCounts(pl, res.Counts), res.Stats.Cycles)
			printSimStats(res.Stats)
			return fmt.Errorf("accelerator: %w", err)
		}
		if err != nil {
			return err
		}
		fmt.Printf("accelerator (%d PEs, %s c-map): %s in %d cycles = %.6fs @%.1fGHz\n",
			o.pes, cmapLabel(o.cmapBytes), formatCounts(pl, res.Counts),
			res.Stats.Cycles, res.Stats.Seconds, cfg.FreqGHz)
		if o.statsOut {
			printSimStats(res.Stats)
		}
	}
	return nil
}

// timedOut reports whether the error is a context deadline/cancellation —
// the "print partials, exit nonzero" path.
func timedOut(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// phase opens a named phase timer on reg, tolerating a nil (disabled)
// registry.
func phase(reg *obs.Registry, name string) func() {
	if reg == nil {
		return func() {}
	}
	return reg.StartPhase(name)
}

// registerResult records an engine run's counts and schedule-invariant stats
// under the given prefix (wall-clock float fields are skipped by AddStats).
func registerResult(reg *obs.Registry, prefix string, counts []int64, stats any) {
	if reg == nil {
		return
	}
	for i, c := range counts {
		reg.Set(fmt.Sprintf("%s.count.%d", prefix, i), c)
	}
	obs.AddStats(reg, prefix, stats)
}

// writeArtifacts flushes the metrics, trace and timeseries files requested on
// the command line; the trace also gets a text digest on stdout when -stats
// is set.
func writeArtifacts(o options, reg *obs.Registry, tr *obs.Tracer, sp *obs.Sampler) error {
	if reg != nil {
		f, err := os.Create(o.metricsPath)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if tr.Enabled() {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if o.statsOut {
			if err := tr.WriteSummary(os.Stdout); err != nil {
				return err
			}
		}
	}
	if sp.Enabled() {
		f, err := os.Create(o.timeseriesPath)
		if err != nil {
			return err
		}
		if err := sp.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func printCPUStats(s core.Stats) {
	fmt.Printf("  tasks=%d extensions=%d candidates=%d setop-iters=%d frontier-reuses=%d\n",
		s.Tasks, s.Extensions, s.Candidates, s.SetOpIterations, s.FrontierReuses)
	// Per-kernel attribution, so -kernel A/B runs are comparable: merge work
	// is setop-iters above; the rest of the set-op work shows up here.
	fmt.Printf("  gallop-probes=%d bitmap-probes=%d leaf-count-skips=%d\n",
		s.GallopProbes, s.BitmapProbes, s.LeafCountsSkippedMaterialize)
	if s.AuxBuilt+s.AuxReused+s.AuxSkippedCostModel > 0 {
		fmt.Printf("  aux-built=%d aux-reused=%d aux-bytes-peak=%d aux-cost-skips=%d\n",
			s.AuxBuilt, s.AuxReused, s.AuxBytesPeak, s.AuxSkippedCostModel)
	}
}

func printSimStats(s sim.Stats) {
	fmt.Printf("  util=%.2f noc=%d dram=%d l1miss=%d l2miss=%d siu=%d sdu=%d cmap-reads=%.0f%%\n",
		s.Utilization, s.NoCRequests, s.DRAMAccesses, s.L1Misses, s.L2Misses,
		s.SIUIters, s.SDUIters, s.CMap.ReadRatio()*100)
}

// loadInput resolves the input store. A -graph path that names a sharded
// store directory (manifest.json) opens mmap-backed shards; -mmap maps a
// binary CSR file zero-copy instead of reading it onto the heap. The returned
// closer (never nil) releases any mappings.
func loadInput(graphPath, dataset string, useMmap bool) (graph.Store, func() error, error) {
	noop := func() error { return nil }
	switch {
	case graphPath != "" && dataset != "":
		return nil, noop, fmt.Errorf("-graph and -dataset are mutually exclusive")
	case graphPath != "":
		if graph.IsShardedDir(graphPath) {
			s, err := graph.OpenSharded(graphPath)
			if err != nil {
				return nil, noop, err
			}
			return s, s.Close, nil
		}
		if useMmap {
			m, err := graph.OpenMapped(graphPath)
			if err != nil {
				return nil, noop, err
			}
			return m, m.Close, nil
		}
		g, err := graph.Load(graphPath)
		return g, noop, err
	case dataset != "":
		if useMmap {
			return nil, noop, fmt.Errorf("-mmap maps a file; it cannot apply to the generated -dataset stand-ins")
		}
		g, err := bench.Get(dataset)
		return g, noop, err
	default:
		return nil, noop, fmt.Errorf("one of -graph or -dataset is required")
	}
}

func inputName(graphPath, dataset string) string {
	if dataset != "" {
		return dataset
	}
	return graphPath
}

// buildPlan compiles the requested workload (apps resolve through the
// experiment harness's table, bench.PlanForApp) and returns the store the
// plan must run on. Clique apps mine the degree-oriented DAG: an input that
// is already a DAG (gengraph -orient) is used as-is; a symmetric in-heap
// graph is oriented on the fly; a symmetric mapped or sharded store cannot
// be — the mapping is read-only, so the orientation must happen at
// generation time.
func buildPlan(g graph.Store, app, patName string, induced bool) (*plan.Plan, graph.Store, error) {
	switch {
	case app != "" && patName != "":
		return nil, nil, fmt.Errorf("-app and -pattern are mutually exclusive")
	case app != "":
		pl, needsDAG, err := bench.PlanForApp(app)
		if err != nil {
			return nil, nil, err
		}
		if !needsDAG || g.IsDAG() {
			return pl, g, nil
		}
		hg, ok := g.(*graph.Graph)
		if !ok {
			return nil, nil, fmt.Errorf("clique apps mine a degree-oriented DAG, and a mapped or sharded store is read-only; regenerate the input with `gengraph -orient` (or `gengraph shard -orient`), or drop -mmap to orient in memory")
		}
		return pl, hg.Orient(), nil
	case patName != "":
		p, err := pattern.ByName(patName)
		if err != nil {
			return nil, nil, err
		}
		pl, err := plan.Compile(p, plan.Options{Induced: induced})
		return pl, g, err
	default:
		return nil, nil, fmt.Errorf("one of -app or -pattern is required")
	}
}

func formatCounts(pl *plan.Plan, counts []int64) string {
	if len(counts) == 1 {
		return fmt.Sprintf("%s = %d", pl.Patterns[0].Name(), counts[0])
	}
	out := ""
	for i, c := range counts {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d", pl.Patterns[i].Name(), c)
	}
	return out
}

func cmapLabel(b int) string {
	if b == 0 {
		return "no"
	}
	return fmt.Sprintf("%dB", b)
}
