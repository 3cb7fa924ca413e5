// Package core contains the paper's algorithmic core running on the CPU: the
// plan-driven pattern-aware DFS engine (the software baseline FlexMiner is
// compared against — GraphZero [57] with symmetry breaking and frontier
// memoization, or AutoMine [58] when the plan is compiled without symmetry),
// plus the pattern-oblivious ESU engine and a brute-force reference counter
// used as test oracles, and the four GPM applications of §II-A.
package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/setops"
)

// SliceOff disables hub-vertex task slicing (Options.SliceElems).
const SliceOff = -1

// autoSliceElems is the slice width the auto policy picks for parallel
// runs; it matches the accelerator harness (bench.SimConfig) so baseline
// and simulator schedules stay comparable.
const autoSliceElems = 32

// Options configure a mining run.
type Options struct {
	// Threads is the worker count; 0 means GOMAXPROCS. The paper's CPU
	// baseline runs 20 threads.
	Threads int

	// SliceElems controls hub-vertex task slicing (§IV task dispatch): a
	// start vertex whose adjacency exceeds this many elements is split into
	// several independent sub-tasks, so one power-law hub cannot serialize
	// a worker. 0 (the default) picks automatically — slicing at
	// autoSliceElems for parallel runs, none single-threaded; SliceOff
	// disables slicing; any positive value is used as-is. Counts are
	// invariant under slicing; only scheduling (and Stats.Tasks) changes.
	SliceElems int

	// Kernel selects the set-operation kernels (default KernelAuto:
	// input-aware galloping/bitmap/merge selection). Counts are invariant
	// under this policy; only CPU wall-clock and the per-kernel Stats
	// counters change. The simulator ignores it — SIU/SDU cycle accounting
	// is always merge-model (see kernels.go).
	Kernel KernelPolicy

	// AuxGraph enables plan-directed auxiliary graphs (default AuxOff, see
	// aux.go): materialize the pruned adjacency row of a deep op's extender
	// once per shallow activation and substitute it for the full Adj row in
	// every descendant lookup. Counts are invariant under this mode; only
	// CPU wall-clock and the Aux* Stats counters change. The simulator
	// ignores it — cycle accounting never reads the aux directives — and the
	// paper-figure runners pin it off (enforced by the kernelpin analyzer).
	AuxGraph AuxMode

	// Strategy selects between the closed-form motif census and the DFS
	// (default StrategyAuto: complete vertex-induced 3- and 4-motif
	// censuses are answered from degree, triangle and 4-cycle counts, see
	// census.go; every other plan is mined). Counts are invariant under
	// this choice; Stats are not — the solver reports its tasks and scanned
	// elements but no extensions or candidates. The simulator ignores it,
	// and the paper-figure runners pin StrategyDFS (kernelpin analyzer).
	Strategy Strategy

	// Trace, when non-nil, receives scheduler events (task completions,
	// work steals) and per-task kernel-dispatch summaries. Tracing never
	// changes counts, stats, or scheduling — a nil Trace costs each task one
	// pointer test. With >1 threads, event interleaving (and therefore
	// virtual-clock timestamps) is schedule-dependent; byte-stable traces
	// come from the simulator, whose coordinator serializes emission.
	Trace *obs.Tracer

	// SchedHooks observe the work-stealing scheduler (steals, task
	// retirements) during the run — the live-progress feed of serve mode.
	// Callbacks run on worker goroutines and are merged with (fire before)
	// the tracer's own steal instrumentation; like tracing, they must not
	// mutate engine state and never affect counts or stats.
	SchedHooks sched.Hooks

	// OnTaskDone, when non-nil, fires after every completed task with the
	// worker index and the number of raw (pre-divisor) matches the task
	// produced — the partial-count signal behind /debug/progress. It runs
	// on worker goroutines; implementations must be cheap and
	// concurrency-safe (atomics).
	OnTaskDone func(worker int, matches int64)
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats aggregates per-run instrumentation. The three kernel counters
// attribute set-operation work to the kernel that did it, so -kernel A/B
// runs are comparable: SetOpIterations counts only merge-loop iterations
// actually executed (the SIU/SDU work proxy), GallopProbes counts galloping
// element comparisons, and BitmapProbes counts hub-bitmap word probes.
//
// A closed-form census run (Options.Strategy) reports Tasks and, as
// SetOpIterations, the adjacency elements its own intersections scanned;
// the DFS-only counters stay zero.
type Stats struct {
	Tasks           int64 // scheduled tasks executed (sub-tasks when slicing)
	Extensions      int64 // vertices pushed onto ancestor stacks
	Candidates      int64 // candidates emitted after pruning
	SetOpIterations int64 // merge-loop iterations (SIU/SDU work proxy)
	GallopProbes    int64 // galloping-kernel element comparisons
	BitmapProbes    int64 // hub-bitmap word probes
	FrontierReuses  int64 // candidate lists built from a memoized frontier

	// LeafCountsSkippedMaterialize counts leaf evaluations that produced
	// their count via a counting kernel without materializing the
	// candidate list (the count-only leaf optimization).
	LeafCountsSkippedMaterialize int64

	// Auxiliary-graph counters (Options.AuxGraph, aux.go): rows
	// materialized into the arena, lookups served from a live row, and
	// activations the auto cost model declined.
	AuxBuilt            int64
	AuxReused           int64
	AuxSkippedCostModel int64

	// AuxBytesPeak is the largest number of live auxiliary-row bytes any
	// single task reached. Workers run tasks concurrently, so peaks merge by
	// max, not sum — a sum would depend on which worker ran which task.
	AuxBytesPeak int64
}

func (s *Stats) add(o *Stats) {
	s.Tasks += o.Tasks
	s.Extensions += o.Extensions
	s.Candidates += o.Candidates
	s.SetOpIterations += o.SetOpIterations
	s.GallopProbes += o.GallopProbes
	s.BitmapProbes += o.BitmapProbes
	s.FrontierReuses += o.FrontierReuses
	s.LeafCountsSkippedMaterialize += o.LeafCountsSkippedMaterialize
	s.AuxBuilt += o.AuxBuilt
	s.AuxReused += o.AuxReused
	s.AuxSkippedCostModel += o.AuxSkippedCostModel
	if o.AuxBytesPeak > s.AuxBytesPeak {
		s.AuxBytesPeak = o.AuxBytesPeak
	}
}

// Result is the outcome of a mining run: one count per plan pattern.
type Result struct {
	Counts []int64
	Stats  Stats
}

// Count returns the single-pattern count, or 0 when the run produced no
// counts (a cancelled run, or an empty multi-pattern plan).
func (r Result) Count() int64 {
	if len(r.Counts) == 0 {
		return 0
	}
	return r.Counts[0]
}

// Engine mines a graph according to a compiled plan.
type Engine struct {
	g  graph.Store
	pl *plan.Plan
	o  Options

	// census is set when Mine answers the plan in closed form (census.go).
	census *censusPlan
}

// NewEngine validates the plan/graph pairing and returns an engine. Under a
// bitmap-capable kernel policy this also builds (or reuses) the graph's
// hub-adjacency bitmap index, so the one-time build cost is paid at engine
// construction, not inside the mining hot path.
func NewEngine(g graph.Store, pl *plan.Plan, o Options) (*Engine, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if pl.RequiresDAG && !g.IsDAG() {
		return nil, fmt.Errorf("core: plan %q requires an oriented DAG input (use graph.Orient)", pl.Patterns[0].Name())
	}
	if !pl.RequiresDAG && g.IsDAG() {
		return nil, fmt.Errorf("core: plan %q requires a symmetric graph, got a DAG", pl.Patterns[0].Name())
	}
	o = o.withDefaults()
	e := &Engine{g: g, pl: pl, o: o}
	if o.Strategy == StrategyAuto {
		if k, motif, ok := pl.MotifCensus(); ok {
			e.census = &censusPlan{k: k, motif: motif}
			return e, nil // the solver never probes hub bitmaps
		}
	}
	hubIndexFor(g, o)
	return e, nil
}

// hubIndexFor resolves the hub-bitmap index the options call for: nil when
// the policy never probes bitmaps or the store cannot host one; otherwise the
// store's shared (lazily built) index over its graph.DefaultHubBitmaps
// highest-degree vertices.
// All built-in backends implement graph.HubIndexer with one shared build
// routine, so engine statistics stay invariant across storage backends.
func hubIndexFor(g graph.Store, o Options) *graph.HubIndex {
	if o.Kernel != KernelAuto && o.Kernel != KernelBitmap {
		return nil
	}
	hi, ok := g.(graph.HubIndexer)
	if !ok {
		return nil
	}
	return hi.EnsureHubIndex(graph.DefaultHubBitmaps)
}

// sliceElems resolves the slicing policy against the engine's input graph.
func (e *Engine) sliceElems() int {
	switch {
	case e.o.SliceElems > 0:
		return e.o.SliceElems
	case e.o.SliceElems < 0:
		return 0
	}
	// Auto: a lone worker gains nothing from sub-vertex tasks, and slicing
	// only matters when hubs exist at all.
	if e.o.Threads <= 1 || e.g.MaxDegree() <= autoSliceElems {
		return 0
	}
	return autoSliceElems
}

// TaskCount reports how many scheduler tasks a Mine call will dispatch under
// the engine's slicing policy (one per vertex for a closed-form census) —
// serve mode uses it to size the /debug/progress denominator before the run
// starts.
func (e *Engine) TaskCount() int {
	if e.census != nil {
		return e.g.NumVertices()
	}
	return len(sched.Expand(e.g, e.sliceElems()))
}

// workerCount clamps the configured thread count to the task count.
func (e *Engine) workerCount(tasks int) int {
	threads := e.o.Threads
	if threads > tasks && tasks > 0 {
		threads = tasks
	}
	return max(threads, 1)
}

// schedule drains tasks over threads workers with the work-stealing
// scheduler — shard-local placement on sharded stores — feeding the
// configured SchedHooks and, when tracing, steal events.
func (e *Engine) schedule(ctx context.Context, threads int, tasks []sched.Task, run func(worker int, t sched.Task) bool) error {
	hooks := e.o.SchedHooks
	if tr := e.o.Trace; tr.Enabled() {
		prev := hooks.OnSteal
		hooks.OnSteal = func(thief, victim, ntasks int) {
			if prev != nil {
				prev(thief, victim, ntasks)
			}
			tr.Emit(obs.CatSched, "steal", thief, 0,
				obs.Arg{Key: "victim", Val: int64(victim)},
				obs.Arg{Key: "tasks", Val: int64(ntasks)})
		}
	}
	if sm, ok := e.g.(sched.ShardMap); ok && sm.NumShards() > 1 {
		// Sharded store: seed each root task onto the worker group bound to
		// its start vertex's shard so a task's first adjacency read stays in
		// local pages, and steal cross-group only as a last resort. Counts
		// and Stats are placement-invariant; only steal traffic changes.
		return sched.RunSharded(ctx, threads, tasks,
			sched.ShardOptions{Map: sm}, run, hooks)
	}
	return sched.RunHooked(ctx, threads, tasks, run, hooks)
}

// Mine runs the parallel DFS over all start vertices (or the closed-form
// census, see Options.Strategy) and returns per-pattern counts. It is
// MineContext without cancellation; a census whose counts overflow int64
// returns no counts (MineContext reports ErrCountOverflow).
func (e *Engine) Mine() Result {
	r, _ := e.mine(context.Background(), nil)
	return r
}

// MineContext is Mine under a context: the run stops promptly once ctx is
// cancelled or its deadline passes, returning the partial counts and stats
// accumulated so far together with ctx's error. A cancelled closed-form
// census has no partial counts: it returns its partial Stats only.
func (e *Engine) MineContext(ctx context.Context) (Result, error) {
	return e.mine(ctx, nil)
}

// mine is the shared execution path of Mine, MineContext, List and
// ListContext: expand the vertex set into (possibly hub-sliced) tasks, seed
// them degree-descending, and drain them with the work-stealing scheduler.
// Census plans without a visitor go to the closed-form solver instead.
func (e *Engine) mine(ctx context.Context, visit Visitor) (Result, error) {
	if e.census != nil && visit == nil {
		return e.solveCensus(ctx)
	}
	tasks := sched.Expand(e.g, e.sliceElems())
	sched.OrderByDegreeDesc(e.g, tasks)
	threads := e.workerCount(len(tasks))
	workers := make([]*worker, threads)
	for t := range workers {
		workers[t] = newWorker(e.g, e.pl, e.o)
		workers[t].visit = visit
		workers[t].ctxDone = ctx.Done()
		workers[t].widx = t
	}
	onDone := e.o.OnTaskDone
	run := func(t int, task sched.Task) bool {
		w := workers[t]
		if onDone == nil {
			return w.runTask(task)
		}
		var before int64
		for _, c := range w.counts {
			before += c
		}
		ok := w.runTask(task)
		var after int64
		for _, c := range w.counts {
			after += c
		}
		onDone(t, after-before)
		return ok
	}
	err := e.schedule(ctx, threads, tasks, run)
	total := Result{Counts: make([]int64, len(e.pl.Patterns))}
	for _, w := range workers {
		for i, c := range w.counts {
			total.Counts[i] += c
		}
		total.Stats.add(&w.stats)
	}
	for i := range total.Counts {
		total.Counts[i] /= e.pl.CountDivisor[i]
	}
	return total, err
}

// Mine is the convenience one-shot: build an engine and run it. Its error
// is a construction error or ErrCountOverflow.
func Mine(g graph.Store, pl *plan.Plan, o Options) (Result, error) {
	e, err := NewEngine(g, pl, o)
	if err != nil {
		return Result{}, err
	}
	return e.mine(context.Background(), nil)
}

// MineContext is the one-shot with cancellation/deadline support; on ctx
// expiry it returns the partial counts mined so far plus ctx's error.
func MineContext(ctx context.Context, g graph.Store, pl *plan.Plan, o Options) (Result, error) {
	e, err := NewEngine(g, pl, o)
	if err != nil {
		return Result{}, err
	}
	return e.MineContext(ctx)
}

// worker holds the per-thread DFS state: the ancestor stack, per-level
// candidate buffers (which double as memoized frontiers), and the set-op
// scratch.
type worker struct {
	g  graph.Store
	pl *plan.Plan
	o  Options

	emb    []graph.VID   // ancestor stack
	levels [][]graph.VID // per-level candidate buffers / frontiers
	mergeA []graph.VID   // ping-pong scratch for chained set operations
	mergeB []graph.VID
	hub    *graph.HubIndex // shared hub-adjacency bitmaps (nil if unused)

	// Auxiliary-graph runtime (aux.go): one pooled state per plan.AuxSpec
	// (nil when the mode or plan disable the layer), the static cost gate,
	// and the live-row byte ledger behind Stats.AuxBytesPeak.
	aux     []auxState
	auxGate []bool
	auxLive int64

	// sliceLo/sliceHi restrict the current task's level-1 adjacency range
	// (hub slicing; sliceHi < 0 means unrestricted).
	sliceLo, sliceHi int

	counts []int64
	stats  Stats

	// trace receives this worker's per-task events (nil when disabled);
	// widx is the worker index used as the trace thread id.
	trace *obs.Tracer
	widx  int

	// Cooperative cancellation: ctxDone is polled every cancelPollPeriod
	// extensions; once it fires, stopped short-circuits the DFS.
	ctxDone    <-chan struct{}
	stopped    bool
	cancelPoll uint

	// visit, when set, is invoked once per full match instead of bulk
	// leaf counting (see List).
	visit Visitor
}

// cancelPollPeriod spaces the cancellation polls (a power of two): frequent
// enough to abandon a hub subtree within microseconds, rare enough to stay
// off the extension hot path.
const cancelPollPeriod = 1 << 10

// cancelled polls the run's cancellation signal at most once per
// cancelPollPeriod calls and latches the result into w.stopped.
//
//flexlint:noalloc
func (w *worker) cancelled() bool {
	if w.stopped {
		return true
	}
	if w.cancelPoll++; w.cancelPoll&(cancelPollPeriod-1) != 0 || w.ctxDone == nil {
		return false
	}
	select {
	case <-w.ctxDone:
		w.stopped = true
	default:
	}
	return w.stopped
}

func newWorker(g graph.Store, pl *plan.Plan, o Options) *worker {
	w := &worker{
		g:      g,
		pl:     pl,
		o:      o,
		emb:    make([]graph.VID, pl.K),
		levels: make([][]graph.VID, pl.K),
		hub:    hubIndexFor(g, o),
		counts: make([]int64, len(pl.Patterns)),
		trace:  o.Trace,
	}
	for i := range w.levels {
		w.levels[i] = make([]graph.VID, 0, g.MaxDegree())
	}
	// Pre-size the chained-merge scratch to the largest possible operand so
	// the first hub task doesn't regrow it inside the DFS hot path.
	w.mergeA = make([]graph.VID, 0, g.MaxDegree())
	w.mergeB = make([]graph.VID, 0, g.MaxDegree())
	w.aux, w.auxGate = newAuxStates(g, pl, o)
	return w
}

// runTask explores the subtree rooted at the task's start vertex (restricted
// to its level-1 adjacency slice when the task is a hub sub-task) and reports
// whether the worker may continue (false once cancellation latched).
//
//flexlint:noalloc
func (w *worker) runTask(t sched.Task) bool {
	var before Stats
	if w.trace.Enabled() {
		before = w.stats
	}
	w.stats.Tasks++
	root := w.pl.Root
	w.emb[0] = t.V0
	w.sliceLo, w.sliceHi = t.Lo, t.Hi
	w.stats.Extensions++
	w.auxActivate(root.Op)
	for _, c := range root.Children {
		w.walk(c, 1)
	}
	w.auxRelease(root.Op)
	if w.trace.Enabled() {
		w.emitTaskTrace(t, &before)
	}
	return !w.stopped
}

// emitTaskTrace records the finished task and its kernel-dispatch summary:
// one sched event per task, plus one kernel event attributing the task's
// set-operation work to the kernels that executed it (the delta of the
// per-kernel Stats counters across the task).
func (w *worker) emitTaskTrace(t sched.Task, before *Stats) {
	w.trace.Emit(obs.CatSched, "task", w.widx, 0,
		obs.Arg{Key: "v0", Val: int64(t.V0)},
		obs.Arg{Key: "extensions", Val: w.stats.Extensions - before.Extensions},
		obs.Arg{Key: "candidates", Val: w.stats.Candidates - before.Candidates})
	w.trace.Emit(obs.CatKernel, "dispatch", w.widx, 0,
		obs.Arg{Key: "merge_iters", Val: w.stats.SetOpIterations - before.SetOpIterations},
		obs.Arg{Key: "gallop_probes", Val: w.stats.GallopProbes - before.GallopProbes},
		obs.Arg{Key: "bitmap_probes", Val: w.stats.BitmapProbes - before.BitmapProbes})
}

// walk matches the vertex for node n at the given depth and recurses.
//
//flexlint:noalloc
func (w *worker) walk(n *plan.Node, depth int) {
	if w.stopped {
		return
	}
	if n.IsLeaf() && w.visit == nil && !n.Op.MemoizeFrontier {
		// Count-only leaf: nothing below this level reads the candidate
		// list, so compute its size with a counting kernel instead of
		// materializing w.levels[depth] just to take the length.
		cnt := w.leafCount(n.Op, depth)
		w.stats.Candidates += cnt
		w.stats.LeafCountsSkippedMaterialize++
		w.counts[n.PatternIdx] += cnt
		return
	}
	cands := w.candidates(n.Op, depth)
	w.stats.Candidates += int64(len(cands))
	if n.IsLeaf() {
		w.counts[n.PatternIdx] += int64(len(cands))
		if w.visit != nil {
			for _, v := range cands {
				w.emb[depth] = v
				w.visit(w.emb[:depth+1], n.PatternIdx)
			}
		}
		return
	}
	for _, v := range cands {
		if w.cancelled() {
			return
		}
		w.emb[depth] = v
		w.stats.Extensions++
		w.auxActivate(n.Op)
		for _, c := range n.Children {
			w.walk(c, depth+1)
		}
		w.auxRelease(n.Op)
	}
}

// bound returns the effective ID upper bound: the minimum over the op's
// symmetry-order bounds, or NoBound.
//
//flexlint:noalloc
func (w *worker) bound(op plan.VertexOp) graph.VID {
	b := setops.NoBound
	for _, idx := range op.UpperBounds {
		if v := w.emb[idx]; v < b {
			b = v
		}
	}
	return b
}

// candidates computes the qualified candidate list for op into the per-level
// buffer, applying (in order) the frontier/adjacency base, the symmetry
// bound, the chained connectivity set operations and explicit distinctness
// checks.
//
//flexlint:noalloc
func (w *worker) candidates(op plan.VertexOp, depth int) []graph.VID {
	bound := w.bound(op)
	base, intersect, difference := w.baseFor(op, depth, bound)
	out := w.levels[depth][:0]
	for _, v := range w.chain(base, intersect, difference, bound) {
		if w.distinct(v, op) {
			out = append(out, v)
		}
	}
	w.levels[depth] = out
	return out
}

// baseFor resolves op's starting candidate set under bound — a memoized
// frontier or the extender's (possibly hub-sliced) adjacency — together with
// the residual intersect/difference source levels. Shared by the
// materializing (candidates) and count-only (leafCount) paths so both see
// identical inputs.
//
//flexlint:noalloc
func (w *worker) baseFor(op plan.VertexOp, depth int, bound graph.VID) (base []graph.VID, intersect, difference []int) {
	if op.FrontierBase != plan.NoLevel {
		w.stats.FrontierReuses++
		return setops.Bounded(w.levels[op.FrontierBase], bound), op.IntersectWith, op.DifferenceWith
	}
	if w.aux != nil && op.AuxBase != plan.NoLevel {
		// Auxiliary-graph substitution (aux.go): swap the extender's full
		// adjacency for the materialized pruned row; the spec's folded
		// sources are already applied, leaving only the residuals.
		if row, ok := w.auxRow(op); ok {
			return setops.Bounded(row, bound), op.AuxIntersect, op.AuxDifference
		}
	}
	adj := w.g.Adj(w.emb[op.Extender])
	if depth == 1 && w.sliceHi >= 0 {
		// Hub slicing: this task covers only elements [sliceLo, sliceHi)
		// of the start vertex's adjacency (mirrors the PE's slice path).
		lo, hi := w.sliceLo, w.sliceHi
		if lo > len(adj) {
			lo = len(adj)
		}
		if hi > len(adj) {
			hi = len(adj)
		}
		adj = adj[lo:hi]
	}
	return setops.Bounded(adj, bound), op.Connected, op.Disconnected
}

// chain applies the chained set operations to base under bound — every
// intersect level, then every difference level — through the policy-selected
// kernels (merge = the SIU/SDU path, galloping, hub bitmap; see kernels.go).
// Under KernelMergeOnly this is exactly the classic merge chain. Results
// ping-pong between two worker-owned scratch buffers; base (graph adjacency,
// an aux row or a memoized frontier) is never written. With no operations
// the result is base itself.
//
//flexlint:noalloc
func (w *worker) chain(base []graph.VID, intersect, difference []int, bound graph.VID) []graph.VID {
	cur := base
	for _, j := range intersect {
		cur = w.setOp(w.mergeA[:0], cur, w.emb[j], false, bound)
		w.mergeA, w.mergeB = w.mergeB, cur
	}
	for _, j := range difference {
		cur = w.setOp(w.mergeA[:0], cur, w.emb[j], true, bound)
		w.mergeA, w.mergeB = w.mergeB, cur
	}
	return cur
}

// distinct applies the explicit inequality checks the compiler could not
// prove away.
//
//flexlint:noalloc
func (w *worker) distinct(v graph.VID, op plan.VertexOp) bool {
	for _, j := range op.NotEqual {
		if w.emb[j] == v {
			return false
		}
	}
	return true
}
