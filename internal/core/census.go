package core

// Closed-form vertex-induced motif census (DESIGN.md decision 18). A plan
// whose patterns are exactly the connected 3- or 4-vertex motifs does not
// need enumeration: every non-induced motif count follows from degrees,
// per-edge triangle counts, 4-cycle co-degrees and the 4-clique count, and
// the induced counts follow from those by inverting the (upper-triangular)
// "how many copies of motif i span motif j" matrix. The DFS enumerates
// every 4-star and 4-path one leaf at a time; the solver scans, per edge,
// the adjacency of its lower-degree endpoint once, plus one walk of the
// degree-oriented DAG for triangles and 4-cliques.
//
// Non-induced counts, with d the degree, t_v the triangles at v, t_uv the
// triangles on edge uv and T the triangle count:
//
//	star    = Σ_v C(d_v, 3)
//	path    = Σ_{uv∈E} (d_u−1)(d_v−1) − 3T
//	tailed  = Σ_v t_v(d_v−2) = ½ Σ_{uv∈E} t_uv(d_u+d_v−4)
//	cycle   = ½ Σ over vertex pairs of C(co-degree, 2)
//	diamond = Σ_{uv∈E} C(t_uv, 2)
//	clique  = the 4-clique count
//	wedge   = Σ_v C(d_v, 2)           (3-motifs)
//
// Work is split into one task per vertex v over the engine's scheduler:
//
//   - edges whose higher-(degree, ID) endpoint is v: t_uv by scanning the
//     lower-degree endpoint's adjacency against a mark of N(v), and the
//     wedges v–a–x (a, x ranked below v) whose pair counts give the 4-cycles
//     with v as their top-ranked vertex;
//   - triangles and 4-cliques whose lowest-ranked vertex is v, walking the
//     degree-oriented DAG (out-lists hold higher-ranked neighbors, so they
//     stay short even at hubs).
//
// Every term is a sum of per-task contributions, so counts and Stats do not
// depend on the schedule. Products, binomials and sums are overflow-checked;
// a census whose counts leave int64 fails with ErrCountOverflow.

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sched"
)

// Strategy selects how the engine answers a plan.
type Strategy int

const (
	// StrategyAuto (the default) answers complete vertex-induced 3- and
	// 4-motif censuses (plan.MotifCensus) in closed form and mines every
	// other plan by DFS. Listing (a Visitor) always runs the DFS.
	StrategyAuto Strategy = iota
	// StrategyDFS always enumerates — the GraphZero-style software
	// baseline the paper compares against. The paper-figure runners pin it
	// (enforced by the kernelpin analyzer).
	StrategyDFS
)

// ErrCountOverflow reports a census whose counts (or an intermediate term of
// the closed form) do not fit in int64. The result then carries no counts.
var ErrCountOverflow = errors.New("core: motif census count overflows int64")

// checked is overflow-checked arithmetic on non-negative int64 terms: each
// operation latches overflow instead of wrapping.
type checked struct{ overflow bool }

func (c *checked) add(a, b int64) int64 {
	s, carry := bits.Add64(uint64(a), uint64(b), 0)
	if carry != 0 || s > math.MaxInt64 {
		c.overflow = true
	}
	return int64(s)
}

func (c *checked) mul(a, b int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		c.overflow = true
	}
	return int64(lo)
}

// binom2 is C(n, 2), halving the even factor before multiplying.
func (c *checked) binom2(n int64) int64 {
	if n < 2 {
		return 0
	}
	a, b := n, n-1
	if a%2 == 0 {
		a /= 2
	} else {
		b /= 2
	}
	return c.mul(a, b)
}

// binom3 is C(n, 3): one of three consecutive factors is even and one a
// multiple of three, so both divisions are exact before multiplying.
func (c *checked) binom3(n int64) int64 {
	if n < 3 {
		return 0
	}
	f := [3]int64{n, n - 1, n - 2}
	for _, p := range [2]int64{2, 3} {
		for i := range f {
			if f[i]%p == 0 {
				f[i] /= p
				break
			}
		}
	}
	return c.mul(c.mul(f[0], f[1]), f[2])
}

// censusForm is the closed form for one motif size, derived from the
// pattern package rather than typed in: sub[i][j] counts the edge subsets
// of motif j that form a copy of motif i on all k vertices, so non-induced
// counts are N = sub·I and the induced counts I follow by back-substitution
// (sub is unit upper-triangular under descending edge count).
type censusForm struct {
	motifs []*pattern.Pattern
	slot   map[uint64]int // canonical code → index in motifs
	sub    [][]int64
	order  []int // motif indices by descending edge count
}

var censusForms = sync.OnceValue(func() map[int]*censusForm {
	return map[int]*censusForm{3: deriveCensusForm(3), 4: deriveCensusForm(4)}
})

func deriveCensusForm(k int) *censusForm {
	f := &censusForm{motifs: pattern.Motifs(k), slot: pattern.MotifIndex(k)}
	for i := range f.motifs {
		f.order = append(f.order, i)
		f.sub = append(f.sub, make([]int64, len(f.motifs)))
	}
	for j, m := range f.motifs {
		edges := m.Edges()
		for mask := 1; mask < 1<<len(edges); mask++ {
			p := pattern.New(k)
			for e, uv := range edges {
				if mask&(1<<e) != 0 {
					p.AddEdge(uv[0], uv[1])
				}
			}
			if i, ok := f.slot[p.CanonicalCode()]; ok {
				f.sub[i][j]++
			}
		}
	}
	slices.SortFunc(f.order, func(a, b int) int {
		return f.motifs[b].NumEdges() - f.motifs[a].NumEdges()
	})
	return f
}

// induced converts non-induced counts (indexed like motifs) to induced ones.
func (f *censusForm) induced(n []int64, ck *checked) []int64 {
	out := make([]int64, len(n))
	for _, i := range f.order {
		v := n[i]
		for j, c := range f.sub[i] {
			if j != i && c != 0 {
				v -= ck.mul(c, out[j]) // motif j has more edges: already solved
			}
		}
		out[i] = v
	}
	return out
}

// censusSums are one worker's accumulated closed-form terms.
type censusSums struct {
	pairs     int64 // Σ_v C(d_v, 2)
	triples   int64 // Σ_v C(d_v, 3)
	paths     int64 // Σ_{uv∈E} (d_u−1)(d_v−1)
	triangles int64
	tailed2   int64 // Σ_{uv∈E} t_uv(d_u+d_v−4) = 2·tailed
	diamonds  int64 // Σ_{uv∈E} C(t_uv, 2)
	cycles    int64
	cliques   int64
	ck        checked
}

func (s *censusSums) add(o *censusSums) {
	s.pairs = s.ck.add(s.pairs, o.pairs)
	s.triples = s.ck.add(s.triples, o.triples)
	s.paths = s.ck.add(s.paths, o.paths)
	s.triangles = s.ck.add(s.triangles, o.triangles)
	s.tailed2 = s.ck.add(s.tailed2, o.tailed2)
	s.diamonds = s.ck.add(s.diamonds, o.diamonds)
	s.cycles = s.ck.add(s.cycles, o.cycles)
	s.cliques = s.ck.add(s.cliques, o.cliques)
	s.ck.overflow = s.ck.overflow || o.ck.overflow
}

// nonInduced places the summed terms at their motif's index.
func (s *censusSums) nonInduced(f *censusForm, k int) []int64 {
	n := make([]int64, len(f.motifs))
	set := func(p *pattern.Pattern, v int64) { n[f.slot[p.CanonicalCode()]] = v }
	if k == 3 {
		set(pattern.Wedge(), s.pairs)
		set(pattern.Triangle(), s.triangles)
		return n
	}
	set(pattern.KStar(4), s.triples)
	set(pattern.KPath(4), s.paths-s.ck.mul(3, s.triangles))
	set(pattern.TailedTriangle(), s.tailed2/2)
	set(pattern.FourCycle(), s.cycles)
	set(pattern.Diamond(), s.diamonds)
	set(pattern.KClique(4), s.cliques)
	return n
}

// censusPlan is an engine's resolved census: motif size and, per plan slot,
// the index into pattern.Motifs(k).
type censusPlan struct {
	k     int
	motif []int
}

// censusIndex is the read-only degree order shared by the solver's workers:
// key[v] = deg(v)<<32 | v ranks vertices by (degree, ID), and the up lists
// hold each vertex's higher-ranked neighbors (the degree-oriented DAG, each
// list sorted by ID).
type censusIndex struct {
	key   []uint64
	upOff []int64
	up    []graph.VID
	maxUp int
}

func newCensusIndex(g graph.Store) *censusIndex {
	n := g.NumVertices()
	ix := &censusIndex{key: make([]uint64, n), upOff: make([]int64, n+1)}
	for v := range ix.key {
		ix.key[v] = uint64(g.Degree(graph.VID(v)))<<32 | uint64(v)
	}
	ix.up = make([]graph.VID, 0, g.NumArcs()/2)
	for v := 0; v < n; v++ {
		kv := ix.key[v]
		for _, u := range g.Adj(graph.VID(v)) {
			if ix.key[u] > kv {
				ix.up = append(ix.up, u)
			}
		}
		ix.upOff[v+1] = int64(len(ix.up))
		ix.maxUp = max(ix.maxUp, int(ix.upOff[v+1]-ix.upOff[v]))
	}
	return ix
}

func (ix *censusIndex) upOf(v graph.VID) []graph.VID {
	return ix.up[ix.upOff[v]:ix.upOff[v+1]]
}

// censusWorker holds one worker's preallocated scratch and accumulators.
type censusWorker struct {
	g    graph.Store
	ix   *censusIndex
	four bool

	mark    []uint8     // N(v) of the current task
	mark2   []uint8     // common out-neighbors of the current DAG edge
	cnt     []uint32    // wedges from v to each lower-ranked vertex
	touched []graph.VID // vertices with cnt > 0
	common  []graph.VID

	sums  censusSums
	stats Stats
}

func newCensusWorker(g graph.Store, ix *censusIndex, k int) *censusWorker {
	n := g.NumVertices()
	w := &censusWorker{g: g, ix: ix, four: k == 4, mark: make([]uint8, n)}
	if w.four {
		w.mark2 = make([]uint8, n)
		w.cnt = make([]uint32, n)
		w.touched = make([]graph.VID, 0, n)
		w.common = make([]graph.VID, 0, ix.maxUp)
	}
	return w
}

// run is one solver task: every term owned by vertex v.
func (w *censusWorker) run(v graph.VID) {
	w.stats.Tasks++
	s := &w.sums
	adj := w.g.Adj(v)
	d := int64(len(adj))
	s.pairs = s.ck.add(s.pairs, s.ck.binom2(d))
	for _, u := range adj {
		w.mark[u] = 1
	}
	if w.four {
		s.triples = s.ck.add(s.triples, s.ck.binom3(d))
		w.edgesAndCycles(v, adj)
	}
	w.trianglesAndCliques(v)
	for _, u := range adj {
		w.mark[u] = 0
	}
}

// edgesAndCycles visits each edge va whose lower-ranked endpoint is a — so
// every edge once, scanning the lower-degree side — counting t_va against
// the mark of N(v) and the wedges v–a–x with x ranked below v. C(wedges, 2)
// over each x counts the 4-cycles whose top-ranked vertex is v, opposite x.
func (w *censusWorker) edgesAndCycles(v graph.VID, adj []graph.VID) {
	key, mark, cnt := w.ix.key, w.mark, w.cnt
	kv := key[v]
	dv := int64(len(adj))
	touched := w.touched[:0]
	s := &w.sums
	for _, a := range adj {
		if key[a] > kv {
			continue
		}
		na := w.g.Adj(a)
		var t int64 // +1 per scanned element at most: cannot overflow
		for _, x := range na {
			t += int64(mark[x])
			if key[x] < kv {
				if cnt[x] == 0 {
					touched = append(touched, x)
				}
				cnt[x]++
			}
		}
		w.stats.SetOpIterations += int64(len(na))
		da := int64(len(na))
		s.paths = s.ck.add(s.paths, s.ck.mul(dv-1, da-1))
		if t > 0 { // then d_v, d_a ≥ 2
			s.tailed2 = s.ck.add(s.tailed2, s.ck.mul(t, dv+da-4))
			s.diamonds = s.ck.add(s.diamonds, s.ck.binom2(t))
		}
	}
	for _, x := range touched {
		s.cycles = s.ck.add(s.cycles, s.ck.binom2(int64(cnt[x])))
		cnt[x] = 0
	}
	w.touched = touched[:0]
}

// trianglesAndCliques counts the triangles {v,a,b} and 4-cliques {v,a,b,c}
// ranked v < a < b < c along the degree-oriented DAG: b ranges over
// up(a) ∩ N(v), and c over up(b) within that set.
func (w *censusWorker) trianglesAndCliques(v graph.VID) {
	mark := w.mark
	s := &w.sums
	for _, a := range w.ix.upOf(v) {
		ua := w.ix.upOf(a)
		w.stats.SetOpIterations += int64(len(ua))
		if !w.four {
			var t int64
			for _, x := range ua {
				t += int64(mark[x])
			}
			s.triangles += t // one per scanned element: cannot overflow
			continue
		}
		common := w.common[:0]
		for _, x := range ua {
			if mark[x] != 0 {
				common = append(common, x)
			}
		}
		s.triangles += int64(len(common))
		mark2 := w.mark2
		for _, b := range common {
			mark2[b] = 1
		}
		var k4 int64
		for _, b := range common {
			ub := w.ix.upOf(b)
			w.stats.SetOpIterations += int64(len(ub))
			for _, c := range ub {
				k4 += int64(mark2[c])
			}
		}
		for _, b := range common {
			mark2[b] = 0
		}
		s.cliques += k4
		w.common = common[:0]
	}
}

// solveCensus answers the engine's census plan in closed form. Tasks run
// through the same scheduler entry as the DFS (so SchedHooks see one OnTask
// per solver task, and a tracer one task event); OnTaskDone fires once,
// with the raw total, after the combine. A cancelled run returns its
// partial Stats and no counts.
func (e *Engine) solveCensus(ctx context.Context) (Result, error) {
	ix := newCensusIndex(e.g)
	tasks := sched.Expand(e.g, 0)
	sched.OrderByDegreeDesc(e.g, tasks)
	threads := e.workerCount(len(tasks))
	workers := make([]*censusWorker, threads)
	for t := range workers {
		workers[t] = newCensusWorker(e.g, ix, e.census.k)
	}
	tr := e.o.Trace
	err := e.schedule(ctx, threads, tasks, func(t int, task sched.Task) bool {
		w := workers[t]
		before := w.stats.SetOpIterations
		w.run(task.V0)
		if tr.Enabled() {
			tr.Emit(obs.CatSched, "task", t, 0,
				obs.Arg{Key: "v0", Val: int64(task.V0)},
				obs.Arg{Key: "merge_iters", Val: w.stats.SetOpIterations - before})
		}
		return true
	})
	var res Result
	var sum censusSums
	for _, w := range workers {
		res.Stats.add(&w.stats)
		sum.add(&w.sums)
	}
	if err != nil {
		return res, err
	}
	counts, raw, err := e.census.counts(&sum, e.pl.CountDivisor)
	if err != nil {
		return res, err
	}
	res.Counts = counts
	if e.o.OnTaskDone != nil {
		e.o.OnTaskDone(0, raw)
	}
	return res, nil
}

// counts combines the summed terms into per-slot induced counts, plus their
// pre-divisor total (the DFS's partial-count unit) for progress reporting.
func (c *censusPlan) counts(sum *censusSums, divisor []int64) ([]int64, int64, error) {
	form := censusForms()[c.k]
	induced := form.induced(sum.nonInduced(form, c.k), &sum.ck)
	if sum.ck.overflow {
		return nil, 0, ErrCountOverflow
	}
	counts := make([]int64, len(c.motif))
	var raw int64
	var rc checked
	for i, m := range c.motif {
		counts[i] = induced[m]
		raw = rc.add(raw, rc.mul(induced[m], divisor[i]))
	}
	if rc.overflow {
		raw = math.MaxInt64 // progress signal only; the counts themselves fit
	}
	return counts, raw, nil
}
