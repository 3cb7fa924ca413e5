package core

// Auxiliary-graph runtime (Options.AuxGraph; DESIGN.md decision 14). The
// compiler marks, per plan, which deep ops re-intersect against adjacency
// rows whose pruned form depends only on shallow ancestors (plan.AuxSpecs,
// computed by assignAuxDirectives). This file is the engine half: when a DFS
// enters the activation level of a spec, the worker opens an "activation
// scope"; the first descendant lookup of each extender value x materializes
// the pruned row
//
//	aux[x] = adj(x) ∩ adj(emb[j]) … ∖ adj(emb[j]) …   (bounded by emb[RowBound])
//
// into a per-worker arena through the same policy-dispatched kernels as any
// other set operation, and every later lookup of x in the subtree reuses it —
// the GraphMini insight that deep DFS loops repeat shallow intersections once
// per intermediate embedding.
//
// Rows are keyed by x's position in the universe row adj(emb[Universe])
// (always ⊇ the extender's candidate set, see plan/aux.go), so the stamp and
// offset arrays are MaxDegree-sized and pooled in the worker — activation is
// O(1): bump an epoch, reset the arena length. Nothing here is charged by the
// simulator, which never reads the aux directives; mined counts are invariant
// under AuxMode (cross-mode tests), only wall-clock and the Aux* Stats move.

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/setops"
)

// AuxMode selects the auxiliary-graph layer (Options.AuxGraph).
type AuxMode int

const (
	// AuxOff (the zero value) ignores the plan's aux directives entirely —
	// the configuration of the paper-figure runners, enforced by the
	// kernelpin analyzer.
	AuxOff AuxMode = iota
	// AuxAuto (the CLI default) honors directives when the per-activation
	// cost model predicts enough reuse: Uses × avgdeg^Gap ≥ 2 and a nonzero
	// fold operand. Skipped activations count as AuxSkippedCostModel.
	AuxAuto
	// AuxOn honors every directive unconditionally (A/B and test leg).
	AuxOn
)

func (m AuxMode) String() string {
	switch m {
	case AuxOff:
		return "off"
	case AuxAuto:
		return "auto"
	case AuxOn:
		return "on"
	}
	return fmt.Sprintf("AuxMode(%d)", int(m))
}

// ParseAuxMode resolves a CLI/config spelling of an aux-graph mode.
func ParseAuxMode(s string) (AuxMode, error) {
	switch s {
	case "off":
		return AuxOff, nil
	case "auto", "":
		return AuxAuto, nil
	case "on":
		return AuxOn, nil
	}
	return 0, fmt.Errorf("core: unknown aux-graph mode %q (want off, auto, or on)", s)
}

// auxState is the per-worker runtime of one plan.AuxSpec. The arrays are
// allocated once in newWorker (MaxDegree-sized, like the merge scratch) and
// live for the worker's lifetime; per-activation reset is the epoch bump plus
// an arena length reset, never an allocation.
type auxState struct {
	universe  []graph.VID // adj(emb[Universe]) view of the live activation
	active    bool        // inside an activation scope
	build     bool        // activation passed the cost gate
	epoch     uint64      // stamps[pos]==epoch ⇒ row for universe[pos] is live
	stamps    []uint64
	offs      []int32 // arena offsets (indices survive arena regrowth)
	lens      []int32
	arena     []graph.VID // append-only row storage, reset per activation
	liveBytes int64       // bytes of live rows (arena length × 4)
}

// newAuxStates builds the pooled per-spec runtime, or nil when the mode or
// plan make the layer inert. auxGate is the static half of the cost model:
// with d = avg degree, an activation is looked up ≈ Uses × d^Gap times, so
// anything below 2 expected uses cannot amortize even one row copy.
func newAuxStates(g graph.Store, pl *plan.Plan, o Options) ([]auxState, []bool) {
	if o.AuxGraph == AuxOff || len(pl.AuxSpecs) == 0 {
		return nil, nil
	}
	states := make([]auxState, len(pl.AuxSpecs))
	gate := make([]bool, len(pl.AuxSpecs))
	maxd := g.MaxDegree()
	d := g.AvgDegree()
	if d < 1 {
		d = 1
	}
	for i, s := range pl.AuxSpecs {
		states[i].stamps = make([]uint64, maxd)
		states[i].offs = make([]int32, maxd)
		states[i].lens = make([]int32, maxd)
		reuse := float64(s.Uses)
		for k := 0; k < s.Gap; k++ {
			reuse *= d
		}
		gate[i] = o.AuxGraph == AuxOn || reuse >= 2
	}
	return states, gate
}

// auxActivate opens the activation scope of every spec built at this op: the
// universe and fold ancestors are fixed from here until auxRelease, so rows
// stamped under the new epoch stay valid for the whole subtree. Under
// AuxAuto an activation whose fold operand is empty is skipped — the rows
// would be plain copies (difference against nothing) or trivially empty, and
// the normal per-step path handles both for free.
//
//flexlint:noalloc
func (w *worker) auxActivate(op plan.VertexOp) {
	if w.aux == nil || len(op.BuildAux) == 0 {
		return
	}
	for _, i := range op.BuildAux {
		st := &w.aux[i]
		spec := &w.pl.AuxSpecs[i]
		st.epoch++
		w.auxLive -= st.liveBytes
		st.liveBytes = 0
		st.arena = st.arena[:0]
		st.active = true
		st.build = w.auxGate[i]
		if st.build && w.o.AuxGraph == AuxAuto {
			operand := 0
			for _, j := range spec.Intersect {
				operand += len(w.g.Adj(w.emb[j]))
			}
			for _, j := range spec.Difference {
				operand += len(w.g.Adj(w.emb[j]))
			}
			if operand == 0 {
				st.build = false
			}
		}
		if !st.build {
			w.stats.AuxSkippedCostModel++
			continue
		}
		st.universe = w.g.Adj(w.emb[spec.Universe])
	}
}

// auxRelease closes the activation scopes opened by auxActivate. Paired with
// it on every path — including cancellation unwinds — so live-byte accounting
// returns to zero between tasks and nothing leaks across them.
//
//flexlint:noalloc
func (w *worker) auxRelease(op plan.VertexOp) {
	if w.aux == nil || len(op.BuildAux) == 0 {
		return
	}
	for _, i := range op.BuildAux {
		st := &w.aux[i]
		st.active = false
		st.build = false
		w.auxLive -= st.liveBytes
		st.liveBytes = 0
		st.arena = st.arena[:0]
		st.universe = nil
	}
}

// auxRow resolves the materialized pruned row for the consumer's extender
// value, building it on first lookup within the live activation. ok=false
// falls back to the plain adjacency path: spec inactive (hand-built plan or
// cost-gated activation) or — defensively — a key outside the universe.
//
//flexlint:noalloc
func (w *worker) auxRow(op plan.VertexOp) ([]graph.VID, bool) {
	if op.AuxBase < 0 || op.AuxBase >= len(w.aux) {
		return nil, false
	}
	st := &w.aux[op.AuxBase]
	if !st.active || !st.build {
		return nil, false
	}
	x := w.emb[op.Extender]
	pos := setops.Index(st.universe, x)
	if pos < 0 {
		return nil, false
	}
	if st.stamps[pos] == st.epoch {
		w.stats.AuxReused++
		return st.arena[st.offs[pos] : st.offs[pos]+int32(st.lens[pos])], true
	}
	return w.auxBuild(st, &w.pl.AuxSpecs[op.AuxBase], x, pos), true
}

// auxBuild materializes aux[x] into the arena tail through the same
// policy-dispatched kernels as the per-step path (Options.Kernel applies,
// kernel Stats counters charge normally) and stamps its position.
//
//flexlint:noalloc
func (w *worker) auxBuild(st *auxState, spec *plan.AuxSpec, x graph.VID, pos int) []graph.VID {
	bound := setops.NoBound
	if spec.RowBound != plan.NoLevel {
		bound = w.emb[spec.RowBound]
	}
	cur := setops.Bounded(w.g.Adj(x), bound)
	off := int32(len(st.arena))
	if len(spec.Intersect)+len(spec.Difference) == 1 {
		// Single chained operation: materialize straight into the arena.
		if len(spec.Intersect) == 1 {
			st.arena = w.setOp(st.arena, cur, w.emb[spec.Intersect[0]], false, bound)
		} else {
			st.arena = w.setOp(st.arena, cur, w.emb[spec.Difference[0]], true, bound)
		}
	} else {
		// Chain through the ping-pong scratch, then copy the final row out —
		// the scratch is clobbered by the consumer's residual operations.
		cur = w.chain(cur, spec.Intersect, spec.Difference, bound)
		st.arena = setops.AppendBounded(st.arena, cur, bound)
	}
	n := int32(len(st.arena)) - off
	st.offs[pos], st.lens[pos] = off, n
	st.stamps[pos] = st.epoch
	st.liveBytes += int64(n) * 4
	w.auxLive += int64(n) * 4
	if w.auxLive > w.stats.AuxBytesPeak {
		w.stats.AuxBytesPeak = w.auxLive
	}
	w.stats.AuxBuilt++
	return st.arena[off : off+n]
}
