package plan

import "repro/internal/pattern"

// MotifCensus reports whether the plan is a complete vertex-induced k-motif
// census for k ∈ {3, 4}: its patterns are exactly pattern.Motifs(k), in any
// order, on a symmetric input. Such a plan can be answered in closed form
// from degrees, triangle and 4-cycle counts instead of by enumeration (the
// CPU engine's census solver). When ok, motif[i] is the index into
// pattern.Motifs(k) of p.Patterns[i], matched by canonical code, so
// CompileMulti plans with shuffled patterns and induced job batches are
// recognized as well as CompileMotifs plans.
func (p *Plan) MotifCensus() (k int, motif []int, ok bool) {
	if !p.Induced || p.RequiresDAG || (p.K != 3 && p.K != 4) {
		return 0, nil, false
	}
	slot := pattern.MotifIndex(p.K)
	if len(p.Patterns) != len(slot) {
		return 0, nil, false
	}
	motif = make([]int, len(p.Patterns))
	seen := make([]bool, len(slot))
	for i, q := range p.Patterns {
		j, found := slot[q.CanonicalCode()]
		if !found || q.Size() != p.K || seen[j] {
			return 0, nil, false
		}
		seen[j] = true
		motif[i] = j
	}
	return p.K, motif, true
}
