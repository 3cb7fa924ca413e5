//go:build unix

package core

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/plan"
)

// TestMotifCountsMatchOracles verifies 3- and 4-motif counting against both
// the ESU oblivious engine and brute force, under both strategies (closed
// form and DFS), on heap, mmap and sharded stores, at 1 and 4 threads, for
// CompileMotifs plans and a shuffled-order CompileMulti 4-motif plan.
func TestMotifCountsMatchOracles(t *testing.T) {
	shuffled := pattern.Motifs(4)
	shuffled[0], shuffled[2], shuffled[4], shuffled[5] = shuffled[4], shuffled[5], shuffled[2], shuffled[0]
	shuffledPlan, err := plan.CompileMulti(shuffled, plan.Options{Induced: true})
	if err != nil {
		t.Fatal(err)
	}
	for gname, g := range testGraphs(t) {
		stores := storageBackends(t, g)
		for k := 3; k <= 4; k++ {
			counts, motifs, err := MotifCounts(g, k, Options{Threads: 4})
			if err != nil {
				t.Fatalf("%d-MC on %s: %v", k, gname, err)
			}
			obl := MineOblivious(g, k, 2)
			var oblTotal int64
			want := map[uint64]int64{}
			for i, m := range motifs {
				brute := BruteCount(g, m, true)
				if esu := obl.CountInduced(m); esu != brute {
					t.Fatalf("%d-MC %s on %s: esu=%d brute=%d", k, m.Name(), gname, esu, brute)
				}
				if counts[i] != brute {
					t.Errorf("%d-MC %s on %s: MotifCounts=%d brute=%d", k, m.Name(), gname, counts[i], brute)
				}
				want[m.CanonicalCode()] = brute
				oblTotal += obl.CountInduced(m)
			}
			if oblTotal != obl.Enumerated {
				t.Errorf("%d-MC on %s: ESU classified %d of %d", k, gname, oblTotal, obl.Enumerated)
			}

			plans := map[string]*plan.Plan{}
			if plans["motifs"], err = plan.CompileMotifs(k, plan.Options{}); err != nil {
				t.Fatal(err)
			}
			if k == 4 {
				plans["shuffled"] = shuffledPlan
			}
			for pname, pl := range plans {
				for sgname, strategy := range map[string]Strategy{"auto": StrategyAuto, "dfs": StrategyDFS} {
					for sname, st := range stores {
						for _, threads := range []int{1, 4} {
							res, err := Mine(st, pl, Options{Threads: threads, Strategy: strategy})
							if err != nil {
								t.Fatal(err)
							}
							for i, p := range pl.Patterns {
								if w := want[p.CanonicalCode()]; res.Counts[i] != w {
									t.Errorf("%d-MC %s on %s (%s plan, %s strategy, %s, %d threads): got %d, want %d",
										k, p.Name(), gname, pname, sgname, sname, threads, res.Counts[i], w)
								}
							}
						}
					}
				}
			}
		}
	}
}
