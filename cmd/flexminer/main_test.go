package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestBuildPlanApps: every documented -app name resolves, clique apps are
// oriented onto the DAG, and each SL app counts exactly what the matching
// -pattern run counts.
func TestBuildPlanApps(t *testing.T) {
	g := graph.RMAT(8, 1200, 0.57, 0.19, 0.19, 3)
	mine := func(app, patName string) int64 {
		t.Helper()
		pl, mineG, err := buildPlan(g, app, patName, false)
		if err != nil {
			t.Fatalf("buildPlan(app=%q, pattern=%q): %v", app, patName, err)
		}
		if mineG.IsDAG() != pl.RequiresDAG {
			t.Fatalf("app=%q pattern=%q: store IsDAG=%v, plan RequiresDAG=%v", app, patName, mineG.IsDAG(), pl.RequiresDAG)
		}
		res, err := core.Mine(mineG, pl, core.Options{Threads: 2})
		if err != nil {
			t.Fatalf("app=%q pattern=%q: %v", app, patName, err)
		}
		return res.Count()
	}
	for app, patName := range map[string]string{
		"TC":         "triangle",
		"4-CL":       "4-clique",
		"SL-4cycle":  "4-cycle",
		"SL-diamond": "diamond",
		"SL-house":   "house",
	} {
		if got, want := mine(app, ""), mine("", patName); got != want {
			t.Errorf("-app %s = %d, -pattern %s = %d", app, got, patName, want)
		}
	}
	for _, app := range []string{"5-CL", "3-MC", "4-MC"} {
		mine(app, "")
	}
	if _, _, err := buildPlan(g, "SL-bogus", "", false); err == nil {
		t.Error("unknown app resolved without error")
	}
	if _, _, err := buildPlan(g, "TC", "triangle", false); err == nil {
		t.Error("-app with -pattern resolved without error")
	}
}
