package lint

import "testing"

// Each analyzer runs against its seeded-violation fixture package; the
// fixture's `// want` comments are the golden expectations. Test instances
// re-scope (or re-root) the analyzers at the fixture packages so the
// production Scope/Roots configuration stays untouched.

func TestDetlint(t *testing.T) {
	prog := testProgram(t)
	a := NewDetlint(DetlintConfig{Scope: []string{fixturePath(prog, "detlint")}})
	runWantTest(t, a, "detlint")
}

func TestStatsum(t *testing.T) {
	runWantTest(t, Statsum, "statsum")
}

func TestStatsumCompleteMergeIsClean(t *testing.T) {
	runWantTest(t, Statsum, "statsumok") // no want comments: asserts zero diagnostics
}

func TestKernelpin(t *testing.T) {
	prog := testProgram(t)
	a := NewKernelpin(KernelpinConfig{
		RootsPkg:    fixturePath(prog, "kernelpin"),
		Roots:       []string{"Table2", "Fig7", "BaselineSeconds"},
		OptionsPkg:  "repro/internal/core",
		OptionsType: "Options",
		Pins: []FieldPin{
			{Field: "Kernel", Want: "KernelMergeOnly"},
			{Field: "AuxGraph", Want: "AuxOff", ZeroIsPinned: true},
			{Field: "Strategy", Want: "StrategyDFS"},
		},
	})
	runWantTest(t, a, "kernelpin")
}

func TestLockcheck(t *testing.T) {
	prog := testProgram(t)
	a := NewLockcheck(LockcheckConfig{Scope: []string{fixturePath(prog, "lockcheck")}})
	runWantTest(t, a, "lockcheck")
}

func TestBoundarg(t *testing.T) {
	runWantTest(t, Boundarg, "boundarg")
}

func TestAdjwrite(t *testing.T) {
	runWantTest(t, Adjwrite, "adjwrite")
}

func TestLockorder(t *testing.T) {
	prog := testProgram(t)
	a := NewLockorder(LockorderConfig{Scope: []string{fixturePath(prog, "lockorder")}})
	runWantTest(t, a, "lockorder")
}

func TestAtomicHygiene(t *testing.T) {
	runWantTest(t, AtomicHygiene, "atomichygiene")
}

func TestGoroleak(t *testing.T) {
	prog := testProgram(t)
	a := NewGoroleak(GoroleakConfig{Scope: []string{fixturePath(prog, "goroleak")}})
	runWantTest(t, a, "goroleak")
}

func TestNoalloc(t *testing.T) {
	prog := testProgram(t)
	// Mirror production's allowlist shape: the fixture's ops.pinned field
	// plays the role of core's worker.visit.
	a := NewNoalloc(NoallocConfig{Allow: []string{
		"(" + fixturePath(prog, "noalloc") + ".ops).pinned",
	}})
	runWantTest(t, a, "noalloc")
}

// TestNoallocHotPathCoverage pins the production annotation set: the paper's
// per-task inner loop must stay inside the prover. Dropping a directive (or
// renaming a function out from under one) fails here.
func TestNoallocHotPathCoverage(t *testing.T) {
	prog := testProgram(t)
	got := NoallocAnnotated(prog)
	if len(got) < 8 {
		t.Fatalf("want at least 8 //flexlint:noalloc functions, got %d: %v", len(got), got)
	}
	set := map[string]bool{}
	for _, k := range got {
		set[k] = true
	}
	for _, want := range []string{
		"(repro/internal/core.worker).walk",
		"(repro/internal/core.worker).runTask",
		"(repro/internal/core.worker).leafCount",
		"(repro/internal/core.worker).candidates",
		"(repro/internal/core.worker).chain",
		"(repro/internal/cmap.HashMap).Lookup",
		"(repro/internal/cmap.Map).Lookup",
		"repro/internal/setops.IntersectCost",
		"repro/internal/setops.DifferenceCost",
	} {
		if !set[want] {
			t.Errorf("hot-path function %s is not //flexlint:noalloc", want)
		}
	}
}

// TestLockcheckLockorderDedupe: one seeded non-deferred Unlock, two
// analyzers that each flag it, one surviving report.
func TestLockcheckLockorderDedupe(t *testing.T) {
	prog := testProgram(t)
	path := fixturePath(prog, "lockdedupe")
	pkg := prog.Package(path)
	if pkg == nil {
		t.Fatal("lockdedupe fixture not loaded")
	}
	lc := NewLockcheck(LockcheckConfig{Scope: []string{path}})
	lo := NewLockorder(LockorderConfig{Scope: []string{path}})

	// Each analyzer alone sees the bug...
	for _, a := range []*Analyzer{lc, lo} {
		if got := Run(prog, []*Analyzer{a}, []*Package{pkg}); len(got) != 1 {
			for _, d := range got {
				t.Logf("  %s", Format(prog, d))
			}
			t.Fatalf("%s alone: want 1 diagnostic, got %d", a.Name, len(got))
		}
	}
	// ...together they report it once, with lockcheck's wording.
	diags := Run(prog, []*Analyzer{lc, lo}, []*Package{pkg})
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("  %s", Format(prog, d))
		}
		t.Fatalf("dedupe: want exactly 1 diagnostic, got %d", len(diags))
	}
	if diags[0].Analyzer != "lockcheck" {
		t.Fatalf("dedupe should keep the first-registered analyzer's wording (lockcheck), got %s", diags[0].Analyzer)
	}
}

// TestRepoIsClean is the acceptance gate: the production suite must report
// nothing on the repo itself (fixtures excluded). A regression that trips an
// analyzer fails here before it fails in CI.
func TestRepoIsClean(t *testing.T) {
	prog := testProgram(t)
	var targets []*Package
	for _, pkg := range prog.Packages() {
		if pkg.Testdata {
			continue
		}
		targets = append(targets, pkg)
	}
	if len(targets) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, d := range Run(prog, DefaultAnalyzers(), targets) {
		t.Errorf("repo violation: %s", Format(prog, d))
	}
}
