package lint

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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

// TestVetCopylocks pins the division of labour behind flexlint having no
// copied-lock analyzer: `go vet`'s copylocks pass (a CI step over the same
// packages) must report every copy shape in the copylocks fixture — a
// by-value parameter, a value receiver, an assignment and a range variable —
// and nothing else there. Non-deferred Unlock/RUnlock is lockorder's
// (TestLockorder).
func TestVetCopylocks(t *testing.T) {
	prog := testProgram(t)
	pkg := prog.Package(fixturePath(prog, "copylocks"))
	if pkg == nil {
		t.Fatal("copylocks fixture not loaded")
	}
	root := repoRoot(t)
	cmd := exec.Command("go", "vet", "-copylocks", "./internal/lint/testdata/src/copylocks")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if _, exit := err.(*exec.ExitError); err != nil && !exit {
		t.Fatalf("go vet did not run: %v", err)
	}
	var got []reported
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := vetLineRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsed go vet output: %q", line)
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		got = append(got, reported{key: file + ":" + m[2], source: "vet", msg: m[3]})
	}
	if len(got) == 0 && err != nil {
		t.Fatalf("go vet failed without diagnostics: %v\n%s", err, out)
	}
	matchWants(t, wantsIn(t, prog, pkg), got)
}

// vetLineRE splits one go vet diagnostic into file, line and message.
var vetLineRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

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
