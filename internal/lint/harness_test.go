package lint

// A miniature analysistest: fixture packages under testdata/src carry
// `// want` comments whose quoted regexps must match the diagnostics the
// analyzer reports on that line, one to one. The whole module (plus every
// fixture) is loaded and type-checked once and shared across tests — the
// load is the expensive part (the stdlib is type-checked from source).

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	progOnce sync.Once
	progVal  *Program
	progErr  error
)

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/lint -> repo root
}

// testProgram loads the module and every fixture package, once per process.
func testProgram(t *testing.T) *Program {
	t.Helper()
	root := repoRoot(t)
	progOnce.Do(func() {
		progVal, progErr = Load(root)
		if progErr != nil {
			return
		}
		fixtures, err := filepath.Glob(filepath.Join(root, "internal", "lint", "testdata", "src", "*"))
		if err != nil {
			progErr = err
			return
		}
		for _, dir := range fixtures {
			if _, err := progVal.LoadDir(dir); err != nil {
				progErr = err
				return
			}
		}
	})
	if progErr != nil {
		t.Fatalf("loading test program: %v", progErr)
	}
	return progVal
}

// fixturePath returns the import path of a fixture directory name.
func fixturePath(prog *Program, name string) string {
	return prog.Module + "/internal/lint/testdata/src/" + name
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// wantsIn extracts the `// want` expectations of a package: file/line →
// list of regexps.
func wantsIn(t *testing.T, prog *Program, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	out := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				key := posKey(pos)
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					out[key] = append(out[key], re)
				}
			}
		}
	}
	return out
}

func posKey(pos token.Position) string {
	return pos.Filename + ":" + itoa(pos.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// runWantTest runs one analyzer over one fixture package and matches
// diagnostics against the package's want comments.
func runWantTest(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	prog := testProgram(t)
	pkg := prog.Package(fixturePath(prog, fixture))
	if pkg == nil {
		t.Fatalf("fixture package %s not loaded", fixture)
	}
	var got []reported
	for _, d := range Run(prog, []*Analyzer{a}, []*Package{pkg}) {
		got = append(got, reported{key: posKey(prog.Fset.Position(d.Pos)), source: d.Analyzer, msg: d.Message})
	}
	matchWants(t, wantsIn(t, prog, pkg), got)
}

// reported is one diagnostic reduced to what want matching needs, so
// fixtures checked by an external tool (go vet) share the matcher.
type reported struct {
	key, source, msg string
}

// matchWants pairs diagnostics with want patterns one to one: every
// diagnostic must match an unused pattern on its line, and every pattern
// must be matched.
func matchWants(t *testing.T, wants map[string][]*regexp.Regexp, got []reported) {
	t.Helper()
	matched := map[string][]bool{}
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, d := range got {
		ok := false
		for i, re := range wants[d.key] {
			if !matched[d.key][i] && re.MatchString(d.msg) {
				matched[d.key][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s: %s", d.key, d.source, d.msg)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("missing diagnostic at %s: no report matching %q", key, re)
			}
		}
	}
}
