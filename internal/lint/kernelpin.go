package lint

// kernelpin guards the meaning of the paper figures. Table II, Fig 7 and the
// accelerator speedup baselines model merge-based systems (GraphZero,
// AutoMine) and the SIU/SDU cycle model, so every core.Options constructed
// on a path reachable from the paper-figure runners must pin each configured
// field (KernelpinConfig.Pins): Kernel: KernelMergeOnly — the adaptive
// kernels are benchmarked separately — AuxGraph: AuxOff — the
// auxiliary-graph layer prunes adjacency rows the baselines must read in
// full — and Strategy: StrategyDFS — the baselines enumerate every
// embedding, where the default would answer the 3-MC rows in closed form.
// The analyzer builds a static call/reference graph from the runner
// roots, finds every reachable core.Options composite literal, and accepts,
// per pin: the pinned constant, an absent field when the zero value is the
// constant (AuxOff), or a parameter of the enclosing function that is itself
// pinned at every reachable call site (the BaselineSeconds → KernelSeconds
// plumbing).

import (
	"go/ast"
	"go/types"
)

// FieldPin names one Options field and the constant it must be pinned to on
// every paper-runner path.
type FieldPin struct {
	Field string // e.g. "Kernel"
	Want  string // e.g. "KernelMergeOnly"
	// ZeroIsPinned marks fields whose zero value is the pinned constant
	// (AuxGraph: the zero AuxMode is AuxOff), so an absent field is proof
	// enough. Fields whose zero value selects adaptive behavior (Kernel:
	// zero is KernelAuto) must be written explicitly.
	ZeroIsPinned bool
}

// KernelpinConfig names the roots and the pinned options.
type KernelpinConfig struct {
	RootsPkg    string   // package defining the paper-figure runners
	Roots       []string // function/method names of the runners
	OptionsPkg  string   // package defining the Options struct
	OptionsType string   // "Options"
	Pins        []FieldPin
}

// Kernelpin is the production instance: figure runners model merge-based
// enumerating baselines with full adjacency rows, so the adaptive kernels,
// the auxiliary-graph layer and the closed-form motif census must be
// provably off on their paths.
var Kernelpin = NewKernelpin(KernelpinConfig{
	RootsPkg:    "repro/internal/bench",
	Roots:       []string{"Table2", "Fig7", "BaselineSeconds"},
	OptionsPkg:  "repro/internal/core",
	OptionsType: "Options",
	Pins: []FieldPin{
		{Field: "Kernel", Want: "KernelMergeOnly"},
		{Field: "AuxGraph", Want: "AuxOff", ZeroIsPinned: true},
		{Field: "Strategy", Want: "StrategyDFS"},
	},
})

// NewKernelpin builds a kernelpin instance (tests point the roots at fixture
// packages).
func NewKernelpin(cfg KernelpinConfig) *Analyzer {
	return &Analyzer{
		Name:        "kernelpin",
		Doc:         "paper-figure runner paths must construct core.Options with every configured field pinned (Kernel: KernelMergeOnly, AuxGraph: AuxOff, Strategy: StrategyDFS)",
		ProgramWide: true,
		Run:         func(pass *Pass) { runKernelpin(pass, cfg) },
	}
}

// litSite is one core.Options composite literal found in a reachable
// function.
type litSite struct {
	fn  *types.Func
	pkg *Package
	lit *ast.CompositeLit
}

func runKernelpin(pass *Pass, cfg KernelpinConfig) {
	// Index every declared function in the program.
	bodies := indexFuncs(pass.Prog)

	// Reachability from the runner roots: any referenced function counts
	// (calls, and function values handed to schedulers/closures).
	reachable := map[*types.Func]bool{}
	roots := map[*types.Func]bool{}
	var queue []*types.Func
	for fn := range bodies {
		if fn.Pkg() != nil && fn.Pkg().Path() == cfg.RootsPkg && hasName(cfg.Roots, fn.Name()) {
			reachable[fn] = true
			roots[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		b := bodies[fn]
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if callee, ok := b.pkg.Info.Uses[id].(*types.Func); ok {
				if _, declared := bodies[callee]; declared && !reachable[callee] {
					reachable[callee] = true
					queue = append(queue, callee)
				}
			}
			return true
		})
	}

	// Options literals are pin-independent: collect them once, then prove
	// each configured pin over the same reachable graph.
	var lits []litSite
	for fn := range reachable {
		b := bodies[fn]
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if ok && isOptionsType(b.pkg, lit, cfg) {
				lits = append(lits, litSite{fn: fn, pkg: b.pkg, lit: lit})
			}
			return true
		})
	}

	for _, pin := range cfg.Pins {
		checkPin(pass, cfg, pin, bodies, reachable, roots, lits)
	}
}

// checkPin proves one FieldPin over the reachable graph: every collected
// Options literal either pins pin.Field to the pin.Want constant (or omits
// it, for zero-pinned fields), or forwards a parameter that every reachable
// call site pins transitively.
func checkPin(pass *Pass, cfg KernelpinConfig, pin FieldPin,
	bodies map[*types.Func]funcBody, reachable, roots map[*types.Func]bool,
	lits []litSite) {
	// needs[fn] = parameter indices that must receive the Want constant at
	// every reachable call site. Grown to a fixpoint: a call site that
	// forwards its own parameter adds a need one level up.
	needs := map[*types.Func]map[int]bool{}
	addNeed := func(fn *types.Func, idx int) bool {
		if needs[fn] == nil {
			needs[fn] = map[int]bool{}
		}
		if needs[fn][idx] {
			return false
		}
		needs[fn][idx] = true
		return true
	}

	// Phase 1: literals whose pinned-field value is a parameter seed the
	// needs set.
	for _, s := range lits {
		val := pinFieldValue(s.lit, pin.Field)
		if val == nil {
			continue // reported in phase 2
		}
		if idx, ok := paramIndexOf(s.pkg, s.fn, val); ok {
			addNeed(s.fn, idx)
		}
	}
	// Propagate: a reachable call that forwards a caller parameter into a
	// needed position extends the need to the caller.
	for changed := true; changed; {
		changed = false
		for fn := range reachable {
			b := bodies[fn]
			ast.Inspect(b.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(b.pkg, call)
				if callee == nil || len(needs[callee]) == 0 {
					return true
				}
				for idx := range needs[callee] {
					if idx >= len(call.Args) {
						continue
					}
					if pidx, ok := paramIndexOf(b.pkg, fn, call.Args[idx]); ok {
						if addNeed(fn, pidx) {
							changed = true
						}
					}
				}
				return true
			})
		}
	}

	// Phase 2: report. Literals must pin the constant or forward a needed
	// parameter; needed parameters must receive the constant (or another
	// needed parameter) at every reachable call site.
	for _, s := range lits {
		val := pinFieldValue(s.lit, pin.Field)
		if val == nil {
			if pin.ZeroIsPinned {
				continue // the zero value is the pinned constant
			}
			pass.Reportf(s.lit.Pos(), "%s.%s constructed on a paper-runner path without %s: %s (its zero value selects adaptive behavior and changes what the figures measure)",
				pkgBase(cfg.OptionsPkg), cfg.OptionsType, pin.Field, pin.Want)
			continue
		}
		if isWantConst(s.pkg, val, cfg, pin) {
			continue
		}
		if idx, ok := paramIndexOf(s.pkg, s.fn, val); ok && needs[s.fn][idx] {
			continue // pinned transitively at every reachable call site
		}
		pass.Reportf(val.Pos(), "%s.%s on a paper-runner path must be the %s constant (or a parameter pinned to it by every caller)",
			cfg.OptionsType, pin.Field, pin.Want)
	}
	// A root runner that itself receives the policy as a parameter is never
	// pinned by the checked graph — its callers (CLIs, tests) are outside
	// it — so the need surfacing at a root is itself the violation.
	for fn := range roots {
		if len(needs[fn]) > 0 {
			pass.Reportf(bodies[fn].decl.Pos(), "paper-figure runner %s forwards a caller-supplied %s into %s.%s; runners must pin %s internally",
				fn.Name(), pin.Field, pkgBase(cfg.OptionsPkg), cfg.OptionsType, pin.Want)
		}
	}
	for fn := range reachable {
		b := bodies[fn]
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(b.pkg, call)
			if callee == nil || len(needs[callee]) == 0 {
				return true
			}
			for idx := range needs[callee] {
				if idx >= len(call.Args) {
					pass.Reportf(call.Pos(), "call to %s cannot be proven to pin %s (argument %d missing)", callee.Name(), pin.Field, idx)
					continue
				}
				arg := call.Args[idx]
				if isWantConst(b.pkg, arg, cfg, pin) {
					continue
				}
				if pidx, ok := paramIndexOf(b.pkg, fn, arg); ok && needs[fn][pidx] {
					continue
				}
				pass.Reportf(arg.Pos(), "call to %s on a paper-runner path passes an unpinned %s value; pass %s", callee.Name(), pin.Field, pin.Want)
			}
			return true
		})
	}
}

func hasName(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// isOptionsType reports whether lit constructs cfg.OptionsPkg.OptionsType.
func isOptionsType(pkg *Package, lit *ast.CompositeLit, cfg KernelpinConfig) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == cfg.OptionsType && obj.Pkg() != nil && obj.Pkg().Path() == cfg.OptionsPkg
}

// pinFieldValue returns the expression assigned to the pinned field in a
// keyed composite literal, or nil when the field is absent.
func pinFieldValue(lit *ast.CompositeLit, field string) ast.Expr {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return kv.Value
		}
	}
	return nil
}

// isWantConst reports whether e resolves to the pin.Want constant of the
// options package.
func isWantConst(pkg *Package, e ast.Expr, cfg KernelpinConfig, pin FieldPin) bool {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	c, ok := pkg.Info.Uses[id].(*types.Const)
	return ok && c.Name() == pin.Want && c.Pkg() != nil && c.Pkg().Path() == cfg.OptionsPkg
}

// paramIndexOf reports whether e is a direct reference to one of fn's
// parameters, and which.
func paramIndexOf(pkg *Package, fn *types.Func, e ast.Expr) (int, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return 0, false
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == obj {
			return i, true
		}
	}
	return 0, false
}
