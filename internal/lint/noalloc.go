package lint

// noalloc is the annotation-driven zero-alloc prover. The paper's throughput
// claims (Fig 13-16) assume the per-task inner loop — the set-operation
// kernels, the extension walk, the cMap probes, the auxiliary-graph
// activation — never touches the heap: the AllocsPerRun tests pin that at
// runtime for the inputs they happen to run, and noalloc pins it at the
// source level for every input.
//
// A function opts in by carrying the directive comment
//
//	//flexlint:noalloc
//
// immediately above its declaration (or above an interface method, which
// obligates every implementing type in the module). Inside an annotated
// body the prover rejects every construct that can allocate:
//
//   - make/new and slice/map composite literals, and &T{...} (heap escape);
//     plain value struct/array literals are fine;
//   - append whose destination does not trace to a parameter, a struct field
//     (the pooled scratch buffers: worker.mergeA, auxState.arena), or a
//     value derived from one — growing a fresh local slice allocates;
//   - interface boxing at call arguments, assignments, and returns;
//   - string concatenation and string<->[]byte conversions (numeric and
//     named-type conversions are free);
//   - closures, except immediately-invoked literals and literals bound to a
//     local that is only ever called directly (the `step := func(...)`
//     idiom — non-escaping, stack-allocated);
//   - go statements and panic.
//
// Calls are closed over the annotation: a callee must itself be annotated or
// appear on the Allow list. Allow entries use the types.Func FullName with
// pointers stripped — "(repro/internal/cmap.HashMap).Lookup",
// "repro/internal/setops.Bounded" — plus "(pkg.Type).field" for dynamic
// calls through a function-typed field (worker.visit). Allowlisting is the
// escape hatch for functions that are zero-alloc on the hot path but not
// provably so (Store.Adj implementations, the trace-gated emitTaskTrace).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const noallocDirective = "//flexlint:noalloc"

// NoallocConfig parameterizes the prover.
type NoallocConfig struct {
	// Allow lists callee keys that annotated functions may call without the
	// callee being annotated: normalized FullName ("pkg.Func",
	// "(pkg.Type).Method" with '*' stripped) or "(pkg.Type).field" for
	// dynamic calls through function-typed fields.
	Allow []string
}

// Noalloc is the production instance. The allowlist is deliberately tiny and
// every entry carries its justification here:
//
//   - (repro/internal/graph.Store).Adj: the interface's implementations are
//     zero-alloc slice views, but Sharded.Adj routes through sort.Search
//     (a non-escaping closure the prover cannot see through);
//   - (repro/internal/core.worker).visit: a dynamic function-typed field; the
//     engine's own visitors are zero-alloc, user listeners are out of scope;
//   - (repro/internal/core.worker).emitTaskTrace: builds obs.Arg literals,
//     but only behind Tracer.Enabled — off the measured path by construction.
var Noalloc = NewNoalloc(NoallocConfig{
	Allow: []string{
		"(repro/internal/graph.Store).Adj",
		"(repro/internal/core.worker).visit",
		"(repro/internal/core.worker).emitTaskTrace",
	},
})

// NewNoalloc builds a noalloc instance.
func NewNoalloc(cfg NoallocConfig) *Analyzer {
	allow := map[string]bool{}
	for _, k := range cfg.Allow {
		allow[k] = true
	}
	return &Analyzer{
		Name:        "noalloc",
		Doc:         "//flexlint:noalloc functions must be provably heap-allocation-free and may only call annotated or allowlisted functions",
		ProgramWide: true,
		Run:         func(pass *Pass) { runNoalloc(pass, allow) },
	}
}

// noallocObligation records one annotated interface method: every module
// type implementing the interface owes an annotated implementation.
type noallocObligation struct {
	pkg       *Package
	ifaceName string
	iface     *types.Interface
	meth      *types.Func
}

func runNoalloc(pass *Pass, allow map[string]bool) {
	prog := pass.Prog
	bodies := indexFuncs(prog)
	annotated := map[*types.Func]bool{}
	var obligations []noallocObligation

	// Pass 1: collect the annotated set — function/method declarations and
	// interface method specs carrying the directive.
	for _, pkg := range prog.Packages() {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if hasNoallocDirective(d.Doc) {
						if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
							annotated[fn] = true
						}
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok || it.Methods == nil {
							continue
						}
						for _, m := range it.Methods.List {
							if len(m.Names) != 1 || !hasNoallocDirective(m.Doc) {
								continue
							}
							fn, ok := pkg.Info.Defs[m.Names[0]].(*types.Func)
							if !ok {
								continue
							}
							annotated[fn] = true
							tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
							if !ok {
								continue
							}
							iface, ok := tn.Type().Underlying().(*types.Interface)
							if !ok {
								continue
							}
							obligations = append(obligations, noallocObligation{
								pkg: pkg, ifaceName: ts.Name.Name, iface: iface, meth: fn,
							})
						}
					}
				}
			}
		}
	}
	if len(annotated) == 0 {
		return
	}

	// Pass 2: prove every annotated body.
	for _, pkg := range prog.Packages() {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasNoallocDirective(fd.Doc) {
					continue
				}
				c := &noallocChecker{
					pass:      pass,
					pkg:       pkg,
					allow:     allow,
					annotated: annotated,
				}
				c.checkFunc(fd)
			}
		}
	}

	// Pass 3: interface obligations. A type implementing an annotated
	// interface method must annotate (and thereby prove) its implementation,
	// or calls through the interface silently void the contract.
	reported := map[*types.Func]bool{}
	for _, pkg := range prog.Packages() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			for _, ob := range obligations {
				// Fixture interfaces obligate fixture types only (and vice
				// versa) so testdata packages never leak diagnostics into the
				// production tree.
				if ob.pkg.Testdata != pkg.Testdata {
					continue
				}
				if !types.Implements(named, ob.iface) &&
					!types.Implements(types.NewPointer(named), ob.iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, ob.meth.Pkg(), ob.meth.Name())
				concrete, ok := obj.(*types.Func)
				if !ok || annotated[concrete] || reported[concrete] {
					continue
				}
				reported[concrete] = true
				pos := tn.Pos()
				if fb, ok := bodies[concrete]; ok {
					pos = fb.decl.Name.Pos()
				}
				pass.Reportf(pos, "%s implements %s.%s, which is //flexlint:noalloc; annotate this method so the interface contract stays provable",
					named.Obj().Name(), ob.ifaceName, ob.meth.Name())
			}
		}
	}
}

// hasNoallocDirective reports whether a doc group carries the directive.
func hasNoallocDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == noallocDirective {
			return true
		}
	}
	return false
}

// noallocKey is the Allow/annotation lookup key of a declared function:
// FullName with pointer markers stripped, so "(*pkg.T).M" and "(pkg.T).M"
// name the same method.
func noallocKey(fn *types.Func) string {
	return strings.ReplaceAll(fn.FullName(), "*", "")
}

// NoallocAnnotated returns the sorted keys of every annotated declaration in
// the production (non-testdata) packages — declared functions and interface
// methods. The hot-path coverage test asserts against this set.
func NoallocAnnotated(prog *Program) []string {
	var out []string
	for _, pkg := range prog.Packages() {
		if pkg.Testdata {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if hasNoallocDirective(d.Doc) {
						if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
							out = append(out, noallocKey(fn))
						}
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						it, ok := ts.Type.(*ast.InterfaceType)
						if !ok || it.Methods == nil {
							continue
						}
						for _, m := range it.Methods.List {
							if len(m.Names) == 1 && hasNoallocDirective(m.Doc) {
								if fn, ok := pkg.Info.Defs[m.Names[0]].(*types.Func); ok {
									out = append(out, noallocKey(fn))
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// noallocChecker proves one annotated function body.
type noallocChecker struct {
	pass      *Pass
	pkg       *Package
	allow     map[string]bool
	annotated map[*types.Func]bool

	paramVars   map[*types.Var]bool   // params + receivers, incl. closure params
	closureVars map[*types.Var]bool   // locals bound to a FuncLit and only called
	allowedLits map[*ast.FuncLit]bool // IIFEs and direct-called closure bodies
	varOrigins  map[*types.Var][]ast.Expr
	handledLits map[*ast.CompositeLit]bool // already reported at an enclosing &
	returnSigs  map[*ast.ReturnStmt]*types.Tuple
}

func (c *noallocChecker) reportf(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, format, args...)
}

func (c *noallocChecker) checkFunc(fd *ast.FuncDecl) {
	c.paramVars = map[*types.Var]bool{}
	c.closureVars = map[*types.Var]bool{}
	c.allowedLits = map[*ast.FuncLit]bool{}
	c.varOrigins = map[*types.Var][]ast.Expr{}
	c.handledLits = map[*ast.CompositeLit]bool{}
	c.returnSigs = map[*ast.ReturnStmt]*types.Tuple{}

	c.collectParams(fd.Recv)
	c.collectParams(fd.Type.Params)
	c.prepass(fd)
	if fn, ok := c.pkg.Info.Defs[fd.Name].(*types.Func); ok {
		c.collectReturns(fd.Body, fn.Type().(*types.Signature))
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if !c.allowedLits[x] {
				c.reportf(x.Pos(), "closure escapes (stored or passed as a value); an escaping closure allocates — hoist it to a named //flexlint:noalloc function or call it directly")
				return false
			}
			return true
		case *ast.GoStmt:
			c.reportf(x.Pos(), "go statement allocates a goroutine stack; not allowed in a //flexlint:noalloc function")
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					c.handledLits[lit] = true
					c.reportf(x.Pos(), "&%s literal escapes to the heap", c.typeString(lit))
				}
			}
		case *ast.CompositeLit:
			c.checkCompositeLit(x)
		case *ast.CallExpr:
			c.checkCall(x)
		case *ast.BinaryExpr:
			c.checkBinary(x)
		case *ast.AssignStmt:
			c.checkAssign(x)
		case *ast.ValueSpec:
			c.checkValueSpec(x)
		case *ast.ReturnStmt:
			c.checkReturn(x)
		}
		return true
	})
}

// collectParams marks a field list's names as allocation-free append roots.
func (c *noallocChecker) collectParams(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, name := range f.Names {
			if v, ok := c.pkg.Info.Defs[name].(*types.Var); ok {
				c.paramVars[v] = true
			}
		}
	}
}

// prepass walks the whole declaration once to classify closures, record
// local-variable origins for the append rule, and pick up closure params.
func (c *noallocChecker) prepass(fd *ast.FuncDecl) {
	// Identifiers appearing in call-function position.
	calledIdents := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			calledIdents[id] = true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			c.allowedLits[lit] = true // immediately-invoked: never escapes
		}
		return true
	})

	// Closure candidates: `step := func(...) {...}` single-assignments.
	litOf := map[*types.Var]*ast.FuncLit{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.collectParams(x.Type.Params)
		case *ast.AssignStmt:
			c.recordOrigins(x)
			if x.Tok == token.DEFINE && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				id, ok := x.Lhs[0].(*ast.Ident)
				if !ok {
					return true
				}
				lit, ok := x.Rhs[0].(*ast.FuncLit)
				if !ok {
					return true
				}
				if v, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
					litOf[v] = lit
				}
			}
		case *ast.ValueSpec:
			c.recordSpecOrigins(x)
		case *ast.RangeStmt:
			c.recordRangeOrigins(x)
		}
		return true
	})

	// A closure var is direct-called when every use is a call head.
	for v, lit := range litOf {
		direct := true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || c.pkg.Info.Uses[id] != v {
				return true
			}
			if !calledIdents[id] {
				direct = false
			}
			return true
		})
		if direct {
			c.closureVars[v] = true
			c.allowedLits[lit] = true
		}
	}
}

// recordOrigins maps assigned local slice variables to their source
// expressions for the append-root rule.
func (c *noallocChecker) recordOrigins(a *ast.AssignStmt) {
	if len(a.Lhs) != len(a.Rhs) {
		// Multi-value from a single call: the origin is callee-produced.
		if len(a.Rhs) == 1 {
			for _, lhs := range a.Lhs {
				if v := c.lhsVar(lhs, a.Tok); v != nil {
					c.varOrigins[v] = append(c.varOrigins[v], a.Rhs[0])
				}
			}
		}
		return
	}
	for i, lhs := range a.Lhs {
		if v := c.lhsVar(lhs, a.Tok); v != nil {
			c.varOrigins[v] = append(c.varOrigins[v], a.Rhs[i])
		}
	}
}

func (c *noallocChecker) recordSpecOrigins(s *ast.ValueSpec) {
	for i, name := range s.Names {
		v, ok := c.pkg.Info.Defs[name].(*types.Var)
		if !ok {
			continue
		}
		if i < len(s.Values) {
			c.varOrigins[v] = append(c.varOrigins[v], s.Values[i])
		}
	}
}

func (c *noallocChecker) recordRangeOrigins(r *ast.RangeStmt) {
	// `for _, row := range field` derives row from the ranged container.
	if r.Value == nil {
		return
	}
	id, ok := r.Value.(*ast.Ident)
	if !ok {
		return
	}
	if v, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
		c.varOrigins[v] = append(c.varOrigins[v], r.X)
	}
}

func (c *noallocChecker) lhsVar(lhs ast.Expr, tok token.Token) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	if tok == token.DEFINE {
		if v, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
			return v
		}
	}
	v, _ := c.pkg.Info.Uses[id].(*types.Var)
	return v
}

// collectReturns records the result tuple governing each return statement,
// descending into allowed closures with their own signatures.
func (c *noallocChecker) collectReturns(body *ast.BlockStmt, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if litSig, ok := c.pkg.Info.Types[x].Type.(*types.Signature); ok {
				c.collectReturns(x.Body, litSig)
			}
			return false
		case *ast.ReturnStmt:
			c.returnSigs[x] = sig.Results()
		}
		return true
	})
}

func (c *noallocChecker) typeString(e ast.Expr) string {
	if tv, ok := c.pkg.Info.Types[e]; ok && tv.Type != nil {
		return types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() })
	}
	return "composite"
}

func (c *noallocChecker) checkCompositeLit(lit *ast.CompositeLit) {
	if c.handledLits[lit] {
		return
	}
	tv, ok := c.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		c.reportf(lit.Pos(), "slice literal %s allocates its backing array", c.typeString(lit))
	case *types.Map:
		c.reportf(lit.Pos(), "map literal %s allocates", c.typeString(lit))
	}
	// Value struct/array literals live in registers or on the stack: allowed.
}

func (c *noallocChecker) checkCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := c.pkg.Info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(call, b.Name())
			return
		}
	}
	c.checkArgBoxing(call)
	if fn := calleeOf(c.pkg, call); fn != nil {
		if c.annotated[fn] || c.allow[noallocKey(fn)] {
			return
		}
		c.reportf(call.Pos(), "call to %s, which is neither //flexlint:noalloc nor allowlisted; its allocations are unproven", noallocKey(fn))
		return
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return // immediately-invoked; body is checked in place
	case *ast.Ident:
		if v, ok := c.pkg.Info.Uses[fun].(*types.Var); ok && c.closureVars[v] {
			return // direct-called local closure; body is checked in place
		}
		c.reportf(call.Pos(), "dynamic call through function value %s; the callee cannot be proven allocation-free", fun.Name)
	case *ast.SelectorExpr:
		if v, ok := c.pkg.Info.Uses[fun.Sel].(*types.Var); ok && v.IsField() {
			if named := namedTypeOf(c.pkg, fun.X); named != nil && named.Obj().Pkg() != nil {
				key := fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), fun.Sel.Name)
				if c.allow[key] {
					return
				}
			}
		}
		c.reportf(call.Pos(), "dynamic call through %s; the callee cannot be proven allocation-free (allowlist it if every installed value is zero-alloc)", fun.Sel.Name)
	default:
		c.reportf(call.Pos(), "dynamic call; the callee cannot be proven allocation-free")
	}
}

func (c *noallocChecker) checkBuiltin(call *ast.CallExpr, name string) {
	switch name {
	case "append":
		if len(call.Args) > 0 && !c.allowedSliceExpr(call.Args[0], map[*types.Var]bool{}) {
			c.reportf(call.Pos(), "append grows a slice that does not trace to a parameter or pooled field buffer; growth allocates")
		}
	case "make":
		c.reportf(call.Pos(), "make allocates")
	case "new":
		c.reportf(call.Pos(), "new allocates")
	case "panic":
		c.reportf(call.Pos(), "panic boxes its argument and unwinds; not allowed in a //flexlint:noalloc function")
	case "print", "println":
		c.reportf(call.Pos(), "%s allocates; not allowed in a //flexlint:noalloc function", name)
	}
	// len/cap/copy/delete/close/min/max/real/imag/complex/recover are free.
}

func (c *noallocChecker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	from := c.pkg.Info.Types[arg].Type
	if from == nil {
		return
	}
	if isInterfaceType(to) && !isInterfaceType(from) && !c.pkg.Info.Types[arg].IsNil() {
		c.reportf(call.Pos(), "conversion of %s to interface %s boxes it", from, to)
		return
	}
	toU, fromU := to.Underlying(), from.Underlying()
	if tb, ok := toU.(*types.Basic); ok && tb.Info()&types.IsString != 0 {
		if _, ok := fromU.(*types.Slice); ok {
			c.reportf(call.Pos(), "[]byte/[]rune-to-string conversion copies; not allowed in a //flexlint:noalloc function")
		}
		return
	}
	if ts, ok := toU.(*types.Slice); ok {
		if fb, ok := fromU.(*types.Basic); ok && fb.Info()&types.IsString != 0 {
			c.reportf(call.Pos(), "string-to-%s conversion copies; not allowed in a //flexlint:noalloc function", types.TypeString(ts, nil))
		}
	}
}

// checkArgBoxing flags non-interface arguments passed to interface
// parameters — each such pass boxes the value.
func (c *noallocChecker) checkArgBoxing(call *ast.CallExpr) {
	tv, ok := c.pkg.Info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !isInterfaceType(pt) {
			continue
		}
		at := c.pkg.Info.Types[arg]
		if at.Type == nil || isInterfaceType(at.Type) || at.IsNil() {
			continue
		}
		c.reportf(arg.Pos(), "passing %s to interface parameter boxes it; every call allocates", at.Type)
	}
}

func (c *noallocChecker) checkBinary(x *ast.BinaryExpr) {
	if x.Op != token.ADD {
		return
	}
	tv, ok := c.pkg.Info.Types[x]
	if !ok || tv.Type == nil || tv.Value != nil { // constant folding is free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		c.reportf(x.Pos(), "string concatenation allocates; not allowed in a //flexlint:noalloc function")
	}
}

func (c *noallocChecker) checkAssign(a *ast.AssignStmt) {
	if a.Tok == token.ADD_ASSIGN && len(a.Lhs) == 1 {
		if tv, ok := c.pkg.Info.Types[a.Lhs[0]]; ok && tv.Type != nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				c.reportf(a.Pos(), "string concatenation allocates; not allowed in a //flexlint:noalloc function")
			}
		}
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i := range a.Lhs {
		var lt types.Type
		if a.Tok == token.DEFINE {
			if id, ok := a.Lhs[i].(*ast.Ident); ok {
				if v, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
					lt = v.Type()
				}
			}
		} else if tv, ok := c.pkg.Info.Types[a.Lhs[i]]; ok {
			lt = tv.Type
		}
		c.checkBoxedInto(lt, a.Rhs[i])
	}
}

func (c *noallocChecker) checkValueSpec(s *ast.ValueSpec) {
	if s.Type == nil {
		return
	}
	tv, ok := c.pkg.Info.Types[s.Type]
	if !ok {
		return
	}
	for _, val := range s.Values {
		c.checkBoxedInto(tv.Type, val)
	}
}

func (c *noallocChecker) checkReturn(r *ast.ReturnStmt) {
	results := c.returnSigs[r]
	if results == nil || len(r.Results) != results.Len() {
		return
	}
	for i, e := range r.Results {
		c.checkBoxedInto(results.At(i).Type(), e)
	}
}

// checkBoxedInto flags storing a concrete value into an interface slot.
func (c *noallocChecker) checkBoxedInto(into types.Type, val ast.Expr) {
	if into == nil || !isInterfaceType(into) {
		return
	}
	tv := c.pkg.Info.Types[val]
	if tv.Type == nil || isInterfaceType(tv.Type) || tv.IsNil() {
		return
	}
	c.reportf(val.Pos(), "storing %s into interface %s boxes it", tv.Type, into)
}

// allowedSliceExpr reports whether an append destination traces to a
// parameter, a field (pooled scratch), or a value derived from one — the
// shapes whose growth the caller owns and the AllocsPerRun tests measure.
func (c *noallocChecker) allowedSliceExpr(e ast.Expr, seen map[*types.Var]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := c.pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return false
		}
		return c.allowedSliceVar(v, seen)
	case *ast.SelectorExpr:
		v, ok := c.pkg.Info.Uses[x.Sel].(*types.Var)
		return ok && v.IsField()
	case *ast.SliceExpr:
		return c.allowedSliceExpr(x.X, seen)
	case *ast.IndexExpr:
		return c.allowedSliceExpr(x.X, seen)
	case *ast.StarExpr:
		return c.allowedSliceExpr(x.X, seen)
	case *ast.CallExpr:
		// `buf = append(buf, x)` must not launder buf through the call rule:
		// trace builtins and conversions through their operand instead.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok {
				if b.Name() == "append" && len(x.Args) > 0 {
					return c.allowedSliceExpr(x.Args[0], seen)
				}
				return false
			}
		}
		if tv, ok := c.pkg.Info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() {
			return len(x.Args) == 1 && c.allowedSliceExpr(x.Args[0], seen)
		}
		// A callee-produced buffer: the callee is proven (or flagged)
		// separately, and by the noalloc contract it returns caller-owned
		// storage (dst = w.setOp(dst, ...)).
		return true
	}
	return false
}

func (c *noallocChecker) allowedSliceVar(v *types.Var, seen map[*types.Var]bool) bool {
	if v.IsField() || c.paramVars[v] {
		return true
	}
	if seen[v] {
		return false
	}
	seen[v] = true
	for _, origin := range c.varOrigins[v] {
		if c.allowedSliceExpr(origin, seen) {
			return true
		}
	}
	return false
}

func isInterfaceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
