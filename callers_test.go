package flips

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The three lists of what needs no product caller or reader. An entry is
// spelled the way declKey spells it: the package path relative to the
// module with internal/ dropped, then the name ("experiment.Build",
// "(*dist.Job).ObserveRound"); a field or parameter adds its name to its
// type's or function's ("experiment.BuildResult.Parties"); a
// standard-library interface is spelled by its import path. A stale entry
// fails the test too: one that names nothing, or one whose declaration has
// gained a product caller, whose field a product reader, or whose
// parameter a read.
var (
	// harnessOnly is what only benchmark/ calls, reads or passes. The
	// harness stops using each (ROADMAP direction 1(b)); the change that
	// deletes a name deletes its entry.
	harnessOnly = []string{
		"experiment.Build",
		"dist.NewJob",
		"(*dist.Job).ObserveRound",
		"metrics.ShardedClassCounts",
		"model.ClassCounts", // through ShardedClassCounts
		"model.TrainLocalScratch",
		"secagg.SplitSecret",
		"secagg.CombineShares",
		"secagg.AddPairMask",
		"core.ClusterLabelDistributions",
		"experiment.BuildResult.Parties",
		"fl.WeightedAverageDeltaShardedInto.pool",
		"fl.WeightedAverageDeltaShardedInto.shards",
		"fl.RobustDeltaShardedInto.pool",
		"fl.RobustDeltaShardedInto.shards",
	}

	// goldenFixtures are the golden jobs internal/fl's and internal/dist's
	// tests share, in internal/fl/goldens.go. What they call is not thereby
	// called by the product.
	goldenFixtures = []string{
		"fl.rotatingSelector",
		"fl.strideSelector",
		"fl.GoldenJob",
		"fl.GoldenLegacyConfig",
		"fl.GoldenDeviceConfig",
		"fl.GoldenAsyncConfig",
		"fl.GoldenSemiSyncConfig",
		"fl.GoldenChaosConfig",
		"fl.GoldenPrivacyConfig",
		"fl.GoldenConfigs",
	}

	// stdInterfaces are the standard-library interfaces whose methods a
	// module type implements for the standard library to call. A method an
	// interface declared in the module requires needs no entry.
	stdInterfaces = []string{
		"error",
		"fmt.Stringer",
		"encoding/json.Marshaler",
		"encoding/json.Unmarshaler",
	}
)

// analysis type-checks the module once for the tests below.
var analysis = sync.OnceValues(func() (findings, error) {
	m, err := checkModule(".")
	if err != nil {
		return findings{}, err
	}
	return m.analyze(), nil
})

func report(t *testing.T, msgs func(findings) []string) {
	t.Helper()
	f, err := analysis()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range msgs(f) {
		t.Error(msg)
	}
}

// TestEveryDeclarationHasAProductCaller type-checks every non-test package
// of the module outside benchmark/ and fails on each package-level func,
// type, var or const, and each method no interface requires, that no
// non-test code outside benchmark/ references. Code that only a test, the
// harness or a golden fixture reaches is deleted, not carried (ROADMAP,
// "product code has a product caller"). References are matched on
// type-checked objects, so a name another package or type shares does not
// stand in for a caller.
func TestEveryDeclarationHasAProductCaller(t *testing.T) {
	report(t, func(f findings) []string { return f.decls })
}

// TestEveryFieldHasAProductReader fails on each struct field that no
// non-test code outside benchmark/ reads. Any use reads a field but one
// alone on the left of = or := and a composite literal's key; every field
// of a struct a map is keyed by is read. An embedded field is read through
// what it promotes, and is not checked.
func TestEveryFieldHasAProductReader(t *testing.T) {
	report(t, func(f findings) []string { return f.fields })
}

// TestEveryParameterIsRead fails on each named parameter its function's
// body does not read, as the field rule counts reads. A signature something
// else sets is exempt: a method an interface requires, a function used as a
// value (the http handlers), and a function literal that is not bound to a
// name by := or an untyped var.
func TestEveryParameterIsRead(t *testing.T) {
	report(t, func(f findings) []string { return f.params })
}

// TestPublicSurfaceHasOutsideCallers fails on each exported package-level
// name of package flips that no other non-test package outside benchmark/
// references: the public surface is what the binaries and internal/server
// call.
func TestPublicSurfaceHasOutsideCallers(t *testing.T) {
	report(t, func(f findings) []string { return f.surface })
}

const modulePath = "flips"

// declKey names a package-level object or method as the lists spell it.
func declKey(obj types.Object) string {
	rel := pkgKey(obj.Pkg())
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			typ, star := recv.Type(), ""
			if p, ok := typ.(*types.Pointer); ok {
				typ, star = p.Elem(), "*"
			}
			return fmt.Sprintf("(%s%s.%s).%s", star, rel, typ.(*types.Named).Obj().Name(), f.Name())
		}
	}
	return rel + "." + obj.Name()
}

// pkgKey spells a module package as the lists do.
func pkgKey(pkg *types.Package) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), modulePath+"/"), "internal/")
}

// modulePkg is one type-checked package of the module.
type modulePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleChecker type-checks the module's packages once each, so every
// package sees the same object for a declaration it imports; the standard
// library comes from the "source" importer.
type moduleChecker struct {
	fset *token.FileSet
	std  types.ImporterFrom
	dirs map[string]string // import path -> directory
	pkgs map[string]*modulePkg
}

// checkModule type-checks every package under root, the module's root
// directory, except benchmark/ and testdata.
func checkModule(root string) (*moduleChecker, error) {
	// The standard library's pure-Go files type-check without a C
	// toolchain, which a run at another GOARCH may not have for cgo's.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*modulePkg{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) ||
			dir == filepath.Join(root, "benchmark") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err == nil {
			rel, _ := filepath.Rel(root, dir)
			m.dirs[path.Join(modulePath, filepath.ToSlash(rel))] = dir
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range m.dirs {
		if _, err := m.check(p); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.dirs[path]; !ok {
		return m.std.ImportFrom(path, dir, mode)
	}
	p, err := m.check(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// check type-checks the package at import path p, once.
func (m *moduleChecker) check(p string) (*modulePkg, error) {
	if mp, ok := m.pkgs[p]; ok {
		return mp, nil
	}
	bp, err := build.ImportDir(m.dirs[p], 0)
	if err != nil {
		return nil, err
	}
	mp := &modulePkg{info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		mp.files = append(mp.files, f)
	}
	conf := types.Config{Importer: m}
	if mp.pkg, err = conf.Check(p, m.fset, mp.files, mp.info); err != nil {
		return nil, err
	}
	m.pkgs[p] = mp
	return mp, nil
}

// decl is one top-level declaration: what it declares and, for a method,
// the receiver's type, whose uses inside the method are not callers either.
type decl struct {
	objs []types.Object
	node ast.Node
}

// decls lists a file's top-level declarations one spec or func at a time.
func (mp *modulePkg) decls(f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			objs := []types.Object{mp.info.Defs[d.Name]}
			if d.Recv != nil {
				objs = append(objs, recvTypeName(objs[0].(*types.Func)))
			}
			out = append(out, decl{objs, d})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				var objs []types.Object
				switch s := s.(type) {
				case *ast.TypeSpec:
					objs = append(objs, mp.info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if obj := mp.info.Defs[n]; obj != nil {
							objs = append(objs, obj)
						}
					}
				}
				out = append(out, decl{objs, s})
			}
		}
	}
	return out
}

func recvTypeName(f *types.Func) *types.TypeName {
	typ := f.Type().(*types.Signature).Recv().Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named).Obj()
}

// findings is what the guard's rules report, one sorted list of messages
// per rule. A stale list entry is reported under the rule it exempts from.
type findings struct {
	decls, fields, params, surface []string
}

// analyze applies every rule to the type-checked module.
func (m *moduleChecker) analyze() findings {
	exempt := map[string]bool{}
	for _, k := range slices.Concat(harnessOnly, goldenFixtures) {
		exempt[k] = true
	}

	// Every declaration the rule covers, and every product use of one: a
	// use inside the declaration of what it uses does not count, and one
	// inside an exempt declaration counts only once that declaration has a
	// product use itself (which makes its entry stale). A field's use counts
	// only where it reads the field.
	declared := map[types.Object]bool{}
	used := map[types.Object]bool{}
	fields := map[*types.Var]string{} // every struct field, by key
	valueUse := map[types.Object]bool{}
	outside := map[types.Object]bool{} // package flips's objects used by another package
	var params []param
	var ifaces []*types.Interface
	type exemptDecl struct {
		objs, uses []types.Object
		node       ast.Node
	}
	var pending []exemptDecl
	for _, mp := range m.pkgs {
		main := mp.pkg.Name() == "main"
		mp.fieldKeys(fields)
		for _, f := range mp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if mt, ok := n.(*ast.MapType); ok {
					key := ast.Unparen(mt.Key)
					if sel, ok := key.(*ast.SelectorExpr); ok {
						key = sel.Sel
					}
					if t := mp.info.TypeOf(key); t != nil {
						readAll(t, used)
					}
				}
				return true
			})
			w := mp.writes(f)
			called := calledIdents(f)
			params = append(params, mp.params(f, w)...)
			for _, d := range mp.decls(f) {
				skip := false
				for _, obj := range d.objs {
					if name := obj.Name(); name == "_" || name == "init" || main && name == "main" {
						continue
					}
					declared[obj] = true
					skip = skip || exempt[declKey(obj)]
					if tn, ok := obj.(*types.TypeName); ok {
						if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
							ifaces = append(ifaces, it)
						}
					}
				}
				var uses []types.Object
				ast.Inspect(d.node, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := origin(mp.info.Uses[id])
					if obj == nil || slices.Contains(d.objs, obj) || w[id] {
						return true
					}
					uses = append(uses, obj)
					if _, ok := obj.(*types.Func); ok && !called[id] {
						valueUse[obj] = true
					}
					if obj.Pkg() != nil && obj.Pkg().Path() == modulePath && mp.pkg.Path() != modulePath {
						outside[obj] = true
					}
					return true
				})
				if skip {
					pending = append(pending, exemptDecl{d.objs, uses, d.node})
					continue
				}
				for _, obj := range uses {
					used[obj] = true
				}
			}
		}
	}
	for grew := true; grew; {
		grew = false
		for i, d := range pending {
			if d.objs != nil && slices.ContainsFunc(d.objs, func(obj types.Object) bool { return used[obj] }) {
				for _, obj := range d.uses {
					used[obj] = true
				}
				pending[i].objs, grew = nil, true
			}
		}
	}

	// The listed standard-library interfaces, each of which some module
	// type must implement.
	var out findings
	stdUsed := map[string]bool{}
	stdIfaces := map[string]*types.Interface{}
	for _, name := range stdInterfaces {
		obj := types.Universe.Lookup(name)
		if i := strings.LastIndex(name, "."); i >= 0 {
			if pkg, err := m.std.Import(name[:i]); err == nil {
				obj = pkg.Scope().Lookup(name[i+1:])
			}
		}
		if obj == nil {
			out.decls = append(out.decls, fmt.Sprintf("stdInterfaces lists %s, which names no interface", name))
			continue
		}
		stdIfaces[name] = obj.Type().Underlying().(*types.Interface)
	}

	// requiredBy reports whether an interface requires method f of its
	// receiver type, and marks a listed standard-library interface used.
	requiredBy := func(f *types.Func) bool {
		named := recvTypeName(f).Type()
		implements := func(it *types.Interface) bool {
			obj, _, _ := types.LookupFieldOrMethod(it, false, f.Pkg(), f.Name())
			return obj != nil && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it))
		}
		for _, it := range ifaces {
			if implements(it) {
				return true
			}
		}
		required := false
		for name, it := range stdIfaces {
			if implements(it) {
				stdUsed[name], required = true, true
			}
		}
		return required
	}
	isMethod := func(obj types.Object) bool {
		f, ok := obj.(*types.Func)
		return ok && f.Type().(*types.Signature).Recv() != nil
	}

	keys := map[string]types.Object{}
	for obj := range declared {
		key := declKey(obj)
		keys[key] = obj
		if !used[obj] && !exempt[key] && !(isMethod(obj) && requiredBy(obj.(*types.Func))) {
			out.decls = append(out.decls, fmt.Sprintf("%s: %s has no product caller: delete it, or list it if only the harness or the golden fixtures call it", m.fset.Position(obj.Pos()), key))
		}
		if obj.Pkg().Path() == modulePath && obj.Exported() && !isMethod(obj) && !outside[obj] && !exempt[key] {
			out.surface = append(out.surface, fmt.Sprintf("%s: %s is exported but no package outside flips references it: unexport or delete it", m.fset.Position(obj.Pos()), key))
		}
	}
	// A field declared inside an exempt declaration that still has no
	// product use is exempt with it.
	inExempt := func(obj types.Object) bool {
		return slices.ContainsFunc(pending, func(d exemptDecl) bool {
			return d.objs != nil && d.node.Pos() <= obj.Pos() && obj.Pos() < d.node.End()
		})
	}
	for field, key := range fields {
		keys[key] = field
		if !used[field] && !exempt[key] && !inExempt(field) {
			out.fields = append(out.fields, fmt.Sprintf("%s: field %s is never read: delete it, or list it if only the harness reads it", m.fset.Position(field.Pos()), key))
		}
	}
	read := map[types.Object]bool{}
	for _, p := range params {
		if p.key != "" {
			keys[p.key] = p.obj
		}
		fixed := p.fixed || p.fn != nil && (valueUse[p.fn] || isMethod(p.fn) && requiredBy(p.fn))
		switch {
		case p.read:
			read[p.obj] = true
		case !fixed && !exempt[p.key]:
			out.params = append(out.params, fmt.Sprintf("%s: parameter %s is never read: delete it, or list it if only the harness passes it", m.fset.Position(p.obj.Pos()), cmp.Or(p.key, p.obj.Name())))
		}
	}
	for _, k := range slices.Concat(harnessOnly, goldenFixtures) {
		obj, ok := keys[k]
		list := &out.decls
		if v, isVar := obj.(*types.Var); isVar && v.IsField() {
			list = &out.fields
		} else if isVar {
			list = &out.params
		}
		switch {
		case !ok:
			*list = append(*list, fmt.Sprintf("stale entry %s names no declaration, field or parameter", k))
		case list == &out.params && read[obj]:
			*list = append(*list, fmt.Sprintf("stale entry %s: %s is read", k, m.fset.Position(obj.Pos())))
		case list != &out.params && used[obj]:
			*list = append(*list, fmt.Sprintf("stale entry %s: %s has a product reader", k, m.fset.Position(obj.Pos())))
		}
	}
	for _, name := range stdInterfaces {
		if _, ok := stdIfaces[name]; ok && !stdUsed[name] {
			out.decls = append(out.decls, fmt.Sprintf("stale entry %s: no module method needs it", name))
		}
	}
	for _, msgs := range []([]string){out.decls, out.fields, out.params, out.surface} {
		slices.Sort(msgs)
	}
	return out
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// fieldKeys names every field declared in the package: the type's key and
// the field's name, one more name per anonymous struct it sits in. A field
// of a struct no named type declares is keyed by its package alone.
func (mp *modulePkg) fieldKeys(keys map[*types.Var]string) {
	var walk func(st *types.Struct, prefix string)
	walk = func(st *types.Struct, prefix string) {
		for i := range st.NumFields() {
			f := st.Field(i)
			if f.Embedded() {
				continue // an embedded type is read through its promoted members
			}
			keys[f] = prefix + "." + f.Name()
			if inner, ok := f.Type().(*types.Struct); ok {
				walk(inner, keys[f])
			}
		}
	}
	rel := pkgKey(mp.pkg) + "."
	for _, obj := range mp.info.Defs {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !v.Embedded() {
			if _, ok := keys[v]; !ok {
				keys[v] = rel + v.Name()
			}
		}
	}
	for _, obj := range mp.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				walk(st, rel+tn.Name())
			}
		}
	}
}

// readAll marks every field of a struct type read, as a map keyed by it
// reads them all to hash and compare a key.
func readAll(t types.Type, used map[types.Object]bool) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := range u.NumFields() {
			f := u.Field(i)
			used[f.Origin()] = true
			readAll(f.Type(), used)
		}
	case *types.Array:
		readAll(u.Elem(), used)
	}
}

// writes returns the identifiers in f that only write what they name: a
// field or variable alone on the left of = or :=, and a composite literal's
// field key.
func (mp *modulePkg) writes(f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				break
			}
			for _, lhs := range n.Lhs {
				switch e := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					w[e] = true
				case *ast.SelectorExpr:
					w[e.Sel] = true
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := mp.info.Uses[id].(*types.Var); ok && v.IsField() {
					w[id] = true
				}
			}
		}
		return true
	})
	return w
}

// calledIdents returns the identifiers in f that name the function a call
// calls; any other use of a function is a use as a value.
func calledIdents(f *ast.File) map[*ast.Ident]bool {
	called := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fun := ast.Unparen(call.Fun)
			switch e := fun.(type) {
			case *ast.IndexExpr:
				fun = e.X
			case *ast.IndexListExpr:
				fun = e.X
			}
			switch e := fun.(type) {
			case *ast.Ident:
				called[e] = true
			case *ast.SelectorExpr:
				called[e.Sel] = true
			}
		}
		return true
	})
	return called
}

// param is one named parameter of a function with a body.
type param struct {
	obj   types.Object
	key   string      // declKey of its function and its name; "" in a literal
	fn    *types.Func // its declared function; nil for a literal
	fixed bool        // a literal whose context sets its signature
	read  bool
}

// params lists the named parameters of f's functions, and whether the body
// reads each. A function literal's signature is its own only where it is
// bound to a name by := or an untyped var; elsewhere the call, field or
// return it is passed to sets it.
func (mp *modulePkg) params(f *ast.File, w map[*ast.Ident]bool) []param {
	free := map[*ast.FuncLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var rhs []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				rhs = n.Rhs
			}
		case *ast.ValueSpec:
			if n.Type == nil {
				rhs = n.Values
			}
		}
		for _, e := range rhs {
			if lit, ok := ast.Unparen(e).(*ast.FuncLit); ok {
				free[lit] = true
			}
		}
		return true
	})
	var out []param
	ast.Inspect(f, func(n ast.Node) bool {
		var typ *ast.FuncType
		var body *ast.BlockStmt
		var fn *types.Func
		switch n := n.(type) {
		case *ast.FuncDecl:
			typ, body, fn = n.Type, n.Body, mp.info.Defs[n.Name].(*types.Func)
		case *ast.FuncLit:
			typ, body = n.Type, n.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		reads := map[types.Object]bool{}
		ast.Inspect(body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !w[id] {
				reads[mp.info.Uses[id]] = true
			}
			return true
		})
		for _, field := range typ.Params.List {
			for _, name := range field.Names {
				obj := mp.info.Defs[name]
				if obj == nil || obj.Name() == "_" {
					continue
				}
				p := param{obj: obj, fn: fn, read: reads[obj]}
				if fn != nil {
					p.key = declKey(fn) + "." + obj.Name()
				} else {
					p.fixed = !free[n.(*ast.FuncLit)]
				}
				out = append(out, p)
			}
		}
		return true
	})
	return out
}
