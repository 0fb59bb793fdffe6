package flips

import (
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
	"testing"
)

// The three lists of declarations that need no product caller. An entry is
// spelled the way declKey spells it: the package path relative to the
// module with internal/ dropped, then the name ("experiment.Build",
// "(*dist.Job).ObserveRound"); a standard-library interface by its import
// path. A stale entry fails the test too: one that names nothing, or one
// whose declaration has gained a product caller.
var (
	// harnessOnly is what only benchmark/ calls. The harness stops calling
	// each (ROADMAP direction 1(b)); the change that deletes a name deletes
	// its entry.
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

// TestEveryDeclarationHasAProductCaller type-checks every non-test package
// of the module outside benchmark/ and fails on each package-level func,
// type, var or const, and each method no interface requires, that no
// non-test code outside benchmark/ references. Code that only a test, the
// harness or a golden fixture reaches is deleted, not carried (ROADMAP,
// "product code has a product caller"). References are matched on
// type-checked objects, so a name another package or type shares does not
// stand in for a caller.
func TestEveryDeclarationHasAProductCaller(t *testing.T) {
	m, err := checkModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range m.uncalled() {
		t.Error(msg)
	}
}

const modulePath = "flips"

// declKey names a package-level object or method as the lists spell it.
func declKey(obj types.Object) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/"), "internal/")
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

// uncalled returns one message per declaration with no product caller and
// per stale list entry, sorted.
func (m *moduleChecker) uncalled() []string {
	exempt := map[string]bool{}
	for _, k := range slices.Concat(harnessOnly, goldenFixtures) {
		exempt[k] = true
	}

	// Every declaration the rule covers, and every product use of one: a
	// use inside the declaration of what it uses does not count, and one
	// inside an exempt declaration counts only once that declaration has a
	// product use itself (which makes its entry stale).
	declared := map[types.Object]bool{}
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	type exemptDecl struct{ objs, uses []types.Object }
	var pending []exemptDecl
	for _, mp := range m.pkgs {
		main := mp.pkg.Name() == "main"
		for _, f := range mp.files {
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
					if id, ok := n.(*ast.Ident); ok {
						obj := mp.info.Uses[id]
						if f, ok := obj.(*types.Func); ok {
							obj = f.Origin()
						}
						if obj != nil && !slices.Contains(d.objs, obj) {
							uses = append(uses, obj)
						}
					}
					return true
				})
				if skip {
					pending = append(pending, exemptDecl{d.objs, uses})
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
	stdUsed := map[string]bool{}
	stdIfaces := map[string]*types.Interface{}
	var msgs []string
	for _, name := range stdInterfaces {
		obj := types.Universe.Lookup(name)
		if i := strings.LastIndex(name, "."); i >= 0 {
			if pkg, err := m.std.Import(name[:i]); err == nil {
				obj = pkg.Scope().Lookup(name[i+1:])
			}
		}
		if obj == nil {
			msgs = append(msgs, fmt.Sprintf("stdInterfaces lists %s, which names no interface", name))
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

	keys := map[string]types.Object{}
	for obj := range declared {
		key := declKey(obj)
		keys[key] = obj
		if used[obj] || exempt[key] {
			continue
		}
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil && requiredBy(f) {
			continue
		}
		msgs = append(msgs, fmt.Sprintf("%s: %s has no product caller: delete it, or list it if only the harness or the golden fixtures call it", m.fset.Position(obj.Pos()), key))
	}
	for _, k := range slices.Concat(harnessOnly, goldenFixtures) {
		switch obj, ok := keys[k]; {
		case !ok:
			msgs = append(msgs, fmt.Sprintf("stale entry %s names no declaration", k))
		case used[obj]:
			msgs = append(msgs, fmt.Sprintf("stale entry %s: %s has a product caller", k, m.fset.Position(obj.Pos())))
		}
	}
	for _, name := range stdInterfaces {
		if _, ok := stdIfaces[name]; ok && !stdUsed[name] {
			msgs = append(msgs, fmt.Sprintf("stale entry %s: no module method needs it", name))
		}
	}
	slices.Sort(msgs)
	return msgs
}
