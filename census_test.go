//go:build census

package starvation

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCensus is the census of exported API. It type-checks every non-test
// file of the module, and bench/ as a caller only, and reports
//
//   - each exported func, type, const, var and method of a library package
//     that no non-test code outside the package names;
//   - each exported struct field that no non-test code sets: an option
//     nobody sets is a constant, and a result field nobody fills is dead.
//     A default fill, an assignment to x.F under an if that compares x.F
//     with a constant, does not count as setting F.
//
// A method that satisfies an interface, a type named in the type of
// something used outside its package, and a field in a JSON wire format
// are not reported. Every reported entry must appear in
// testdata/census.txt with a reason from keepReasons, and every entry
// there must still be reported. Run it with
//
//	go test -tags census -run Census .
func TestCensus(t *testing.T) {
	got, err := census(".")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := readKept(filepath.Join("testdata", "census.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, benchOnly := range got {
		reason, ok := kept[name]
		switch {
		case !ok:
			t.Errorf("%s has no non-test caller outside its package: give it one, unexport it, move it to a _test.go file, delete it, or list it in testdata/census.txt with a keep reason", name)
		case reason == "bench" && !benchOnly:
			t.Errorf("testdata/census.txt keeps %s for bench/, which does not use it", name)
		}
		delete(kept, name)
	}
	for name := range kept {
		t.Errorf("testdata/census.txt lists %s, which the census no longer reports: remove the line", name)
	}
}

// keepReasons is the closed list of reasons an entry may stay.
var keepReasons = map[string]bool{
	"bench":     true, // bench/ compiles against it (until ROADMAP item 4(e))
	"paper":     true, // a paper item (ROADMAP 1(b), 13) or a paper experiment's test consumes it
	"signature": true, // a type named in an exported signature, or a method an interface needs
}

func readKept(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kept := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || !keepReasons[fields[1]] {
			return nil, fmt.Errorf("%s:%d: want \"<name> <reason>\" with a reason from keepReasons, got %q", path, n, line)
		}
		kept[fields[0]] = fields[1]
	}
	return kept, sc.Err()
}

const modulePath = "starvation"

type censusPkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages from source on demand and
// everything else from the toolchain's export data.
type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*censusPkg
	order []*censusPkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.types, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"))
	p, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) check(path, dir string) (*censusPkg, error) {
	p := &censusPkg{path: path}
	l.pkgs[path] = p
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	l.order = append(l.order, p)
	return p, nil
}

// Where a use or a write comes from: the module's own non-test code, or
// bench/.
const (
	byModule uint8 = 1 << iota
	byBench
)

// census returns the entries the scan reports for the module rooted at
// root, each named "<package path below internal/>.<Name>[.<Member>]" and
// mapped to whether bench/ is its only user.
func census(root string) (map[string]bool, error) {
	l := &loader{root: root, fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*censusPkg{}}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			name := d.Name()
			if name == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := modulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	module := append([]*censusPkg(nil), l.order...)
	// bench/ is a module of its own that compiles against this one: its
	// uses count, its declarations are not censused.
	if _, err := l.check(modulePath+"/bench", filepath.Join(root, "bench")); err != nil {
		return nil, err
	}

	used := map[types.Object]uint8{}
	set := map[types.Object]uint8{}
	defaultFills := map[*ast.AssignStmt]bool{}
	for _, p := range l.order {
		by := byModule
		if p.path == modulePath+"/bench" {
			by = byBench
		}
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				used[origin(obj)] |= by
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				// mark records every field on the path of an assigned
				// operand: setting x.A.B sets A too.
				mark := func(e ast.Expr) {
					for {
						switch x := ast.Unparen(e).(type) {
						case *ast.SelectorExpr:
							if obj := p.info.Uses[x.Sel]; obj != nil {
								set[origin(obj)] |= by
							}
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.StarExpr:
							e = x.X
						default:
							return
						}
					}
				}
				switch n := n.(type) {
				case *ast.IfStmt:
					tested := constTested(p.info, n.Cond)
					for _, st := range n.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && slices.Contains(tested, types.ExprString(as.Lhs[0])) {
							defaultFills[as] = true
						}
					}
				case *ast.CompositeLit:
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := p.info.Uses[id].(*types.Var); ok {
									set[origin(v)] |= by
								}
							}
						} else if i < st.NumFields() {
							set[origin(st.Field(i))] |= by
						}
					}
				case *ast.AssignStmt:
					if defaultFills[n] {
						break
					}
					for _, e := range n.Lhs {
						mark(e)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}

	ifaces := interfaces(l.order)
	satisfies := func(named *types.Named, m *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	// A type named in the type of a used object is part of a live
	// signature, and so are the types of its exported fields and used
	// methods.
	inSignature := map[types.Object]bool{}
	var visit func(t types.Type)
	seen := map[types.Type]bool{}
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			obj := t.Obj()
			inSignature[obj] = true
			for i := 0; i < t.TypeArgs().Len(); i++ {
				visit(t.TypeArgs().At(i))
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i).Exported() {
						visit(st.Field(i).Type())
					}
				}
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() && used[m] != 0 {
					visit(m.Type())
				}
			}
			if it, ok := t.Underlying().(*types.Interface); ok {
				visit(it)
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				visit(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				visit(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				visit(t.Method(i).Type())
			}
		}
	}
	for obj := range used {
		visit(obj.Type())
	}

	out := map[string]bool{}
	report := func(p *censusPkg, name string, by uint8) {
		out[strings.TrimPrefix(strings.TrimPrefix(p.path, modulePath+"/"), "internal/")+"."+name] = by&byBench != 0
	}
	for _, p := range module {
		if p.types.Name() == "main" || p.path == modulePath {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if used[obj]&byModule == 0 && !inSignature[obj] {
				report(p, name, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && used[m]&byModule == 0 && !satisfies(named, m) {
						report(p, name+"."+m.Name(), used[m])
					}
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				if set[f]&byModule == 0 && !strings.Contains(st.Tag(i), `json:"`) {
					report(p, name+"."+f.Name(), set[f])
				}
			}
		}
	}
	return out, nil
}

// constTested returns each field selector x.F that cond compares with a
// constant (x.F <= 0, x.F == "", x.F == nil, x.F <= 1, x.F >= 1), also
// in any operand of an ||, as in x.F <= 0 || x.F > 1.
func constTested(info *types.Info, cond ast.Expr) []string {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch b.Op {
	case token.LOR:
		return append(constTested(info, b.X), constTested(info, b.Y)...)
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return nil
	}
	sel, ok := ast.Unparen(b.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if _, isField := info.Uses[sel.Sel].(*types.Var); !isField {
		return nil
	}
	if y := info.Types[b.Y]; y.Value == nil && !y.IsNil() {
		return nil
	}
	return []string{types.ExprString(sel)}
}

// origin maps an instantiated generic member back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces returns every non-empty interface the packages declare,
// spell out, or import by name, plus error.
func interfaces(pkgs []*censusPkg) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scanned := map[*types.Package]bool{}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, imp := range append(p.types.Imports(), p.types) {
			if scanned[imp] {
				continue
			}
			scanned[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	return out
}

// TestCensusConstTested checks which if conditions mark an assignment in
// their body as a default fill.
func TestCensusConstTested(t *testing.T) {
	cases := []struct {
		cond string
		want []string
	}{
		{"c.R == 0", []string{"c.R"}},
		{"c.R <= 1", []string{"c.R"}},
		{"c.R < limit", []string{"c.R"}},
		{"c.S <= 0 || c.S >= 1", []string{"c.S", "c.S"}},
		{"(c.S > 1)", []string{"c.S"}},
		{`c.N == ""`, []string{"c.N"}},
		{"c.P == nil", []string{"c.P"}},
		{"c.R != 2", []string{"c.R"}},
		{"c.R < c.S", nil},
		{"c.R > 2 && c.S > 1", nil},
		{"r <= 0", nil},
		{"0 >= c.R", nil},
	}
	src := "package p\n\nconst limit = 3\n\ntype C struct {\n\tR, S float64\n\tN    string\n\tP    *int\n}\n\nfunc f(c C, r float64) {\n"
	for _, tc := range cases {
		src += "\tif " + tc.cond + " {\n\t}\n"
	}
	src += "}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	body := f.Decls[len(f.Decls)-1].(*ast.FuncDecl).Body.List
	for i, tc := range cases {
		if got := constTested(info, body[i].(*ast.IfStmt).Cond); !slices.Equal(got, tc.want) {
			t.Errorf("constTested(%s) = %q, want %q", tc.cond, got, tc.want)
		}
	}
}
