package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestGuards holds the rules of this repository that the compiler does not.
// It parses and type-checks every package of the module and of the benchmark
// module bench/, each with its in-package tests and its _test package (as
// `go list -deps -test` orders them), and fails on any type error. Objects
// are matched by declaration position, never by name, so a field is the same
// field in every package that sees it and no other. Each rule is a subtest
// whose failures name file:line.
func TestGuards(t *testing.T) {
	src := loadSource(t)
	for _, rule := range []struct {
		name  string
		check func(t *testing.T) []string
	}{
		{"stat readers", src.statReaders},
		{"bench-only", src.benchOnly},
		{"named tests", src.namedTests},
		{"one free list", src.oneFreeList},
		{"one size rule", src.oneSizeRule},
		{"one media default", src.oneMediaDefault},
		{"callers", src.callers},
	} {
		t.Run(rule.name, func(t *testing.T) {
			errs := rule.check(t)
			slices.Sort(errs)
			for _, e := range slices.Compact(errs) {
				t.Error(e)
			}
		})
	}
}

// source is every Go file of both modules, parsed once and type-checked.
type source struct {
	root  string
	fset  *token.FileSet
	files []*goFile
	pkgs  map[string]*types.Package // non-test packages by import path
}

type goFile struct {
	rel   string // slash path from the repository root
	ast   *ast.File
	info  *types.Info // from the first check that included the file
	test  bool        // a _test.go file
	bench bool        // in the benchmark module
}

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath, Dir, ForTest string
	Standard                 bool
	GoFiles                  []string
	ImportMap                map[string]string
	Module                   *struct{ GoVersion string }
	Error                    *struct{ Err string }
}

func loadSource(t *testing.T) *source {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := &source{root: root, fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
	// List every directory so that go test's result cache sees a file added
	// anywhere (it hashes the listing of each directory the test opens).
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return fs.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(s.fset, "source", nil)
	checked := map[string]*types.Package{} // by go list's import path, test variants apart
	seen := map[string]*goFile{}
	var typeErrs []string
	for _, module := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-deps", "-test", "-json", "./...")
		cmd.Dir = filepath.Join(root, module)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", module, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Error != nil {
				t.Fatalf("go list: %s: %s", p.ImportPath, p.Error.Err)
			}
			// Standard packages come from the source importer; a .test
			// package is go test's generated main.
			if p.Standard || strings.HasSuffix(p.ImportPath, ".test") || checked[p.ImportPath] != nil {
				continue
			}
			info := &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				abs := filepath.Join(p.Dir, name)
				f := seen[abs]
				if f == nil {
					a, err := parser.ParseFile(s.fset, abs, nil, parser.ParseComments|parser.SkipObjectResolution)
					if err != nil {
						t.Fatal(err)
					}
					rel := s.rel(abs)
					f = &goFile{rel: rel, ast: a, info: info, test: strings.HasSuffix(name, "_test.go"),
						bench: strings.HasPrefix(rel, "bench/")}
					seen[abs] = f
					s.files = append(s.files, f)
				}
				files = append(files, f.ast)
			}
			conf := types.Config{
				Importer: importerFunc(func(path string) (*types.Package, error) {
					if v, ok := p.ImportMap[path]; ok {
						path = v
					}
					if pkg := checked[path]; pkg != nil {
						return pkg, nil
					}
					return std.Import(path)
				}),
				Sizes: types.SizesFor("gc", runtime.GOARCH),
				Error: func(err error) {
					te := err.(types.Error)
					typeErrs = append(typeErrs, fmt.Sprintf("%s: %s", s.where(te.Pos), te.Msg))
				},
			}
			if p.Module != nil && p.Module.GoVersion != "" {
				conf.GoVersion = "go" + p.Module.GoVersion
			}
			path, _, _ := strings.Cut(p.ImportPath, " ")
			pkg, _ := conf.Check(path, s.fset, files, info)
			checked[p.ImportPath] = pkg
			if p.ForTest == "" {
				s.pkgs[p.ImportPath] = pkg
			}
		}
	}
	// A file checked in several packages reports its errors once.
	slices.Sort(typeErrs)
	for _, e := range slices.Compact(typeErrs) {
		t.Error(e)
	}
	if t.Failed() {
		t.FailNow()
	}
	return s
}

// uses calls fn for every identifier of the file that refers to an object.
func (f *goFile) uses(fn func(*ast.Ident, types.Object)) {
	ast.Inspect(f.ast, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && f.info.Uses[id] != nil {
			fn(id, f.info.Uses[id])
		}
		return true
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// rel returns an absolute path as a slash path from the repository root.
func (s *source) rel(abs string) string {
	rel, err := filepath.Rel(s.root, abs)
	if err != nil { // not under the root: keep it whole
		return abs
	}
	return filepath.ToSlash(rel)
}

// where names pos as file:line, the file relative to the repository root.
func (s *source) where(pos token.Pos) string {
	p := s.fset.Position(pos)
	return fmt.Sprintf("%s:%d", s.rel(p.Filename), p.Line)
}

// lookup returns the package-level object pkg.name a rule names.
func (s *source) lookup(pkg, name string) types.Object {
	if p := s.pkgs[pkg]; p != nil && p.Scope().Lookup(name) != nil {
		return p.Scope().Lookup(name)
	}
	panic(fmt.Sprintf("no %s.%s: a rule names it, update the rule", pkg, name))
}

// structFields returns the fields of the named struct type pkg.name.
func (s *source) structFields(pkg, name string) []*types.Var {
	st := s.lookup(pkg, name).Type().Underlying().(*types.Struct)
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	return fields
}

// statTypes are the structs whose counters must each have a reader; for
// counters only the exported integer fields count, for the others every
// exported field.
var statTypes = []struct {
	pkg, typ string
	counters bool
}{
	{"repro/internal/pblk", "Stats", false},
	{"repro/internal/pblk", "LaneStat", false},
	{"repro/internal/ocssd", "Stats", false},
	{"repro/internal/nand", "Stats", false},
	{"repro/internal/volume", "Stats", false},
	{"repro/internal/lightnvm", "Wear", false},
	{"repro/internal/lsmdb", "DB", true},
	{"repro/internal/volume", "Member", true},
}

// statReaders: every counter the evaluation keeps is read somewhere (tests and
// bench/ count). A field that is only declared and written is a store on a
// hot path that tells no one anything. Writes are an assignment's left side
// (and the selectors it is reached through), ++ and --, an op-assign, and a
// composite-literal key; every other use is a read.
func (s *source) statReaders(t *testing.T) []string {
	fields := map[token.Pos]string{}
	for _, st := range statTypes {
		for _, f := range s.structFields(st.pkg, st.typ) {
			b, integer := f.Type().Underlying().(*types.Basic)
			if f.Exported() && (!st.counters || integer && b.Info()&types.IsInteger != 0) {
				fields[f.Pos()] = fmt.Sprintf("%s.%s.%s", path.Base(st.pkg), st.typ, f.Name())
			}
		}
	}
	read := map[token.Pos]bool{}
	for _, f := range s.files {
		written := writtenIdents(f.ast)
		f.uses(func(id *ast.Ident, obj types.Object) {
			if _, ok := fields[obj.Pos()]; ok && !written[id] {
				read[obj.Pos()] = true
			}
		})
	}
	t.Logf("%d fields", len(fields))
	var errs []string
	for pos, name := range fields {
		if !read[pos] {
			errs = append(errs, fmt.Sprintf("%s: %s is declared and written but never read; delete it", s.where(pos), name))
		}
	}
	return errs
}

// writtenIdents returns the identifiers f only writes to.
func writtenIdents(f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				w[x.Sel] = true
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				w[id] = true
			}
		}
		return true
	})
	return w
}

// benchOnly: an identifier whose doc comment starts with "Bench-only:"
// survives only because the benchmark module, which changes only in a change
// of its own, still uses it. bench/ must use it, and nothing outside bench/
// may but the Bench-only declarations themselves.
func (s *source) benchOnly(t *testing.T) []string {
	var errs []string
	marked := map[token.Pos]string{} // declaration position -> name
	var decls []ast.Node
	for _, f := range s.files {
		if f.bench {
			continue
		}
		docs := map[*ast.CommentGroup]bool{}
		mark := func(doc *ast.CommentGroup, decl ast.Node, names ...*ast.Ident) {
			if doc == nil || !strings.HasPrefix(doc.Text(), "Bench-only:") {
				return
			}
			docs[doc] = true
			decls = append(decls, decl)
			for _, id := range names {
				marked[id.Pos()] = id.Name
				if !id.IsExported() {
					errs = append(errs, fmt.Sprintf("%s: bench-only %s is not exported", s.where(id.Pos()), id.Name))
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				mark(n.Doc, n, n.Name)
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						mark(specDoc(n, sp.Doc), sp, sp.Name)
					case *ast.ValueSpec:
						mark(specDoc(n, sp.Doc), sp, sp.Names...)
					}
				}
			case *ast.Field:
				mark(n.Doc, n, n.Names...)
			}
			return true
		})
		for _, c := range f.ast.Comments {
			if strings.HasPrefix(c.Text(), "Bench-only:") && !docs[c] {
				errs = append(errs, fmt.Sprintf("%s: Bench-only: comment documents no declaration", s.where(c.Pos())))
			}
		}
	}
	if len(marked) == 0 {
		errs = append(errs, "no Bench-only: identifiers found")
	}
	inDecl := func(pos token.Pos) bool {
		return slices.ContainsFunc(decls, func(d ast.Node) bool { return d.Pos() <= pos && pos < d.End() })
	}
	inBench := map[token.Pos]bool{}
	for _, f := range s.files {
		f.uses(func(id *ast.Ident, obj types.Object) {
			name, ok := marked[obj.Pos()]
			switch {
			case !ok:
			case f.bench:
				inBench[obj.Pos()] = true
			case !inDecl(id.Pos()):
				errs = append(errs, fmt.Sprintf("%s: uses bench-only %s (declared at %s)", s.where(id.Pos()), name, s.where(obj.Pos())))
			}
		})
	}
	t.Logf("%d identifiers", len(marked))
	for pos, name := range marked {
		if !inBench[pos] {
			errs = append(errs, fmt.Sprintf("%s: bench/ no longer uses %s; delete it", s.where(pos), name))
		}
	}
	return errs
}

// specDoc is a spec's doc comment, or its declaration's when the
// declaration has no parentheses.
func specDoc(d *ast.GenDecl, doc *ast.CommentGroup) *ast.CommentGroup {
	if doc == nil && !d.Lparen.IsValid() {
		return d.Doc
	}
	return doc
}

// runFlag finds a `go test ... -run <regexp> <packages>` command.
var runFlag = regexp.MustCompile(`\bgo test(?:\s+-\S+(?:\s+[^-\s]\S*)?)*?\s+-run[ =](?:'([^']*)'|(\S+))\s+(.*)$`)

// namedTests: go test passes when a -run pattern matches nothing, so a
// renamed or deleted test would drop silently out of a command that names it.
// Every | alternative of every -run in CI and in the verify skill must match
// a test function in the packages the command names. Commands that pass
// -bench are skipped: their -run deliberately matches no test.
func (s *source) namedTests(t *testing.T) []string {
	tests := map[string][]string{} // package directory -> its test functions
	for _, f := range s.files {
		if !f.test {
			continue
		}
		dir := path.Dir(f.rel)
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				tests[dir] = append(tests[dir], fn.Name.Name)
			}
		}
	}
	var errs []string
	alts := 0
	for _, doc := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(filepath.Join(s.root, doc))
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := runFlag.FindStringSubmatch(line)
			if m == nil || strings.Contains(line, " -bench") {
				continue
			}
			args, _, _ := strings.Cut(m[3], "`") // an inline command ends at its backtick
			args, _, _ = strings.Cut(args, " #")
			var pkgs, names []string
			for _, arg := range strings.Fields(args) {
				if arg != "." && !strings.HasPrefix(arg, "./") {
					continue
				}
				pkgs = append(pkgs, arg)
				dir, all := strings.CutSuffix(arg, "/...")
				dir = path.Clean(dir)
				for d, fns := range tests {
					if d == dir || all && (dir == "." || strings.HasPrefix(d, dir+"/")) {
						names = append(names, fns...)
					}
				}
			}
			for _, alt := range strings.Split(m[1]+m[2], "|") {
				alts++
				top, _, _ := strings.Cut(alt, "/")
				re, err := regexp.Compile(top)
				if err != nil || !slices.ContainsFunc(names, re.MatchString) {
					errs = append(errs, fmt.Sprintf("%s:%d: -run alternative %q matches no test in %s", doc, i+1, alt, strings.Join(pkgs, " ")))
				}
			}
		}
	}
	t.Logf("%d -run alternatives", alts)
	return errs
}

// oneFreeList: every free list is a sim.Pool (DESIGN.md §"Queues and
// joins"), so no non-test code outside pool.go pops a slice's last element
// by hand: s[:len(s)-1] or s[:n-1].
func (s *source) oneFreeList(t *testing.T) []string {
	var errs []string
	for _, f := range s.files {
		if f.test || f.bench || f.rel == "internal/sim/pool.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			e, ok := n.(*ast.SliceExpr)
			if !ok || e.Low != nil || e.Slice3 {
				return true
			}
			sub, ok := ast.Unparen(e.High).(*ast.BinaryExpr)
			if !ok || sub.Op != token.SUB || !isNum(f.info, sub.Y, 1) {
				return true
			}
			switch x := ast.Unparen(sub.X).(type) {
			case *ast.Ident:
			case *ast.CallExpr:
				if fn, ok := ast.Unparen(x.Fun).(*ast.Ident); !ok || f.info.Uses[fn] != types.Universe.Lookup("len") {
					return true
				}
			default:
				return true
			}
			errs = append(errs, fmt.Sprintf("%s: %s pops a free list by hand; use a sim.Pool", s.where(e.Pos()), types.ExprString(e)))
			return true
		})
	}
	return errs
}

// oneSizeRule: every experiment sizes its device from Options (harness's
// Options.scaled), and the compact 8-PU shape is ocssd.CompactGeometry. In
// harness and volume, the blocks-per-plane argument of a geometry builder is
// never a constant, nor a local declared from one, and no ppa.Geometry is
// written as a literal.
func (s *source) oneSizeRule(t *testing.T) []string {
	var errs []string
	geo := s.lookup("repro/internal/ppa", "Geometry")
	builders := map[token.Pos]bool{}
	for _, name := range []string{"WestlakeGeometry", "CompactGeometry"} {
		builders[s.lookup("repro/internal/ocssd", name).Pos()] = true
	}
	for _, f := range s.files {
		if f.test || !strings.HasPrefix(f.rel, "internal/harness/") && !strings.HasPrefix(f.rel, "internal/volume/") {
			continue
		}
		fromConst := map[types.Object]bool{} // locals declared from a constant
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, id := range n.Lhs {
						if isConst(f.info, n.Rhs[i]) {
							fromConst[f.info.Defs[id.(*ast.Ident)]] = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i < len(n.Values) && isConst(f.info, n.Values[i]) {
						fromConst[f.info.Defs[id]] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := callee(f.info, n)
				if fn == nil || !builders[fn.Pos()] {
					return true
				}
				params := fn.Type().(*types.Signature).Params()
				for i := range params.Len() {
					if params.At(i).Name() != "blocksPerPlane" {
						continue
					}
					arg := n.Args[i]
					id, _ := ast.Unparen(arg).(*ast.Ident)
					if isConst(f.info, arg) || id != nil && fromConst[f.info.Uses[id]] {
						errs = append(errs, fmt.Sprintf("%s: %s sizes a device from a constant; scale it from Options",
							s.where(arg.Pos()), types.ExprString(n)))
					}
				}
			case *ast.CompositeLit:
				if named, ok := f.info.TypeOf(n).(*types.Named); ok && named.Obj().Pos() == geo.Pos() {
					errs = append(errs, fmt.Sprintf("%s: ppa.Geometry literal; build it with ocssd.WestlakeGeometry or CompactGeometry", s.where(n.Pos())))
				}
			}
			return true
		})
	}
	return errs
}

// oneMediaDefault: nand.DefaultConfig is fresh (wear-free) media and every
// device is ocssd.DefaultConfig(geometry) (DESIGN.md §"The characterization
// device"), so nothing outside bench/ sets nand.Config's PECycleLimit or
// WearLatencyFactor to a constant 0, by assignment or by literal key.
func (s *source) oneMediaDefault(t *testing.T) []string {
	wear := map[token.Pos]string{}
	for _, f := range s.structFields("repro/internal/nand", "Config") {
		if f.Name() == "PECycleLimit" || f.Name() == "WearLatencyFactor" {
			wear[f.Pos()] = f.Name()
		}
	}
	var errs []string
	for _, f := range s.files {
		if f.bench {
			continue
		}
		zeroes := func(field, val ast.Expr) {
			if sel, ok := ast.Unparen(field).(*ast.SelectorExpr); ok {
				field = sel.Sel
			}
			id, _ := field.(*ast.Ident)
			obj := f.info.Uses[id]
			if obj == nil || !isNum(f.info, val, 0) {
				return
			}
			if name, ok := wear[obj.Pos()]; ok {
				errs = append(errs, fmt.Sprintf("%s: %s set to 0 again; default media is already wear-free", s.where(id.Pos()), name))
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						zeroes(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.KeyValueExpr:
				zeroes(n.Key, n.Value)
			}
			return true
		})
	}
	return errs
}

// callers: every function, method, type, package-level var and const that a
// non-test file of the module declares is referenced from a non-test file of
// either module, outside its own declaration. A name only tests call is
// surface that no experiment, command, example or benchmark runs: delete it,
// or start its doc comment with "Test-only:" and the reason, and then a test
// must reference it and no non-test file may. Struct fields are the stat
// readers rule's. A method that satisfies an interface type of either module,
// error or fmt.Stringer counts as called.
func (s *source) callers(t *testing.T) []string {
	type decl struct {
		name     string
		node     ast.Node // the whole declaration
		testOnly bool
	}
	decls := map[token.Pos]*decl{}
	var named []*types.TypeName
	for _, f := range s.files {
		if f.test || f.bench {
			continue
		}
		pkg := f.ast.Name.Name
		add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup, name string) {
			if id.Name == "_" {
				return
			}
			decls[id.Pos()] = &decl{pkg + "." + name, node, doc != nil && strings.HasPrefix(doc.Text(), "Test-only:")}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := f.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					name = recv.(*types.Named).Obj().Name() + "." + name
				} else if name == "init" || name == "main" && pkg == "main" {
					continue
				}
				add(d.Name, d, d.Doc, name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add(sp.Name, sp, specDoc(d, sp.Doc), sp.Name.Name)
						named = append(named, f.info.Defs[sp.Name].(*types.TypeName))
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(id, sp, specDoc(d, sp.Doc), id.Name)
						}
					}
				}
			}
		}
	}
	called := map[token.Pos]string{} // declaration -> a non-test use
	tested := map[token.Pos]bool{}
	str := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String]))
	stringer := types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "String", types.NewSignatureType(nil, nil, nil, nil, str, false)),
	}, nil)
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer}
	for _, pkg := range s.pkgs {
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, tn := range named {
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue
		}
		for _, v := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			for _, it := range ifaces {
				if !types.Implements(v, it) {
					continue
				}
				for i := range it.NumMethods() {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name()); obj != nil {
						called[obj.Pos()] = "an interface"
					}
				}
			}
		}
	}
	for _, f := range s.files {
		f.uses(func(id *ast.Ident, obj types.Object) {
			d := decls[obj.Pos()]
			switch {
			case d == nil || d.node.Pos() <= id.Pos() && id.Pos() < d.node.End():
			case f.test:
				tested[obj.Pos()] = true
			case called[obj.Pos()] == "":
				called[obj.Pos()] = s.where(id.Pos())
			}
		})
	}
	var errs []string
	marks := 0
	for pos, d := range decls {
		switch {
		case d.testOnly && called[pos] != "":
			errs = append(errs, fmt.Sprintf("%s: Test-only %s is used by %s; drop the mark", s.where(pos), d.name, called[pos]))
		case d.testOnly && !tested[pos]:
			errs = append(errs, fmt.Sprintf("%s: no test uses Test-only %s; delete it", s.where(pos), d.name))
		case d.testOnly:
			marks++
		case called[pos] != "":
		case tested[pos]:
			errs = append(errs, fmt.Sprintf("%s: only tests use %s; delete it, or start its doc comment with Test-only: and the reason", s.where(pos), d.name))
		default:
			errs = append(errs, fmt.Sprintf("%s: nothing uses %s; delete it", s.where(pos), d.name))
		}
	}
	t.Logf("%d declarations, %d Test-only", len(decls), marks)
	return errs
}

// isConst reports whether e is a constant.
func isConst(info *types.Info, e ast.Expr) bool { return info.Types[e].Value != nil }

// isNum reports whether e is the constant number n.
func isNum(info *types.Info, e ast.Expr, n int64) bool {
	v := info.Types[e].Value
	return v != nil && (v.Kind() == constant.Int || v.Kind() == constant.Float) &&
		constant.Compare(v, token.EQL, constant.MakeInt64(n))
}

// callee returns the object a call's function expression names, or nil.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}
