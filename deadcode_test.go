package tbwf

// The dead-symbol guard: every package-level func, type, var and const that
// a non-test file of this module declares must be referenced by something
// that ships (non-test code here or in bench/) or by the tests of another
// package. A package's own tests and `var _ I = T{}` assertions do not keep
// a symbol alive. Methods and struct fields are out of scope: interface
// dispatch makes them noisy. Packages named *test (primtest, electortest)
// are test helpers and exempt.

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestNoUnreferencedSymbols(t *testing.T) {
	dead, err := deadSymbols(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: nothing references %s outside its own package's tests", d.pos, d.name)
	}
}

// TestDeadSymbolsFixture runs the scanner on testdata/deadcode, a module
// whose lib package declares one symbol of each kind that nothing uses, one
// type kept only by an assertion, and symbols whose only users are the
// external ext/ directory, another package's test, or lib's own test.
func TestDeadSymbolsFixture(t *testing.T) {
	dir := filepath.Join("testdata", "deadcode")
	dead, err := deadSymbols(dir, filepath.Join(dir, "ext"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	want := []string{
		"lib.Asserted", "lib.DeadConst", "lib.DeadFunc", "lib.DeadType",
		"lib.DeadVar", "lib.OwnTestOnly", "lib.SelfOnly",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %v, want %v", got, want)
	}
}

type deadSymbol struct {
	pos  string // file:line, relative to the module directory
	name string // pkgname.Name
}

// symKey identifies a package-scope object across type-checks: objects
// imported from export data and objects checked from source are different
// values for the same declaration.
type symKey struct{ path, name string }

type listedPkg struct {
	path, name, dir             string
	goFiles, testFiles, xtFiles []string
}

// deadSymbols type-checks every package of the module at modDir from source
// (imports come from the compiler's export data) plus the non-test files of
// each external directory, and returns the package-level symbols declared in
// non-test files that nothing counted as a reference uses, sorted by name.
func deadSymbols(modDir string, externalDirs ...string) ([]deadSymbol, error) {
	modDir, err := filepath.Abs(modDir)
	if err != nil {
		return nil, err
	}
	pkgs, err := listPackages(modDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	parse := func(dir string, names []string) ([]*ast.File, error) {
		files := make([]*ast.File, 0, len(names))
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}

	type parsed struct {
		pkg                *listedPkg
		code, tests, xtest []*ast.File
	}
	var all []parsed
	imports := map[string]bool{}
	addImports := func(files []*ast.File) {
		for _, f := range files {
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				imports[p] = true
			}
		}
	}
	for i := range pkgs {
		p := &pkgs[i]
		var pp parsed
		pp.pkg = p
		if pp.code, err = parse(p.dir, p.goFiles); err != nil {
			return nil, err
		}
		if pp.tests, err = parse(p.dir, p.testFiles); err != nil {
			return nil, err
		}
		if pp.xtest, err = parse(p.dir, p.xtFiles); err != nil {
			return nil, err
		}
		addImports(pp.code)
		addImports(pp.tests)
		addImports(pp.xtest)
		all = append(all, pp)
	}
	var external [][]*ast.File
	for _, dir := range externalDirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		var code []string
		for _, n := range names {
			if !strings.HasSuffix(n, "_test.go") {
				code = append(code, filepath.Base(n))
			}
		}
		files, err := parse(dir, code)
		if err != nil {
			return nil, err
		}
		addImports(files)
		external = append(external, files)
	}
	delete(imports, "C")
	exports, err := listExports(modDir, imports)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	declared := map[symKey]token.Pos{}
	live := map[symKey]bool{}
	// check type-checks files as package path and records their uses of
	// package-scope objects; counts decides whether a use keeps its object
	// alive.
	check := func(path string, files []*ast.File, imp types.Importer, counts func(file *ast.File, obj types.Object) bool) *types.Package {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		// Type errors are expected where a source-checked package meets
		// its export-data twin; the uses are recorded all the same.
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkg, _ := conf.Check(path, fset, files, info)
		for _, f := range files {
			markUses(path, f, info, func(obj types.Object) {
				if counts(f, obj) {
					live[symKey{obj.Pkg().Path(), obj.Name()}] = true
				}
			})
		}
		return pkg
	}

	isTest := func(f *ast.File) bool {
		return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
	}
	for _, pp := range all {
		p := pp.pkg
		if !strings.HasSuffix(p.name, "test") {
			for _, f := range pp.code {
				for _, d := range f.Decls {
					for _, id := range declaredNames(d) {
						if id.Name == "_" || id.Name == "init" || (p.name == "main" && id.Name == "main") {
							continue
						}
						declared[symKey{p.path, id.Name}] = id.Pos()
					}
				}
			}
		}
		// Non-test code counts for every package; test files count only
		// for objects of other packages.
		variant := check(p.path, append(append([]*ast.File{}, pp.code...), pp.tests...), gc,
			func(f *ast.File, obj types.Object) bool { return !isTest(f) || obj.Pkg().Path() != p.path })
		if len(pp.xtest) > 0 {
			imp := importerFunc(func(path string) (*types.Package, error) {
				if path == p.path {
					return variant, nil
				}
				return gc.Import(path)
			})
			check(p.path+"_test", pp.xtest, imp,
				func(_ *ast.File, obj types.Object) bool { return obj.Pkg().Path() != p.path })
		}
	}
	for i, files := range external {
		check(fmt.Sprintf("external%d", i), files, gc, func(*ast.File, types.Object) bool { return true })
	}

	var dead []deadSymbol
	for k, pos := range declared {
		if live[k] {
			continue
		}
		position := fset.Position(pos)
		rel, err := filepath.Rel(modDir, position.Filename)
		if err != nil {
			return nil, err
		}
		dead = append(dead, deadSymbol{
			pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(rel), position.Line),
			name: filepath.Base(k.path) + "." + k.name,
		})
	}
	slices.SortFunc(dead, func(a, b deadSymbol) int {
		return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.pos, b.pos))
	})
	return dead, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaredNames returns the package-level names a top-level declaration
// introduces. Methods introduce none.
func declaredNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// markUses reports every use in f of a package-scope object, skipping the
// uses that do not count as references: those inside `var _ = ...`
// assertions, and a declaration's uses of itself (a recursive func, a
// type's own fields, the methods of a type naming it). pkgPath is the
// package the file belongs to.
func markUses(pkgPath string, f *ast.File, info *types.Info, use func(types.Object)) {
	inspect := func(n ast.Node, own ...string) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Scope().Lookup(obj.Name()) != obj {
				return true
			}
			if obj.Pkg().Path() != pkgPath || !slices.Contains(own, obj.Name()) {
				use(obj)
			}
			return true
		})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				inspect(d, receiverBase(d.Recv.List[0].Type))
			} else {
				inspect(d, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					inspect(s, s.Name.Name)
				case *ast.ValueSpec:
					var names []string
					for _, id := range s.Names {
						if id.Name != "_" {
							names = append(names, id.Name)
						}
					}
					if len(names) > 0 {
						inspect(s, names...)
					}
				}
			}
		}
	}
}

// receiverBase returns the name of a method receiver's type.
func receiverBase(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// listPackages lists the module's packages and their Go files.
func listPackages(modDir string) ([]listedPkg, error) {
	out, err := goCmd(modDir, "list", "-f",
		"{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \",\"}}\t{{join .TestGoFiles \",\"}}\t{{join .XTestGoFiles \",\"}}",
		"./...")
	if err != nil {
		return nil, err
	}
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	var pkgs []listedPkg
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 6 {
			return nil, fmt.Errorf("go list: unexpected line %q", sc.Text())
		}
		pkgs = append(pkgs, listedPkg{path: f[0], name: f[1], dir: f[2],
			goFiles: split(f[3]), testFiles: split(f[4]), xtFiles: split(f[5])})
	}
	return pkgs, sc.Err()
}

// listExports maps every package that imports needs, transitively, to its
// export data file, building what the build cache lacks.
func listExports(modDir string, imports map[string]bool) (map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"},
		slices.Sorted(maps.Keys(imports))...)
	out, err := goCmd(modDir, args...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		path, file, _ := strings.Cut(sc.Text(), "\t")
		exports[path] = file
	}
	return exports, sc.Err()
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", args[0], err, stderr.Bytes())
	}
	return out, nil
}
