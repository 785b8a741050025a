package griddles

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestReachable keeps exported API that no program reaches out of the tree.
// It parses every non-test .go file of the module and fails on
//   - an exported top-level function that nothing names outside its own
//     declaration: a use is a pkg.Name selector from another package or a
//     bare Name in its own package;
//   - an exported method whose name no selector (x.Name) uses;
//   - a line of testdata/reachable.txt that names no such function or
//     method, or one that is used after all, so the list cannot go stale.
//
// Uses in _test.go files do not count: a function only tests call moves into
// a test file, goes, or is listed in testdata/reachable.txt with a reason
// (an interface method the standard library calls, a test-observation hook).
// Run it alone with `make reachable`.
func TestReachable(t *testing.T) {
	decls, used := scanModule(t)
	allowed := readAllowlist(t, filepath.Join("testdata", "reachable.txt"))

	var unreached, stale []string
	for key := range decls {
		if !used[key] && allowed[key] == "" {
			unreached = append(unreached, key)
		}
	}
	for key := range allowed {
		switch {
		case !decls[key]:
			stale = append(stale, key+" (no such exported function or method)")
		case used[key]:
			stale = append(stale, key+" (used now; drop the line)")
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	if len(unreached) > 0 {
		t.Errorf("%d exported functions or methods that no non-test file reaches "+
			"(delete them, move them into a _test.go file, or list them in testdata/reachable.txt with a reason):\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("stale lines in testdata/reachable.txt:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// scanModule returns every exported top-level function ("pkg.Name") and
// method ("pkg.Type.Name") of the module's non-test files, and which of them
// are used. pkg is the import path without the module and internal/ prefix.
func scanModule(t *testing.T) (decls, used map[string]bool) {
	t.Helper()
	module := modulePath(t)
	type file struct {
		pkg string
		f   *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{pkgKey(path.Join(module, filepath.ToSlash(filepath.Dir(p))), module), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	decls = map[string]bool{}
	methods := map[string][]string{} // method name -> its "pkg.Type.Name" keys
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				decls[fl.pkg+"."+fd.Name.Name] = true
				continue
			}
			key := fl.pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			decls[key] = true
			methods[fd.Name.Name] = append(methods[fd.Name.Name], key)
		}
	}

	used = map[string]bool{}
	for _, fl := range files {
		imports := map[string]string{} // local name -> package key
		for _, im := range fl.f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = pkgKey(ip, module)
		}
		// A declaration's name, and its uses inside its own body, are not
		// uses.
		for _, d := range fl.f.Decls {
			self, nodes := "", []ast.Node{d}
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = fl.pkg + "." + fd.Name.Name
				if fd.Recv != nil {
					self = fl.pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				nodes = []ast.Node{fd.Type}
				if fd.Body != nil {
					nodes = append(nodes, fd.Body)
				}
			}
			mark := func(key string) {
				if key != self {
					used[key] = true
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if pkg, ok := imports[x.Name]; ok {
							mark(pkg + "." + n.Sel.Name)
							return false
						}
					}
					for _, key := range methods[n.Sel.Name] {
						mark(key)
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n.IsExported() {
						mark(fl.pkg + "." + n.Name)
					}
				}
				return true
			}
			for _, n := range nodes {
				ast.Inspect(n, visit)
			}
		}
	}
	return decls, used
}

// recvType names a method's receiver type without pointer or type
// parameters.
func recvType(e ast.Expr) string {
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
			return "?"
		}
	}
}

func pkgKey(importPath, module string) string {
	p := strings.TrimPrefix(strings.TrimPrefix(importPath, module), "/")
	return strings.TrimPrefix(p, "internal/")
}

func modulePath(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// readAllowlist reads "key  reason" lines; blank lines and # comments are
// skipped, and a line without a reason fails the test.
func readAllowlist(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("%s:%d: %s has no reason", file, n, key)
			continue
		}
		if allowed[key] != "" {
			t.Errorf("%s:%d: %s listed twice", file, n, key)
		}
		allowed[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
