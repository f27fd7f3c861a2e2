package tsexplain_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowlist names the methods only the standard library calls,
// through an interface, so their names appear at no call site here.
var uncalledAllowlist = map[string]string{
	"Less":   "baseline's mergeHeap (bottomup.go) is a heap.Interface; container/heap calls it",
	"Swap":   "baseline's mergeHeap (bottomup.go) is a heap.Interface; container/heap calls it",
	"Unwrap": "the server's error types expose their cause; errors.Is and errors.As call it",
}

// TestNoUncalledFunctions fails when a function or method declared in a
// non-test file under internal/ has lost its last non-test caller: its
// name appears as an identifier nowhere in non-test code except at
// function declarations. Exported names are looked up in every non-test
// file under the repository root (cmd/, examples/ and the bench/ module
// call into internal/ too), unexported names only within their own
// directory. The check is syntactic: a dead function whose name is shared
// with a live identifier goes unnoticed, and a method that only an
// interface call reaches needs an allowlist entry.
func TestNoUncalledFunctions(t *testing.T) {
	type decl struct {
		name, dir string
		pos       token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	exported := map[string]bool{}   // identifier → used
	unexported := map[string]bool{} // directory + "\x00" + identifier → used
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if internal && fd.Name.Name != "init" {
				decls = append(decls, decl{fd.Name.Name, dir, fset.Position(fd.Name.Pos())})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if ast.IsExported(id.Name) {
					exported[id.Name] = true
				} else {
					unexported[dir+"\x00"+id.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no function declarations found under internal/")
	}
	var dead []string
	for _, d := range decls {
		if _, ok := uncalledAllowlist[d.name]; ok {
			continue
		}
		if ast.IsExported(d.name) && exported[d.name] || unexported[d.dir+"\x00"+d.name] {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or move it into the test that uses it", d)
	}
}
